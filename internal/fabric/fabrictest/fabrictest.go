// Package fabrictest is the fabric backend contract as one test table: what
// every fabric.Fabric implementation owes the executors written against it
// — per-link FIFO, message metadata, transfer-on-send ownership, one-shot
// engines, typed failures that unwind blocked peers, fault injection and
// retry accounting, deadlines, crash-stop detection, an honest capability
// matrix, and no goroutine outliving Run — stated once and run against any
// registered backend by name. It is the entry exam for a new backend: call
// Contract from the backend's own tests.
//
// The table only uses what fabric.New hands back, so it cannot configure a
// backend's private knobs (simnet's shard count, livenet's supervision
// windows). Contracts that need them — deadlock/stall diagnosis, detection
// latency against a configured suspicion timeout, shard invariance — and
// every assertion of a virtual-time value stay in the backend's package.
package fabrictest

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"boolcube/internal/fabric"
	"boolcube/internal/fault"
	"boolcube/internal/machine"
)

// Contract runs the backend contract against the backend registered under
// the given name. Cases that need a virtual clock (exact deadline
// admission, determinism) are skipped on a backend that does not declare
// VirtualTime.
func Contract(t *testing.T, backend string) {
	caps, ok := fabric.Caps(backend)
	if !ok {
		t.Fatalf("backend %q is not registered (have %v)", backend, fabric.Backends())
	}
	c := contract{backend: backend, caps: caps}
	for _, tc := range []struct {
		name string
		run  func(*testing.T, contract)
	}{
		{"capabilities", testCapabilities},
		{"bad-n", testBadN},
		{"zero-cube", testZeroCube},
		{"one-shot", testOneShot},
		{"fifo", testFIFO},
		{"metadata", testMetadata},
		{"ownership", testOwnership},
		{"recv-any", testRecvAny},
		{"bad-dimension", testBadDimension},
		{"panic", testPanic},
		{"fail", testFail},
		{"trysend-link-down", testTrySendLinkDown},
		{"retry-budget", testRetryBudget},
		{"flaky-fifo", testFlakyFIFO},
		{"deadline-disabled", testDeadlineDisabled},
		{"deadline-abort", testDeadlineAbort},
		{"deadline-boundary", testDeadlineBoundary},
		{"crash-stop", testCrashStop},
		{"deterministic", testDeterministic},
		{"no-leak", testNoLeak},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, c) })
	}
}

type contract struct {
	backend string
	caps    fabric.Capabilities
}

// engine builds a fresh n-cube on the ideal machine (τ = 1 µs, 1 µs per
// byte, one byte per element): cheap in virtual time, and on a wall-clock
// backend a fault backoff of one real microsecond.
func (c contract) engine(t *testing.T, n int, ports machine.PortModel) fabric.Fabric {
	t.Helper()
	e, err := fabric.New(c.backend, n, machine.Ideal(ports))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// faulted is engine with a compiled fault schedule installed.
func (c contract) faulted(t *testing.T, n int, spec fault.Spec, rp fabric.RetryPolicy) fabric.Fabric {
	t.Helper()
	e := c.engine(t, n, machine.OnePort)
	e.SetFaults(fault.MustCompile(spec, n), rp)
	return e
}

// scan is the steady workload of the abort cases: an exchange over every
// dimension, high to low.
func scan(nd fabric.Node) {
	for d := nd.Dims() - 1; d >= 0; d-- {
		nd.Recycle(nd.Exchange(d, fabric.Msg{Data: nd.AllocData(4)}))
	}
}

// chatter keeps every node computing dt µs and then exchanging across all
// dimensions, round after round, so that time passes on any clock and a
// node that dies mid-run leaves its neighbors waiting on it.
func chatter(rounds int, dt float64) func(fabric.Node) {
	return func(nd fabric.Node) {
		for r := 0; r < rounds; r++ {
			nd.Advance(dt)
			for d := 0; d < nd.Dims(); d++ {
				nd.Send(d, fabric.Msg{Data: []float64{float64(nd.ID())}})
				nd.Recv(d)
			}
		}
	}
}

// countTracer counts the send events of a run. Backends serialize Record.
type countTracer struct{ sends int64 }

func (c *countTracer) Record(ev fabric.TraceEvent) {
	if ev.Kind == "send" {
		c.sends++
	}
}

// The capability matrix is honest: the engine reports what the registry
// declares, and the backend reports every send to the tracer it was given.
func testCapabilities(t *testing.T, c contract) {
	e := c.engine(t, 2, machine.NPort)
	if got := e.Capabilities(); got != c.caps {
		t.Errorf("engine declares %+v, registry %+v", got, c.caps)
	}
	if e.Dims() != 2 || e.Nodes() != 4 || e.Params() != machine.Ideal(machine.NPort) {
		t.Errorf("engine echoes dims %d, nodes %d, machine %+v", e.Dims(), e.Nodes(), e.Params())
	}
	// A fresh engine runs unfaulted and unbounded: the scan completes with
	// no degradation counted.
	var tr countTracer
	e.SetTracer(&tr)
	if err := e.Run(scan); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if want := (fabric.Stats{Sends: 8, Bytes: 32, Startups: 8, MaxLinkBytes: 4}); st.Logical() != want {
		t.Errorf("a 2-cube scan of 4-byte messages cost %+v, want %+v", st.Logical(), want)
	}
	if tr.sends != st.Sends {
		t.Errorf("tracer saw %d sends, Stats counts %d", tr.sends, st.Sends)
	}
	if loads := e.LinkLoads(); len(loads) != 8 {
		t.Errorf("%d loaded links, want all 8", len(loads))
	}
}

func testBadN(t *testing.T, c contract) {
	for _, n := range []int{-1, 21} {
		if _, err := fabric.New(c.backend, n, machine.Ideal(machine.OnePort)); err == nil {
			t.Errorf("cube dimension %d accepted", n)
		}
	}
	bad := machine.Ideal(machine.OnePort)
	bad.Tau = -5
	if _, err := fabric.New(c.backend, 3, bad); err == nil {
		t.Error("invalid machine accepted")
	}
}

func testZeroCube(t *testing.T, c contract) {
	e := c.engine(t, 0, machine.OnePort)
	ran := make([]int, e.Nodes())
	err := e.Run(func(nd fabric.Node) {
		ran[nd.ID()]++
		nd.Advance(5)
		nd.Copy(16)
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.Nodes() != 1 || ran[0] != 1 {
		t.Errorf("0-cube ran its program %v times on %d nodes", ran, e.Nodes())
	}
	if st := e.Stats(); st.CopyBytes != 16 || st.Sends != 0 {
		t.Errorf("0-cube stats %+v", st)
	}
}

func testOneShot(t *testing.T, c contract) {
	e := c.engine(t, 1, machine.OnePort)
	if err := e.Run(scan); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(scan); err == nil {
		t.Error("second Run accepted; engines are one-shot")
	}
}

// Per-link FIFO: descending sizes, so on a timed backend every later message
// is shorter than the one ahead of it and still may not overtake.
func testFIFO(t *testing.T, c contract) {
	const msgs = 50
	e := c.engine(t, 1, machine.NPort)
	tags := make([][]int, e.Nodes())
	err := e.Run(func(nd fabric.Node) {
		if nd.ID() == 0 {
			for i := 0; i < msgs; i++ {
				nd.Send(0, fabric.Msg{Tag: i, Data: make([]float64, msgs-i)})
			}
			return
		}
		for i := 0; i < msgs; i++ {
			m := nd.Recv(0)
			if len(m.Data) != msgs-m.Tag {
				nd.Fail(errors.New("payload length does not match its tag"))
			}
			tags[nd.ID()] = append(tags[nd.ID()], m.Tag)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, tag := range tags[1] {
		if tag != i {
			t.Fatalf("message %d arrived in position %d: %v", tag, i, tags[1])
		}
	}
}

func testMetadata(t *testing.T, c contract) {
	e := c.engine(t, 1, machine.OnePort)
	got := make([]fabric.Msg, e.Nodes())
	err := e.Run(func(nd fabric.Node) {
		if nd.ID() == 0 {
			nd.Send(0, fabric.Msg{
				Src: 7, Dst: 9, Tag: 42, Rel: 0b101,
				Path:  []int{2, 1},
				Parts: []fabric.Part{{Src: 1, Dst: 2, N: 3}},
				Data:  []float64{1, 2, 3},
			})
			return
		}
		got[nd.ID()] = nd.Recv(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	m := got[1]
	if m.Src != 7 || m.Dst != 9 || m.Tag != 42 || m.Rel != 0b101 {
		t.Errorf("header lost: %+v", m)
	}
	if len(m.Path) != 2 || m.Path[0] != 2 || m.Path[1] != 1 ||
		len(m.Parts) != 1 || m.Parts[0] != (fabric.Part{Src: 1, Dst: 2, N: 3}) {
		t.Errorf("path/parts lost: %+v", m)
	}
	if len(m.Data) != 3 || m.Data[0] != 1 || m.Data[2] != 3 {
		t.Errorf("payload lost: %v", m.Data)
	}
}

// Send transfers the buffers themselves: the receiver gets the sender's
// backing array, not a copy, owns it — may write it and keep it past Run —
// and the sender never looks at it again.
func testOwnership(t *testing.T, c contract) {
	e := c.engine(t, 1, machine.OnePort)
	sent := make([]*float64, e.Nodes())
	kept := make([][]float64, e.Nodes())
	err := e.Run(func(nd fabric.Node) {
		id := nd.ID()
		buf := nd.AllocData(8)
		for i := range buf {
			buf[i] = float64(id)
		}
		sent[id] = &buf[0]
		m := nd.Exchange(0, fabric.Msg{Src: id, Data: buf})
		m.Data[0] = -1
		kept[id] = m.Data
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := range kept {
		peer := id ^ 1
		if len(kept[id]) != 8 || &kept[id][0] != sent[peer] {
			t.Errorf("node %d received a copy, not node %d's buffer", id, peer)
		}
		if kept[id][0] != -1 || kept[id][7] != float64(peer) {
			t.Errorf("node %d's received buffer reads %v after Run", id, kept[id])
		}
	}
}

// RecvAny delivers from whichever dimension has traffic; on a virtual clock
// the earliest arrival comes first.
func testRecvAny(t *testing.T, c contract) {
	e := c.engine(t, 2, machine.NPort)
	lens := make([][]int, e.Nodes())
	err := e.Run(func(nd fabric.Node) {
		switch nd.ID() {
		case 1:
			nd.Send(1, fabric.Msg{Data: make([]float64, 100)})
		case 2:
			nd.Send(0, fabric.Msg{Data: make([]float64, 1)})
		case 3:
			for i := 0; i < 2; i++ {
				lens[nd.ID()] = append(lens[nd.ID()], len(nd.RecvAny().Data))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	got := lens[3]
	if len(got) != 2 || got[0]+got[1] != 101 {
		t.Fatalf("RecvAny delivered payloads of %v elements, want 1 and 100", got)
	}
	if c.caps.VirtualTime && got[0] != 1 {
		t.Errorf("RecvAny returned the later arrival first: %v", got)
	}
}

// API misuse in one node program is Run's error, and it unwinds a peer
// blocked on a receive nobody will ever satisfy.
func testBadDimension(t *testing.T, c contract) {
	e := c.engine(t, 2, machine.OnePort)
	err := e.Run(func(nd fabric.Node) {
		switch nd.ID() {
		case 0:
			nd.Send(5, fabric.Msg{})
		case 1:
			nd.Recv(1)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "dimension") {
		t.Fatalf("Run() = %v, want the out-of-range dimension reported", err)
	}
}

func testPanic(t *testing.T, c contract) {
	e := c.engine(t, 2, machine.OnePort)
	err := e.Run(func(nd fabric.Node) {
		switch nd.ID() {
		case 3:
			panic("boom")
		case 0:
			nd.Recv(1)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Run() = %v, want the panic reported", err)
	}
}

// Node.Fail surfaces exactly the error it was given.
func testFail(t *testing.T, c contract) {
	e := c.engine(t, 2, machine.NPort)
	want := &fabric.AuditError{Node: 3, Src: 0, Dst: 3, What: "block", Want: 1, Got: 2}
	err := e.Run(func(nd fabric.Node) {
		if nd.ID() == 3 {
			nd.Fail(want)
		}
		scan(nd)
	})
	var ae *fabric.AuditError
	if !errors.As(err, &ae) || ae != want || !errors.Is(err, fabric.ErrAudit) {
		t.Fatalf("Run() = %v, want the *fabric.AuditError handed to Fail", err)
	}
}

func testTrySendLinkDown(t *testing.T, c contract) {
	e := c.faulted(t, 1, fault.SingleLinkDown(0, 0), fabric.RetryPolicy{})
	saw := make([]error, e.Nodes())
	err := e.Run(func(nd fabric.Node) {
		if nd.ID() == 0 {
			saw[nd.ID()] = nd.TrySend(0, fabric.Msg{Data: []float64{1}})
		}
	})
	if err != nil {
		t.Fatalf("Run() = %v, want nil: the program handled the fault", err)
	}
	var fe *fabric.FaultError
	if !errors.As(saw[0], &fe) || !errors.Is(saw[0], fabric.ErrLinkDown) {
		t.Fatalf("TrySend() = %v, want *fabric.FaultError wrapping ErrLinkDown", saw[0])
	}
	if fe.From != 0 || fe.To != 1 || fe.Dim != 0 || fe.Attempts != 1 {
		t.Errorf("fault error fields: %+v", fe)
	}
	if st := e.Stats(); st.FaultedSends != 1 || st.Sends != 0 {
		t.Errorf("stats %+v, want one faulted send and nothing delivered", st)
	}
}

func testRetryBudget(t *testing.T, c contract) {
	e := c.faulted(t, 1, fault.FlakyLink(0, 0, 1), fabric.RetryPolicy{Attempts: 3})
	err := e.Run(func(nd fabric.Node) {
		if nd.ID() == 0 {
			nd.Send(0, fabric.Msg{Data: []float64{1}})
			return
		}
		nd.Recv(0)
	})
	var fe *fabric.FaultError
	if !errors.As(err, &fe) || !errors.Is(err, fabric.ErrRetryBudget) {
		t.Fatalf("Run() = %v, want *fabric.FaultError wrapping ErrRetryBudget", err)
	}
	if fe.Attempts != 3 {
		t.Errorf("Attempts = %d, want the budget of 3", fe.Attempts)
	}
	if st := e.Stats(); st.Drops != 3 || st.Retries != 2 || st.FaultedSends != 1 {
		t.Errorf("stats %+v, want 3 drops, 2 retries, 1 faulted send", st)
	}
}

// flakyLogical is what twenty one-element sends over fault.FlakyLink(0, 0,
// 0.5) must cost on any backend: drop decisions are a pure hash of (seed,
// link, attempt), so the logical counters are too. One pinned value makes
// Stats.Logical() parity across backends transitive.
var flakyLogical = fabric.Stats{Startups: 35, Sends: 20, Bytes: 35, MaxLinkBytes: 35, Retries: 15, Drops: 15}

func testFlakyFIFO(t *testing.T, c contract) {
	const msgs = 20
	e := c.faulted(t, 1, fault.FlakyLink(0, 0, 0.5), fabric.RetryPolicy{Attempts: 64})
	got := make([][]float64, e.Nodes())
	err := e.Run(func(nd fabric.Node) {
		if nd.ID() == 0 {
			for i := 0; i < msgs; i++ {
				nd.Send(0, fabric.Msg{Data: []float64{float64(i)}})
			}
			return
		}
		for i := 0; i < msgs; i++ {
			got[nd.ID()] = append(got[nd.ID()], nd.Recv(0).Data[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got[1] {
		if v != float64(i) {
			t.Fatalf("message %d carried %v: retransmits broke FIFO order", i, v)
		}
	}
	if l := e.Stats().Logical(); l != flakyLogical {
		t.Errorf("logical stats diverge from every other backend's:\ngot  %+v\nwant %+v", l, flakyLogical)
	}
}

// SetDeadline(t <= 0) lifts a budget set before it: a run far past the
// lifted budget completes.
func testDeadlineDisabled(t *testing.T, c contract) {
	for _, d := range []float64{-1, 0} {
		e := c.engine(t, 2, machine.NPort)
		e.SetDeadline(1)
		e.SetDeadline(d)
		if err := e.Run(chatter(2, 1000)); err != nil {
			t.Errorf("SetDeadline(%v) left the run bounded: %v", d, err)
		}
	}
}

// A deadline abort is typed, names the budget, and leaves Stats readable.
func testDeadlineAbort(t *testing.T, c contract) {
	const budget = 50_000 // µs: 50 rounds of virtual time, 50 ms of wall clock
	e := c.engine(t, 2, machine.OnePort)
	e.SetDeadline(budget)
	err := e.Run(chatter(100_000, 1000))
	var de *fabric.DeadlineError
	if !errors.As(err, &de) || !errors.Is(err, fabric.ErrDeadline) {
		t.Fatalf("Run() = %v, want *fabric.DeadlineError", err)
	}
	if de.Deadline != budget || de.NextAt < budget {
		t.Errorf("deadline error %+v, want budget %d and an overrun past it", de, budget)
	}
	if st := e.Stats(); st.Sends == 0 {
		t.Errorf("no progress before the deadline recorded: %+v", st)
	}
}

// On a virtual clock admission is exact: an operation acting at the deadline
// runs, one acting after it does not.
func testDeadlineBoundary(t *testing.T, c contract) {
	if !c.caps.VirtualTime {
		t.Skip("backend does not declare VirtualTime")
	}
	exchange := func(nd fabric.Node) {
		nd.Exchange(0, fabric.Msg{Data: []float64{float64(nd.ID())}})
	}
	free := c.engine(t, 1, machine.OnePort)
	if err := free.Run(exchange); err != nil {
		t.Fatal(err)
	}
	makespan := free.Stats().Time
	at := c.engine(t, 1, machine.OnePort)
	at.SetDeadline(makespan)
	if err := at.Run(exchange); err != nil || at.Stats().Time != makespan {
		t.Errorf("deadline equal to the makespan %v: Run() = %v at t=%v", makespan, err, at.Stats().Time)
	}
	short := c.engine(t, 1, machine.OnePort)
	short.SetDeadline(makespan / 2)
	var de *fabric.DeadlineError
	if err := short.Run(exchange); !errors.As(err, &de) || de.NextAt != makespan {
		t.Errorf("deadline at half the makespan: Run() = %v, want the receive at t=%v refused", err, makespan)
	}
}

// A crash-stopped node is detected and named; the run neither hangs nor
// reports a stall. How long detection may take against a configured
// suspicion timeout is each backend's own test; here it must beat 5 s.
func testCrashStop(t *testing.T, c contract) {
	const victim, at = 3, 10_000
	e := c.faulted(t, 2, fault.NodeCrash(victim, at), fabric.RetryPolicy{})
	start := time.Now() //cubevet:ignore detbreak -- test harness bounding real detection latency; no simulated result depends on it
	err := e.Run(chatter(100_000, 500))
	if wall := time.Since(start); wall > 5*time.Second {
		t.Errorf("detection took %v of wall clock", wall)
	}
	var nde *fabric.NodeDownError
	if !errors.As(err, &nde) || !errors.Is(err, fabric.ErrNodeDown) {
		t.Fatalf("Run() = %v, want *fabric.NodeDownError", err)
	}
	if nde.Node != victim || len(nde.Nodes) != 1 || nde.Nodes[0] != victim {
		t.Errorf("dead nodes %d %v, want only node %d", nde.Node, nde.Nodes, victim)
	}
	if nde.At != at || nde.DetectedAt < nde.At || nde.LastHeard > nde.DetectedAt {
		t.Errorf("crash at %v, last heard %v, detected %v: want At = %d <= DetectedAt, LastHeard <= DetectedAt",
			nde.At, nde.LastHeard, nde.DetectedAt, at)
	}
}

func testDeterministic(t *testing.T, c contract) {
	if !c.caps.VirtualTime {
		t.Skip("backend does not declare VirtualTime")
	}
	run := func() (fabric.Stats, []fabric.LinkLoad) {
		e := c.engine(t, 4, machine.NPort)
		err := e.Run(func(nd fabric.Node) {
			for d := 0; d < nd.Dims(); d++ {
				nd.Exchange(d, fabric.Msg{Src: nd.ID(), Data: make([]float64, int(nd.ID())%3+1)})
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return e.Stats(), e.LinkLoads()
	}
	s1, l1 := run()
	s2, l2 := run()
	if s1 != s2 {
		t.Errorf("two identical runs, two Stats:\n%+v\n%+v", s1, s2)
	}
	if len(l1) != len(l2) {
		t.Fatalf("two identical runs loaded %d and %d links", len(l1), len(l2))
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Errorf("link load %d differs: %+v vs %+v", i, l1[i], l2[i])
		}
	}
}

// No goroutine outlives Run, however the run ends, and the spent engine
// still refuses a second Run.
func testNoLeak(t *testing.T, c contract) {
	const n = 4
	// after runs one exchange, so every node is mid-program when node 5
	// ends the run.
	after := func(then func(fabric.Node)) func(fabric.Node) {
		return func(nd fabric.Node) {
			nd.Exchange(0, fabric.Msg{Data: []float64{1}})
			if nd.ID() == 5 {
				then(nd)
			}
			scan(nd)
		}
	}
	errBoom := errors.New("boom")
	var faultErr *fabric.FaultError
	var deadlineErr *fabric.DeadlineError
	var downErr *fabric.NodeDownError
	for _, tc := range []struct {
		name   string
		faults fault.Spec
		budget float64
		prog   func(fabric.Node)
		ended  func(error) bool
	}{
		{name: "success", prog: scan, ended: func(err error) bool { return err == nil }},
		{name: "fail", prog: after(func(nd fabric.Node) { nd.Fail(errBoom) }),
			ended: func(err error) bool { return errors.Is(err, errBoom) }},
		{name: "panic", prog: after(func(fabric.Node) { panic("boom") }),
			ended: func(err error) bool { return err != nil && strings.Contains(err.Error(), "boom") }},
		{name: "fault", faults: fault.SingleLinkDown(5, 3), prog: scan,
			ended: func(err error) bool { return errors.As(err, &faultErr) }},
		{name: "deadline", budget: 20_000, prog: chatter(100_000, 1000),
			ended: func(err error) bool { return errors.As(err, &deadlineErr) }},
		{name: "crash", faults: fault.NodeCrash(5, 5_000), prog: chatter(100_000, 500),
			ended: func(err error) bool { return errors.As(err, &downErr) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := fabric.New(c.backend, n, machine.IPSC())
			if err != nil {
				t.Fatal(err)
			}
			if len(tc.faults.Rules) > 0 {
				e.SetFaults(fault.MustCompile(tc.faults, n), fabric.RetryPolicy{})
			}
			e.SetDeadline(tc.budget)
			before := runtime.NumGoroutine()
			if err := e.Run(tc.prog); !tc.ended(err) {
				t.Fatalf("Run() = %v: not the ending this case is about", err)
			}
			// Workers and supervisors exit just after Run's last barrier.
			now := runtime.NumGoroutine()
			for wait := time.Millisecond; now > before && wait < time.Second; wait *= 2 {
				time.Sleep(wait)
				now = runtime.NumGoroutine()
			}
			if now > before {
				t.Errorf("%d goroutines before Run, %d after", before, now)
			}
			if err := e.Run(tc.prog); err == nil {
				t.Error("spent engine accepted a second Run")
			}
		})
	}
}
