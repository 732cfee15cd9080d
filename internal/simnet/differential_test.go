package simnet_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"boolcube/internal/fabric"
	"boolcube/internal/fault"
	"boolcube/internal/machine"
	"boolcube/internal/simnet"
)

// This file is the scheduler's differential suite. The engine has one
// scheduler (shard.go); its contract is that the worker count P moves host
// time only. Every row of the table below runs randomized node programs
// under the linear-scan oracle (oracle_test.go) and under the engine at
// P ∈ {1, 2, 4, GOMAXPROCS} and demands the same virtual-time trace, Stats,
// link loads, error and program-written state: per node, the step and the
// clock after every completed operation. Serial-mode rows (a tracer,
// faults or a deadline) run on one worker whatever P asks; plain rows shard.

type eventLog struct {
	events []fabric.TraceEvent
}

func (l *eventLog) Record(ev fabric.TraceEvent) { l.events = append(l.events, ev) }

// A schedStep is one synchronous phase of the randomized symmetric program.
// Every node executes the same step kinds in the same order (with payload
// sizes varying by node id), so the program is deadlock-free by
// construction: matching sends and receives always pair up.
type schedStep struct {
	kind  int // 0 exchange, 1 multi-send + RecvAny, 2 copy, 3 advance, 4 empty exchange, 5 mixed multi-send + RecvAny
	dim   int
	dims  []int
	bytes int
	dt    float64
}

// genScript draws a script from the step kinds given. Kinds 4 and 5 send
// empty messages, which take zero virtual time: the receive becomes
// executable at the very instant of the send, so (time, node id) alone no
// longer says which operation serial execution reaches first.
func genScript(rng *rand.Rand, n, steps int, kinds []int) []schedStep {
	script := make([]schedStep, steps)
	for i := range script {
		s := &script[i]
		s.kind = kinds[rng.Intn(len(kinds))]
		switch s.kind {
		case 0, 4:
			s.dim = rng.Intn(n)
		case 1, 5:
			// A random non-empty dimension subset; every node sends on each
			// and drains the same count with RecvAny.
			for d := 0; d < n; d++ {
				if rng.Intn(2) == 1 {
					s.dims = append(s.dims, d)
				}
			}
			if len(s.dims) == 0 {
				s.dims = []int{rng.Intn(n)}
			}
		case 2:
			s.bytes = 8 * (1 + rng.Intn(64))
		case 3:
			s.dt = float64(1+rng.Intn(50)) / 2
		}
	}
	return script
}

// outcome is everything one run exposes: what the engine reports, and what
// the node programs wrote themselves.
type outcome struct {
	events   []fabric.TraceEvent
	stats    fabric.Stats
	loads    []fabric.LinkLoad
	err      string
	progress [][]opMark // per node: every completed operation
}

// opMark is one completed operation in a node's progress log.
type opMark struct {
	step  int     // script step
	clock float64 // the node's clock after the operation
}

// scenario is one randomized run: a script on an n-cube, plus what is
// installed on the engine besides the program.
type scenario struct {
	n        int
	params   machine.Params
	script   []schedStep
	trace    bool
	faults   *fault.Plan
	deadline float64 // virtual-time budget, 0 = none
}

// oracle, passed as a shard count, selects the linear-scan oracle instead of
// the engine.
const oracle = -1

// run executes the scenario under the oracle or under the engine with
// SetShards(shards); 0 leaves the automatic policy.
func (sc *scenario) run(t *testing.T, shards int) outcome {
	t.Helper()
	e, err := simnet.New(sc.n, sc.params)
	if err != nil {
		t.Fatal(err)
	}
	log := &eventLog{}
	if sc.trace {
		e.SetTracer(log)
	}
	if sc.deadline > 0 {
		e.SetDeadline(sc.deadline)
	}
	if sc.faults != nil {
		e.SetFaults(sc.faults, fabric.RetryPolicy{Attempts: 12})
	}
	progress := make([][]opMark, 1<<uint(sc.n))
	script := sc.script
	prog := func(nd fabric.Node) {
		id := int(nd.ID())
		for si := range script {
			s := &script[si]
			mark := func() { progress[id] = append(progress[id], opMark{si, nd.Clock()}) }
			switch s.kind {
			case 0:
				sz := 1 + (id*7+si*3)%29
				nd.Send(s.dim, fabric.Msg{Data: nd.AllocData(sz)})
				mark()
				nd.Recycle(nd.Recv(s.dim))
				mark()
			case 1, 5:
				for _, d := range s.dims {
					sz := 1 + (id+5*d+si)%17
					if s.kind == 5 && (id+d+si)%2 == 0 {
						sz = 0 // about half the messages are empty
					}
					nd.Send(d, fabric.Msg{Data: nd.AllocData(sz)})
					mark()
				}
				for range s.dims {
					nd.Recycle(nd.RecvAny())
					mark()
				}
			case 2:
				nd.Copy(s.bytes + 8*(id%3))
				mark()
			case 3:
				nd.Advance(s.dt)
				mark()
			case 4:
				nd.Send(s.dim, fabric.Msg{})
				mark()
				nd.Recv(s.dim)
				mark()
			}
		}
	}
	var runErr error
	if shards == oracle {
		runErr = e.RunOracle(prog)
	} else {
		e.SetShards(shards)
		runErr = e.Run(prog)
	}
	out := outcome{events: log.events, stats: e.Stats(), loads: e.LinkLoads(), progress: progress}
	if runErr != nil {
		out.err = runErr.Error()
	}
	return out
}

// checkEquivalent holds got to the oracle's outcome.
func checkEquivalent(t *testing.T, ref, got outcome) {
	t.Helper()
	if ref.err != got.err {
		t.Fatalf("errors differ:\n  oracle: %q\n  engine: %q", ref.err, got.err)
	}
	if !reflect.DeepEqual(ref.stats, got.stats) {
		t.Fatalf("stats differ:\n  oracle: %+v\n  engine: %+v", ref.stats, got.stats)
	}
	if !slices.Equal(ref.loads, got.loads) {
		t.Fatalf("link loads differ (%d vs %d entries)", len(ref.loads), len(got.loads))
	}
	if len(ref.events) != len(got.events) {
		t.Fatalf("trace lengths differ: oracle %d, engine %d", len(ref.events), len(got.events))
	}
	for i := range ref.events {
		if ref.events[i] != got.events[i] {
			t.Fatalf("trace event %d differs:\n  oracle: %+v\n  engine: %+v",
				i, ref.events[i], got.events[i])
		}
	}
	for id := range ref.progress {
		if !slices.Equal(ref.progress[id], got.progress[id]) {
			t.Fatalf("node %d progress differs: %d operations, the oracle %d (a node program ran past the abort point, or an operation's clock moved)",
				id, len(got.progress[id]), len(ref.progress[id]))
		}
	}
}

// shardCounts returns the worker counts the suite sweeps.
func shardCounts() []int {
	counts := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 2 && p != 4 {
		counts = append(counts, p)
	}
	return counts
}

// withAuto is shardCounts() plus the automatic policy.
var withAuto = append([]int{0}, shardCounts()...)

// diffMode is what a row installs on the engine besides the script.
type diffMode int

const (
	plain    diffMode = iota // nothing: fast mode, shards at P > 1
	traced                   // a tracer: serial mode, run completes
	faulted                  // flaky links (drops, retries) or links down from t=0 (abort)
	killed                   // links killed mid-run: abort with work in flight
	deadline                 // a mid-run deadline: abort with work in flight
	crashed                  // nodes crash-stopped mid-run: detection at quiesce
)

type namedMachine struct {
	name   string
	params machine.Params
}

var (
	onePort = namedMachine{"one-port", machine.IPSC()}
	nPort   = namedMachine{"n-port", machine.IPSCNPort()}
	cm      = namedMachine{"cm-pipelined", machine.ConnectionMachine()}
	// Free communication: every transmission takes zero virtual time, so the
	// cost model gives the scheduler no lookahead and no epoch to run.
	zeroLookahead = namedMachine{"ideal-zero", func() machine.Params {
		m := machine.Ideal(machine.OnePort)
		m.Tau, m.Tc = 0, 0
		return m
	}()}
)

// diffRow is one row of the differential table: a mode crossed with
// machines, randomized cases and worker counts. Subtests are named
// [machine/]<unit><id>/P<p>; with a single machine the machine level is
// omitted.
type diffRow struct {
	mode     diffMode
	kinds    []int          // the step kinds scripts draw from; nil: nonempty
	machines []namedMachine // nil: one-port iPSC
	ids      []int          // case ids; the rng seed is salt + id
	unit     string         // subtest prefix of a case, "seed" when empty
	salt     int64
	procs    []int // nil: shardCounts(); 0 is the automatic policy
	scan     bool  // no random script: the case id is a cube size, the script two high-to-low dimension scans
}

func upTo(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i + 1
	}
	return ids
}

// Step kinds a row's scripts draw from (see schedStep).
var (
	nonempty = []int{0, 1, 2, 3}
	empties  = []int{0, 1, 2, 3, 4}
	// On one worker fast mode runs a RecvAny eagerly, before an empty
	// arrival still in flight at its action time lands — a known gap, not a
	// sharding one. Fast-mode rows with empty messages therefore draw no
	// RecvAny; serial-mode rows also draw kind 5, a RecvAny that drains
	// empty and nonempty messages.
	emptiesNoAny = []int{0, 2, 3, 4}
	emptiesAny   = []int{0, 1, 2, 3, 4, 5}
)

// differential is the table, keyed by the top-level test that runs the row
// (go test needs one function per name; see the one-liners below).
var differential = map[string]diffRow{
	// Empty messages, which cross shards inside the epoch that sends them
	// (plain rows; the others run on one worker whatever P asks): the
	// default configuration (SetShards never called) and every forced worker
	// count.
	"TestSchedulerEquivalenceProperty": {mode: traced, kinds: empties, machines: []namedMachine{onePort, nPort}, ids: upTo(12), salt: 0, procs: withAuto},
	"TestSchedulerEquivalenceFaulted":  {mode: faulted, kinds: empties, ids: upTo(8), salt: 100, procs: withAuto},
	"TestShardInvarianceEmptiesFast":   {mode: plain, kinds: emptiesNoAny, machines: []namedMachine{onePort, nPort, cm}, ids: upTo(10), salt: 1500},
	"TestShardInvarianceEmptiesAny":    {mode: traced, kinds: emptiesAny, machines: []namedMachine{onePort, nPort, cm}, ids: upTo(12), salt: 1700},
	// Forced worker counts.
	"TestShardInvarianceProperty":                   {mode: traced, machines: []namedMachine{onePort, nPort, cm}, ids: upTo(10), salt: 200},
	"TestShardInvarianceFast":                       {mode: plain, machines: []namedMachine{nPort}, ids: upTo(8), salt: 300},
	"TestShardInvarianceFaulted":                    {mode: faulted, ids: upTo(8), salt: 500},
	"TestShardInvarianceLinkKill":                   {mode: killed, ids: upTo(8), salt: 700},
	"TestShardInvarianceDeadline":                   {mode: deadline, ids: upTo(6), salt: 900},
	"TestCrashDeterminismAcrossSchedulersAndShards": {mode: crashed, ids: []int{0, 1, 2}, unit: "spec", salt: 1100},
	// Every link carries two messages a pass apart (payload sizes differ per
	// step), each through a queue buffer that has been round the free list
	// in between: per-link FIFO order and recycling at a size where buffers
	// change hands thousands of times, in serial mode and — sharded, with
	// eager execution — in fast mode.
	"TestShardInvarianceScanTraced": {mode: traced, machines: []namedMachine{cm}, ids: []int{10}, unit: "cube", scan: true},
	"TestShardInvarianceScanFast":   {mode: plain, machines: []namedMachine{cm}, ids: []int{10}, unit: "cube", scan: true},
	// Four workers asked for, one used: without lookahead only serial order
	// is safe, in fast mode too.
	"TestZeroLookaheadMatchesOracle":     {mode: traced, machines: []namedMachine{zeroLookahead}, ids: upTo(6), salt: 1300, procs: []int{4}},
	"TestZeroLookaheadFastMatchesOracle": {mode: plain, machines: []namedMachine{zeroLookahead}, ids: upTo(6), salt: 1300, procs: []int{4}},
}

func TestSchedulerEquivalenceProperty(t *testing.T) { runDifferential(t) }
func TestShardInvarianceEmptiesFast(t *testing.T)   { runDifferential(t) }
func TestShardInvarianceEmptiesAny(t *testing.T)    { runDifferential(t) }
func TestSchedulerEquivalenceFaulted(t *testing.T)  { runDifferential(t) }
func TestShardInvarianceProperty(t *testing.T)      { runDifferential(t) }
func TestShardInvarianceFast(t *testing.T)          { runDifferential(t) }
func TestShardInvarianceFaulted(t *testing.T)       { runDifferential(t) }
func TestShardInvarianceDeadline(t *testing.T)      { runDifferential(t) }
func TestShardInvarianceScanTraced(t *testing.T)    { runDifferential(t) }
func TestShardInvarianceScanFast(t *testing.T)      { runDifferential(t) }

// TestShardInvarianceLinkKill is the property behind serial mode's three
// rules — nothing executes eagerly, the epoch stops at its first failure,
// and the run never shards: with any of them off, Stats, the trace or a
// node's progress log part from the oracle's when the killed link aborts
// the run (at P = 1 already for the first two).
func TestShardInvarianceLinkKill(t *testing.T) { runDifferential(t) }

func TestCrashDeterminismAcrossSchedulersAndShards(t *testing.T) { runDifferential(t) }
func TestZeroLookaheadMatchesOracle(t *testing.T)                { runDifferential(t) }
func TestZeroLookaheadFastMatchesOracle(t *testing.T)            { runDifferential(t) }

// TestZeroCubeMatchesOracle: a 0-cube has one node, no links and nothing to
// partition; its copies and clock advances still go through the scheduler.
func TestZeroCubeMatchesOracle(t *testing.T) {
	sc := &scenario{n: 0, params: machine.IPSC(), trace: true,
		script: []schedStep{{kind: 2, bytes: 64}, {kind: 3, dt: 2.5}, {kind: 2, bytes: 8}}}
	ref := sc.run(t, oracle)
	if len(ref.events) != len(sc.script) || ref.err != "" {
		t.Fatalf("oracle traced %d events (err %q), want %d", len(ref.events), ref.err, len(sc.script))
	}
	for _, p := range []int{0, 4} {
		checkEquivalent(t, ref, sc.run(t, p))
	}
}

// newScenario draws one case of a mode. The mid-run modes place their event
// at a random fraction of the script's fault-free makespan.
func newScenario(t *testing.T, rng *rand.Rand, id int, row diffRow, params machine.Params) *scenario {
	t.Helper()
	mode := row.mode
	if row.scan {
		sc := &scenario{n: id, params: params, trace: mode != plain}
		for pass := 0; pass < 2; pass++ {
			for d := id - 1; d >= 0; d-- {
				sc.script = append(sc.script, schedStep{kind: 0, dim: d})
			}
		}
		return sc
	}
	n := 2 + rng.Intn(4) // 4 to 32 nodes
	kinds := row.kinds
	if kinds == nil {
		kinds = nonempty
	}
	sc := &scenario{n: n, params: params, script: genScript(rng, n, 6+rng.Intn(20), kinds), trace: mode != plain}
	var spec fault.Spec
	switch mode {
	case plain, traced:
		return sc
	case faulted:
		spec = fault.FlakyLink(uint64(rng.Intn(1<<n)), rng.Intn(n), 0.4)
		if rng.Intn(3) == 0 {
			spec = fault.RandomLinkFailures(rng.Int63(), 1+rng.Intn(2))
		}
	default:
		cut := sc.run(t, oracle).stats.Time * (0.2 + 0.6*rng.Float64())
		switch mode {
		case killed:
			spec = fault.Spec{Seed: rng.Int63(), Rules: []fault.Rule{
				{Kind: fault.RandomLinks, Count: 1 + rng.Intn(4), Start: cut}}}
		case deadline:
			sc.deadline = cut
			return sc
		case crashed:
			spec = fault.RandomNodeCrashes(rng.Int63(), 1+rng.Intn(2), cut)
		}
	}
	fp, err := fault.Compile(spec, n)
	if err != nil {
		t.Fatal(err)
	}
	sc.faults = fp
	return sc
}

func runDifferential(t *testing.T) {
	row, ok := differential[t.Name()]
	if !ok {
		t.Fatalf("no row in the differential table for %s", t.Name())
	}
	if row.scan && testing.Short() {
		t.Skip("the O(N)-per-step oracle on a 1024-node scan takes ~10 s per row under the race detector")
	}
	machines, procs, unit := row.machines, row.procs, row.unit
	if machines == nil {
		machines = []namedMachine{onePort}
	}
	if procs == nil {
		procs = shardCounts()
	}
	if unit == "" {
		unit = "seed"
	}
	aborted := 0
	for _, m := range machines {
		cases := func(t *testing.T) {
			for _, id := range row.ids {
				t.Run(fmt.Sprintf("%s%d", unit, id), func(t *testing.T) {
					sc := newScenario(t, rand.New(rand.NewSource(row.salt+int64(id))), id, row, m.params)
					ref := sc.run(t, oracle)
					if sc.trace && len(ref.events) == 0 {
						t.Fatal("empty trace; property vacuous")
					}
					if ref.err != "" {
						aborted++
					}
					for _, p := range procs {
						name := fmt.Sprintf("P%d", p)
						if p == 0 {
							name = "auto"
						}
						t.Run(name, func(t *testing.T) {
							checkEquivalent(t, ref, sc.run(t, p))
						})
					}
				})
			}
		}
		if len(machines) > 1 {
			t.Run(m.name, cases)
		} else {
			cases(t)
		}
	}
	if row.mode >= killed && aborted == 0 {
		t.Fatalf("no case aborted; the abort-path property is vacuous")
	}
}

// errorAcrossShards runs prog on an n-cube under the oracle and every worker
// count and demands one error text.
func errorAcrossShards(t *testing.T, n int, prog func(fabric.Node)) string {
	t.Helper()
	run := func(p int) string {
		e, err := simnet.New(n, machine.IPSC())
		if err != nil {
			t.Fatal(err)
		}
		if p == oracle {
			err = e.RunOracle(prog)
		} else {
			e.SetShards(p)
			err = e.Run(prog)
		}
		if err == nil {
			t.Fatalf("P=%d: want an error", p)
		}
		return err.Error()
	}
	ref := run(oracle)
	for _, p := range append([]int{0}, shardCounts()...) {
		if got := run(p); got != ref {
			t.Errorf("P=%d error differs:\n  oracle: %s\n  engine: %s", p, ref, got)
		}
	}
	return ref
}

// TestShardDeadlockReported pins the deadlock diagnostic across shard counts.
func TestShardDeadlockReported(t *testing.T) {
	ref := errorAcrossShards(t, 2, func(nd fabric.Node) {
		if nd.ID() == 0 {
			nd.Send(0, fabric.Msg{Data: []float64{1}})
		}
		if nd.ID() != 1 {
			nd.Recv(0) // nodes 2, 3 wait forever
		}
	})
	if !strings.Contains(ref, "deadlock") {
		t.Fatalf("unexpected oracle error: %v", ref)
	}
}

// TestShardProgramPanic pins program-panic unwinding across shard counts.
func TestShardProgramPanic(t *testing.T) {
	errorAcrossShards(t, 2, func(nd fabric.Node) {
		for d := 0; d < nd.Dims(); d++ {
			nd.Exchange(d, fabric.Msg{Data: []float64{1}})
		}
		if nd.ID() == 3 {
			panic("boom")
		}
	})
}

// scanStats runs one high-to-low dimension scan of exchanges on an n-cube
// and returns its Stats and the worker count node 0 saw as it started.
func scanStats(t *testing.T, n, elems, shards int, params machine.Params) (fabric.Stats, int) {
	t.Helper()
	e, err := simnet.New(n, params)
	if err != nil {
		t.Fatal(err)
	}
	e.SetShards(shards)
	workers := 0
	err = e.Run(func(nd fabric.Node) {
		if nd.ID() == 0 {
			workers = nd.(*simnet.Node).Workers()
		}
		for d := nd.Dims() - 1; d >= 0; d-- {
			m := nd.Exchange(d, fabric.Msg{Data: nd.AllocData(elems)})
			nd.Recycle(m)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return e.Stats(), workers
}

// autoWorkers is what the automatic policy gives an engine of 2^n nodes
// in fast mode when no other engine runs.
func autoWorkers(n int) int {
	if 1<<uint(n) < simnet.AutoShardNodes || runtime.GOMAXPROCS(0) < 2 {
		return 1
	}
	return min(runtime.GOMAXPROCS(0), 16, 1<<uint(n))
}

// TestShardAutoEquivalence checks the SetShards(0) policy boundary: a cube
// just below, at and above autoShardNodes runs on one worker below it and on
// every CPU from it on, and agrees with one worker on Stats. Outside -short
// an 11-cube does too.
func TestShardAutoEquivalence(t *testing.T) {
	sizes := []int{6, 7, 8}
	if !testing.Short() {
		sizes = append(sizes, 11)
	}
	if 1<<6 >= simnet.AutoShardNodes || 1<<7 != simnet.AutoShardNodes {
		t.Fatalf("sizes 6, 7, 8 no longer straddle autoShardNodes = %d", simnet.AutoShardNodes)
	}
	for _, n := range sizes {
		one, _ := scanStats(t, n, 4, 1, machine.IPSCNPort())
		auto, workers := scanStats(t, n, 4, 0, machine.IPSCNPort())
		if one != auto {
			t.Errorf("auto-sharded %d-cube diverged:\n  P=1:  %+v\n  auto: %+v", n, one, auto)
		}
		if want := autoWorkers(n); workers != want {
			t.Errorf("%d-cube: the automatic policy ran %d workers, want %d", n, workers, want)
		}
	}
}

// TestShardRecvAnyFallsBackToOneWorker: a sharded fast-mode run stops at its
// first RecvAny and goes on on one worker; a serial-mode run (traced,
// faulted or with a deadline) runs on one worker throughout, asked for four
// or left to the automatic policy. Each lands where the oracle does. Every
// node first exchanges empty and nonempty messages on every dimension, then
// drains two messages, one of them empty, with RecvAny.
func TestShardRecvAnyFallsBackToOneWorker(t *testing.T) {
	const n = 7 // autoShardNodes: the automatic policy shards a plain run
	for _, mode := range []string{"plain", "traced", "faulted", "deadline"} {
		type result struct {
			stats         fabric.Stats
			events        []fabric.TraceEvent
			before, after []int
			err           string
		}
		run := func(p int) result {
			e, err := simnet.New(n, machine.IPSC())
			if err != nil {
				t.Fatal(err)
			}
			log := &eventLog{}
			switch mode {
			case "traced":
				e.SetTracer(log)
			case "faulted":
				e.SetFaults(fault.MustCompile(fault.FlakyLink(3, 1, 0.4), n), fabric.RetryPolicy{Attempts: 12})
			case "deadline":
				e.SetDeadline(1e12)
			}
			r := result{before: make([]int, 1<<n), after: make([]int, 1<<n)}
			prog := func(nd fabric.Node) {
				id := int(nd.ID())
				for d := range nd.Dims() {
					nd.Recycle(nd.Exchange(d, fabric.Msg{Data: nd.AllocData((id + d) % 3)}))
				}
				r.before[id] = nd.(*simnet.Node).Workers()
				nd.Send(0, fabric.Msg{})
				nd.Send(1, fabric.Msg{Data: nd.AllocData(1 + id%2)})
				nd.Recycle(nd.RecvAny())
				nd.Recycle(nd.RecvAny())
				r.after[id] = nd.(*simnet.Node).Workers()
			}
			if p == oracle {
				err = e.RunOracle(prog)
			} else {
				e.SetShards(p)
				err = e.Run(prog)
			}
			if err != nil {
				r.err = err.Error()
			}
			r.stats, r.events = e.Stats(), log.events
			return r
		}
		ref := run(oracle)
		for _, p := range []int{1, 4, 0} {
			got := run(p)
			if got.err != ref.err || got.stats != ref.stats || !slices.Equal(got.events, ref.events) {
				t.Errorf("%s P%d diverges from the oracle:\n  oracle: %q %+v\n  engine: %q %+v",
					mode, p, ref.err, ref.stats, got.err, got.stats)
			}
			want := 1
			if mode == "plain" && p == 4 {
				want = 4
			} else if mode == "plain" && p == 0 {
				want = autoWorkers(n)
			}
			if slices.Max(got.before) != want || slices.Max(got.after) != 1 {
				t.Errorf("%s P%d: workers before the first RecvAny %d, after it %d; want %d and 1",
					mode, p, slices.Max(got.before), slices.Max(got.after), want)
			}
		}
	}
}

// TestShardAutoSharesCPUs: the automatic policy takes only CPUs no other
// running engine holds. With GOMAXPROCS = 4, an engine that holds every CPU
// leaves a second one a single worker, and an engine that holds one leaves
// the second three.
func TestShardAutoSharesCPUs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 8
	for _, tc := range []struct{ first, wantFirst, wantSecond int }{
		{first: 0, wantFirst: 4, wantSecond: 1},
		{first: 1, wantFirst: 1, wantSecond: 3},
	} {
		if h := simnet.HeldWorkers(); h != 0 {
			t.Fatalf("%d workers held before any engine runs", h)
		}
		a, err := simnet.New(n, machine.IPSC())
		if err != nil {
			t.Fatal(err)
		}
		a.SetShards(tc.first)
		started, release, done := make(chan int), make(chan struct{}), make(chan error)
		go func() {
			done <- a.Run(func(nd fabric.Node) {
				if nd.ID() == 0 {
					started <- nd.(*simnet.Node).Workers()
					<-release
				}
				nd.Exchange(0, fabric.Msg{Data: []float64{1}})
			})
		}()
		first := <-started
		_, second := scanStats(t, n, 1, 0, machine.IPSC())
		held := simnet.HeldWorkers()
		close(release)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if first != tc.wantFirst || second != tc.wantSecond {
			t.Errorf("first engine (SetShards(%d)) ran %d workers, the second %d; want %d and %d",
				tc.first, first, second, tc.wantFirst, tc.wantSecond)
		}
		if held != first {
			t.Errorf("with the first engine running alone, %d workers are held; want %d", held, first)
		}
		if first+second > 4 && second != 1 {
			t.Errorf("two engines hold %d + %d workers on 4 CPUs", first, second)
		}
	}
}

// TestCube12ShardedSmoke is the 12-cube scale smoke for check.sh: a full
// dimension-scan all-to-all on 4096 nodes, one worker versus the automatic
// count, byte-identical Stats. Skipped under -short so the race-detector
// suite stays within its timeout; scripts/check.sh runs it explicitly.
func TestCube12ShardedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("12-cube smoke skipped in -short mode (run by check.sh explicitly)")
	}
	one, _ := scanStats(t, 12, 8, 1, machine.ConnectionMachine())
	if auto, _ := scanStats(t, 12, 8, 0, machine.ConnectionMachine()); one != auto {
		t.Fatalf("12-cube sharded run diverged:\n  P=1:  %+v\n  auto: %+v", one, auto)
	}
	if one.Sends != int64(4096*12*1) {
		t.Fatalf("unexpected send count %d", one.Sends)
	}
}
