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
// link loads and error. At P = 1 — and on any run that completes — it also
// demands the same program-written state: the per-node progress logs.

type eventLog struct {
	events []fabric.TraceEvent
}

func (l *eventLog) Record(ev fabric.TraceEvent) { l.events = append(l.events, ev) }

// A schedStep is one synchronous phase of the randomized symmetric program.
// Every node executes the same step kinds in the same order (with payload
// sizes varying by node id), so the program is deadlock-free by
// construction: matching sends and receives always pair up.
type schedStep struct {
	kind  int // 0 exchange, 1 multi-send + RecvAny, 2 copy, 3 advance, 4 empty exchange
	dim   int
	dims  []int
	bytes int
	dt    float64
}

// genScript draws a script. With empties it includes exchanges of empty
// messages, which take zero virtual time: the receive becomes executable at
// the very instant of the send, so (time, node id) alone no longer says
// which operation serial execution reaches first.
func genScript(rng *rand.Rand, n, steps int, empties bool) []schedStep {
	kinds := 4
	if empties {
		kinds = 5
	}
	script := make([]schedStep, steps)
	for i := range script {
		s := &script[i]
		s.kind = rng.Intn(kinds)
		switch s.kind {
		case 0, 4:
			s.dim = rng.Intn(n)
		case 1:
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
	progress [][]int // per node: the script step of every completed operation
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
	progress := make([][]int, 1<<uint(sc.n))
	script := sc.script
	prog := func(nd fabric.Node) {
		id := int(nd.ID())
		for si := range script {
			s := &script[si]
			mark := func() { progress[id] = append(progress[id], si) }
			switch s.kind {
			case 0:
				sz := 1 + (id*7+si*3)%29
				nd.Send(s.dim, fabric.Msg{Data: nd.AllocData(sz)})
				mark()
				nd.Recycle(nd.Recv(s.dim))
				mark()
			case 1:
				for _, d := range s.dims {
					sz := 1 + (id+5*d+si)%17
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

// checkEquivalent holds got to the oracle's outcome. programs adds the
// program-written state, which is exact at one worker in record mode and on
// every run that completes.
func checkEquivalent(t *testing.T, ref, got outcome, programs bool) {
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
	if !programs {
		return
	}
	for id := range ref.progress {
		if !slices.Equal(ref.progress[id], got.progress[id]) {
			t.Fatalf("node %d ran %d operations, the oracle %d: a node program ran past the canonical abort point",
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

// diffMode is what a row installs on the engine besides the script.
type diffMode int

const (
	plain    diffMode = iota // nothing: fast-mode accounting
	traced                   // a tracer: record mode, run completes
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
	empties  bool           // scripts exchange empty messages too; one worker only
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

// differential is the table, keyed by the top-level test that runs the row
// (go test needs one function per name; see the one-liners below).
var differential = map[string]diffRow{
	// The default configuration: SetShards never called. Below 2048 nodes
	// that is one worker, the only count that accepts a zero-duration
	// transmission between any two nodes.
	"TestSchedulerEquivalenceProperty": {mode: traced, empties: true, machines: []namedMachine{onePort, nPort}, ids: upTo(12), salt: 0, procs: []int{0}},
	"TestSchedulerEquivalenceFaulted":  {mode: faulted, empties: true, ids: upTo(8), salt: 100, procs: []int{0}},
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
	// change hands thousands of times, in record mode and — with eager
	// execution — in fast mode.
	"TestShardInvarianceScanTraced": {mode: traced, machines: []namedMachine{cm}, ids: []int{10}, unit: "cube", scan: true},
	"TestShardInvarianceScanFast":   {mode: plain, machines: []namedMachine{cm}, ids: []int{10}, unit: "cube", scan: true},
	// Four workers asked for, one used: without lookahead only serial order
	// is safe.
	"TestZeroLookaheadMatchesOracle": {mode: traced, machines: []namedMachine{zeroLookahead}, ids: upTo(6), salt: 1300, procs: []int{4}},
}

func TestSchedulerEquivalenceProperty(t *testing.T) { runDifferential(t) }
func TestSchedulerEquivalenceFaulted(t *testing.T)  { runDifferential(t) }
func TestShardInvarianceProperty(t *testing.T)      { runDifferential(t) }
func TestShardInvarianceFast(t *testing.T)          { runDifferential(t) }
func TestShardInvarianceFaulted(t *testing.T)       { runDifferential(t) }
func TestShardInvarianceDeadline(t *testing.T)      { runDifferential(t) }
func TestShardInvarianceScanTraced(t *testing.T)    { runDifferential(t) }
func TestShardInvarianceScanFast(t *testing.T)      { runDifferential(t) }

// TestShardInvarianceLinkKill is the property behind record mode's two rules
// — nothing executes eagerly, and a one-shard epoch stops at its first
// failure: with either rule off, some node's progress log at P = 1 runs past
// the oracle's when the killed link aborts the run.
func TestShardInvarianceLinkKill(t *testing.T) { runDifferential(t) }

func TestCrashDeterminismAcrossSchedulersAndShards(t *testing.T) { runDifferential(t) }
func TestZeroLookaheadMatchesOracle(t *testing.T)                { runDifferential(t) }

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
		checkEquivalent(t, ref, sc.run(t, p), true)
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
	sc := &scenario{n: n, params: params, script: genScript(rng, n, 6+rng.Intn(20), row.empties), trace: mode != plain}
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
							checkEquivalent(t, ref, sc.run(t, p), p <= 1 || ref.err == "")
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
// and returns its Stats.
func scanStats(t *testing.T, n, elems, shards int, params machine.Params) fabric.Stats {
	t.Helper()
	e, err := simnet.New(n, params)
	if err != nil {
		t.Fatal(err)
	}
	e.SetShards(shards)
	err = e.Run(func(nd fabric.Node) {
		for d := nd.Dims() - 1; d >= 0; d-- {
			m := nd.Exchange(d, fabric.Msg{Data: nd.AllocData(elems)})
			nd.Recycle(m)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return e.Stats()
}

// TestShardAutoEquivalence checks the SetShards(0) policy boundary: an
// 11-cube (2048 nodes) is the smallest size the automatic policy gives
// GOMAXPROCS workers, and its results agree with one worker.
func TestShardAutoEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("auto-shard equivalence is covered by the 12-cube smoke in check.sh")
	}
	one := scanStats(t, 11, 4, 1, machine.IPSCNPort())
	if auto := scanStats(t, 11, 4, 0, machine.IPSCNPort()); one != auto {
		t.Fatalf("auto-sharded 11-cube diverged:\n  P=1:  %+v\n  auto: %+v", one, auto)
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
	one := scanStats(t, 12, 8, 1, machine.ConnectionMachine())
	if auto := scanStats(t, 12, 8, 0, machine.ConnectionMachine()); one != auto {
		t.Fatalf("12-cube sharded run diverged:\n  P=1:  %+v\n  auto: %+v", one, auto)
	}
	if one.Sends != int64(4096*12*1) {
		t.Fatalf("unexpected send count %d", one.Sends)
	}
}
