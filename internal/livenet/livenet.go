// Package livenet is a live transport backend for the Boolean n-cube: every
// node of the cube is a real goroutine, and messages move between them over
// per-link FIFO queues under wall-clock time. It implements the same
// fabric.Fabric / fabric.Node contract as the deterministic simulation
// (internal/simnet) and runs the identical node programs — the compiled
// plans, comm builders and router are backend-neutral — so a transpose
// executed here produces element-identical destination arrays and equal
// logical statistics (Stats.Logical) to a simnet run of the same plan.
//
// What livenet keeps from the port model: admission. A node may have at
// most one transmission in flight per send port (one port total on a
// one-port machine, one per dimension with n-port communication), and at
// most one frame at a time occupies a directed link. Both rules are
// enforced by real cap-1 semaphores rather than virtual-time bookkeeping,
// so the port discipline the paper's algorithms are designed around is
// exercised as actual concurrency control.
//
// What livenet does not promise: virtual time. Clocks are wall-clock
// microseconds since Run; Stats.Time is real elapsed time; the
// timing-derived fields (Time, CopyTime, MaxLinkBusy) are not comparable
// against the simulation — which is exactly the split Stats.Logical
// formalizes. Fault injection is honored: attempt-indexed drops (the
// fault.Flaky family) behave identically to simnet because each directed
// link has a single sender issuing a deterministic attempt sequence, while
// time-window link-down faults are interpreted against the wall clock and
// therefore depend on real scheduling (Capabilities.TimedFaultWindows is
// false).
//
// Delivery is audited at the transport layer: a message carrying a
// whole-payload checksum (Msg.Sum != 0) is re-summed on receive and a
// mismatch aborts the run with a typed *fabric.AuditError — in addition to
// the reassembly-point audits the shared algorithm layers always perform.
package livenet

import (
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"boolcube/internal/fabric"
	"boolcube/internal/machine"
)

// init registers the live transport under the name "livenet".
func init() {
	fabric.Register("livenet", func(n int, params machine.Params) (fabric.Fabric, error) {
		return New(n, params)
	}, liveCaps)
}

// liveCaps is what the live transport promises: a wall clock, no
// determinism (serial or parallel) — and, like every backend, real fault
// injection, tracing and crash-stop kills with heartbeat detection.
var liveCaps = fabric.Capabilities{VirtualTime: false}

// errPoisoned unwinds node goroutines after the engine has aborted.
var errPoisoned = fmt.Errorf("livenet: engine poisoned")

// arrival is one delivered message with its global arrival stamp (RecvAny
// returns the lowest stamp among the queue fronts, the live analogue of
// simnet's earliest-arrival rule).
type arrival struct {
	msg fabric.Msg
	seq int64
}

// Engine runs one cube of goroutine nodes. Create with New, run programs
// with Run; engines are one-shot.
type Engine struct {
	n, nodesCount int
	params        machine.Params

	nodes []*Node

	faults   fabric.FaultModel
	retry    fabric.RetryPolicy
	deadline float64 // wall-clock budget in µs; +Inf when unset
	sup      Params  // supervision: stall window, suspicion timeout (params.go)

	// Crash-stop schedule (crash.go); nil unless the fault model implements
	// fabric.CrashModel with at least one scheduled kill.
	crashModel fabric.CrashModel

	tracer   fabric.Tracer
	tracerMu sync.Mutex

	started bool
	debug   bool
	t0      time.Time

	// Abort protocol: the first failure (node abort, deadline, stall) sets
	// aborted and closes abortCh; every blocked or sleeping node wakes,
	// observes the flag and unwinds with the poison sentinel.
	aborted  atomic.Bool
	abortCh  chan struct{}
	abortOne sync.Once
	engErr   error // engine-level abort cause (deadline, stall)

	// progress counts completed node operations; the stall watchdog samples
	// it to distinguish a slow run from a deadlocked one.
	progress atomic.Int64

	// Global arrival sequence, shared by all senders.
	seq atomic.Int64

	// Logical statistics (atomic: all nodes charge concurrently).
	sends, bytes, startups  atomic.Int64
	copyBytes               atomic.Int64
	retries, drops, faulted atomic.Int64
	elapsed                 float64 // wall µs of the finished Run

	// Per-directed-link state, dense-indexed by from*n+dim. Each directed
	// link has exactly one sender (node "from" on its own goroutine), so
	// bytes/used/attempts are single-writer and need no atomics; linkSem is
	// the cap-1 admission semaphore serializing the wire itself.
	linkBytes    []int64
	linkUsed     []bool
	linkAttempts []int64
	linkSem      []chan struct{}
}

// New returns a live engine for an n-dimensional cube under the given
// machine model. The model's port discipline is enforced; its timing
// parameters only shape the logical start-up counts.
func New(n int, params machine.Params) (*Engine, error) {
	if n < 0 || n > 20 {
		return nil, fmt.Errorf("livenet: cube dimension %d out of range [0,20]", n)
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	nodes := 1 << uint(n)
	e := &Engine{
		n:            n,
		nodesCount:   nodes,
		params:       params,
		deadline:     math.Inf(1),
		debug:        os.Getenv("SIMNET_DEBUG") != "",
		linkBytes:    make([]int64, nodes*n),
		linkUsed:     make([]bool, nodes*n),
		linkAttempts: make([]int64, nodes*n),
		linkSem:      make([]chan struct{}, nodes*n),
		abortCh:      make(chan struct{}),
		sup:          Params{}.withDefaults(),
	}
	for i := range e.linkSem {
		e.linkSem[i] = make(chan struct{}, 1)
	}
	return e, nil
}

// Dims returns the cube dimension n.
func (e *Engine) Dims() int { return e.n }

// Nodes returns the node count N = 2^n.
func (e *Engine) Nodes() int { return e.nodesCount }

// Params returns the machine model in force.
func (e *Engine) Params() machine.Params { return e.params }

// Capabilities declares what this backend promises.
func (e *Engine) Capabilities() fabric.Capabilities { return liveCaps }

// DebugChecks reports whether SIMNET_DEBUG-level verification (element
// address tags) is active; livenet honors the same environment switch as
// the simulation so the debug suites exercise both backends.
func (e *Engine) DebugChecks() bool { return e.debug }

// SetTracer installs a tracer for the next Run (nil disables). Events are
// reported in completion order under a lock — concurrent nodes trace
// concurrently, so unlike simnet the order varies run to run.
func (e *Engine) SetTracer(t fabric.Tracer) { e.tracer = t }

// SetFaults installs a fault model and retry policy for the next Run (nil
// disables injection). Zero RetryPolicy fields default to 3 attempts with
// the machine's τ as backoff, exactly as on the simulation. Attempt-indexed
// drops replay deterministically (one sender per directed link); LinkState
// windows are evaluated against the wall clock.
func (e *Engine) SetFaults(f fabric.FaultModel, rp fabric.RetryPolicy) {
	e.faults = f
	e.retry = rp.WithDefaults(e.params.Tau)
	e.crashModel = nil
	if cm, ok := f.(fabric.CrashModel); ok && len(cm.CrashedNodes()) > 0 {
		e.crashModel = cm
	}
}

// SetDeadline bounds the next Run to t µs of wall-clock time; t <= 0
// disables. A deadline abort unwinds every node and Run returns a typed
// *fabric.DeadlineError, resumable exactly like a simnet deadline hit.
func (e *Engine) SetDeadline(t float64) {
	if t <= 0 {
		t = math.Inf(1)
	}
	e.deadline = t
}

// Stats returns the statistics of the last Run. Time is wall-clock µs; the
// logical counters (Sends, Bytes, Startups, CopyBytes, MaxLinkBytes and
// the fault degradation counters) are exact and agree with a simnet run of
// the same program; CopyTime and MaxLinkBusy are 0 — livenet has no
// virtual occupancy model (both are stripped by Stats.Logical).
func (e *Engine) Stats() fabric.Stats {
	s := fabric.Stats{
		Time:         e.elapsed,
		Startups:     e.startups.Load(),
		Sends:        e.sends.Load(),
		Bytes:        e.bytes.Load(),
		CopyBytes:    e.copyBytes.Load(),
		Retries:      e.retries.Load(),
		Drops:        e.drops.Load(),
		FaultedSends: e.faulted.Load(),
	}
	for _, b := range e.linkBytes {
		if b > s.MaxLinkBytes {
			s.MaxLinkBytes = b
		}
	}
	return s
}

// LinkLoads returns the per-directed-link traffic of the last Run, sorted
// by (From, Dim); links that carried no traffic are omitted. Busy is 0:
// there is no virtual occupancy clock.
func (e *Engine) LinkLoads() []fabric.LinkLoad {
	var out []fabric.LinkLoad
	for li, used := range e.linkUsed {
		if !used {
			continue
		}
		out = append(out, fabric.LinkLoad{
			From:  uint64(li / e.n),
			Dim:   li % e.n,
			Bytes: e.linkBytes[li],
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].Dim < out[j].Dim
	})
	return out
}

func (e *Engine) trace(ev fabric.TraceEvent) {
	if e.tracer == nil {
		return
	}
	e.tracerMu.Lock()
	e.tracer.Record(ev)
	e.tracerMu.Unlock()
}

// now returns wall-clock µs since Run started.
func (e *Engine) now() float64 {
	return float64(time.Since(e.t0)) / float64(time.Microsecond)
}

// ports returns the number of send ports per node under the machine model.
func (e *Engine) ports() int {
	if e.params.Ports == machine.NPort {
		return max(e.n, 1)
	}
	return 1
}

func (e *Engine) portIndex(dim int) int {
	if e.params.Ports == machine.NPort {
		return dim
	}
	return 0
}

// linkIndex densely indexes the directed link (from, dim).
func (e *Engine) linkIndex(from uint64, dim int) int {
	return int(from)*e.n + dim
}

// abort records the first engine-level failure cause and wakes every
// blocked or sleeping node; subsequent calls are no-ops. A nil cause marks
// a node-program abort (the failure lives on the node).
func (e *Engine) abort(cause error) {
	e.abortOne.Do(func() {
		e.engErr = cause
		e.aborted.Store(true)
		close(e.abortCh)
		for _, nd := range e.nodes {
			nd.mu.Lock()
			nd.cond.Broadcast()
			nd.mu.Unlock()
		}
	})
}

// Run executes prog concurrently on every node until all programs return.
// It returns an error if any program panics, calls Fail, is defeated by
// fault injection, overruns the wall-clock deadline, or the system stalls
// (no node completes an operation for stallWindow while unfinished nodes
// remain — the live analogue of simnet's deadlock detection). Engines are
// one-shot, exactly like the simulation.
func (e *Engine) Run(prog func(fabric.Node)) error {
	if e.started {
		return fmt.Errorf("livenet: engine already ran; create a fresh engine (compose phases inside one program instead)")
	}
	e.started = true
	e.t0 = time.Now() //cubevet:ignore detbreak -- wall-clock backend: livenet's Capabilities declare VirtualTime false; elapsed time is the measurement, not a leak

	e.nodes = make([]*Node, e.nodesCount)
	for i := range e.nodes {
		nd := &Node{
			id:      uint64(i),
			eng:     e,
			queues:  make([][]arrival, max(e.n, 1)),
			sendSem: make([]chan struct{}, e.ports()),
			crashCh: make(chan struct{}),
		}
		nd.cond = sync.NewCond(&nd.mu)
		for p := range nd.sendSem {
			nd.sendSem[p] = make(chan struct{}, 1)
		}
		e.nodes[i] = nd
	}

	var wg sync.WaitGroup
	wg.Add(e.nodesCount)
	for _, nd := range e.nodes {
		go func(nd *Node) {
			defer func() {
				if r := recover(); r != nil && r != errPoisoned && r != errCrashed {
					if ab, ok := r.(*nodeAbort); ok {
						nd.failure = ab.err
					} else {
						nd.failure = fmt.Errorf("livenet: node %d panicked: %v", nd.id, r)
					}
					e.abort(nil)
				}
				wg.Done()
			}()
			prog(nd)
			nd.finished.Store(true)
		}(nd)
	}

	watchdogDone := make(chan struct{})
	go e.watchdog(watchdogDone)
	stopCrash := e.startCrashes(watchdogDone)
	wg.Wait()
	close(watchdogDone)
	stopCrash()
	e.elapsed = e.now()

	// Failure selection is deterministic given deterministic failures:
	// the lowest-id failed node wins; engine-level causes (node death,
	// deadline, stall) surface only when no node program failed first.
	for _, nd := range e.nodes {
		if nd.failure != nil {
			return nd.failure
		}
	}
	if e.engErr != nil {
		return e.engErr
	}
	// A kill can fire without wedging anyone (the survivors' programs never
	// needed the dead node again); the run still did not complete — the
	// dead node's own program is unfinished.
	return e.firedCrashError() // past wg.Wait: every node goroutine has already unwound
}

// watchdog enforces the wall-clock deadline and detects stalls. It samples
// the progress counter on a coarse tick; a full stall window (Params) with
// no completed operation aborts the run with a typed *StallError naming
// every blocked node.
func (e *Engine) watchdog(done chan struct{}) {
	var deadlineCh <-chan time.Time
	if !math.IsInf(e.deadline, 1) {
		t := time.NewTimer(time.Duration(e.deadline * float64(time.Microsecond)))
		defer t.Stop()
		deadlineCh = t.C
	}
	tick := time.NewTicker(e.sup.StallWindow / 4)
	defer tick.Stop()
	last, lastAt := e.progress.Load(), time.Now() //cubevet:ignore detbreak -- stall watchdog measures real elapsed time by design
	for {
		select {
		case <-done:
			return
		case <-deadlineCh:
			e.abort(&fabric.DeadlineError{Deadline: e.deadline, NextAt: e.now()})
			return
		case <-tick.C:
			if p := e.progress.Load(); p != last {
				last, lastAt = p, time.Now() //cubevet:ignore detbreak -- stall watchdog measures real elapsed time by design
				continue
			}
			if time.Since(lastAt) >= e.sup.StallWindow {
				e.abort(e.stallError())
				return
			}
		}
	}
}

// stallError reports every node still blocked on a receive, mirroring
// simnet's deadlock diagnosis, as a typed *StallError.
func (e *Engine) stallError() error {
	s := &StallError{Window: e.sup.StallWindow}
	for _, nd := range e.nodes { // ascending node id
		nd.mu.Lock()
		dim, waiting := nd.waitDim, nd.waiting
		nd.mu.Unlock()
		if waiting {
			s.Blocked = append(s.Blocked, BlockedNode{Node: nd.id, Dim: dim})
		}
	}
	return s
}
