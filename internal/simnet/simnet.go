// Package simnet is a deterministic discrete-event simulator of a Boolean
// n-cube message-passing multiprocessor, the substrate standing in for the
// paper's Intel iPSC and Connection Machine.
//
// Node programs are ordinary sequential Go functions run one per node. They
// communicate through Send/Recv/Exchange over cube links; every operation
// advances per-node virtual clocks according to a machine.Params cost model
// (start-up τ, per-byte transfer t_c, packetization B_m, copy cost, one-port
// vs n-port). Contention is modeled by port and link occupancy: only one
// transmission at a time per directed link, and a one-port node serializes
// all its sends (and all its receives) while an n-port node has one send and
// one receive resource per dimension.
//
// Determinism: the engine parks every node at each timed operation and
// commits operations in ascending (virtual action time, node id) order.
// Since node clocks are monotone and a message's arrival time is never
// earlier than its sender's action time, this order is causally correct, and
// repeated runs produce identical virtual-time traces regardless of
// goroutine scheduling. There is one scheduler (shard.go): nodes are
// partitioned across P >= 1 workers that advance in lookahead-wide epochs,
// each keeping its executable nodes in an indexed min-heap keyed by action
// time (sched.go). The automatic P is 1 below 128 nodes, else every CPU no
// other running engine holds; a run with a tracer, faults or a deadline
// always takes one worker (serial mode). P moves host time only, never a
// trace, a statistic or an error.
//
// Hand-off is by coroutine: every node program runs in an iter.Pull
// coroutine that yields at each timed operation it cannot execute itself,
// and its shard's worker resumes it once the operation has executed — a
// direct switch between the two, with no channel and no trip through the Go
// scheduler's run queue. A shard's nodes therefore run on one host goroutine
// at a time; host parallelism exists only between shards.
//
// Message payloads are zero-copy: Send hands the Msg — including its Data
// and Parts backing arrays — to the receiver without cloning, so sending
// transfers ownership. A sender that needs to keep reading a payload after
// Send must Clone it first. Receivers that are done with a message may
// return its buffers to their shard's pool with Recycle (see pool.go);
// under SIMNET_DEBUG a recycled buffer is poisoned with NaN, so a program
// that retains one fails loudly.
//
// Concurrency contract: between a node's timed operations, only that node
// runs — but all node prologues (before the first timed operation) and
// epilogues (after the last) may execute concurrently. State shared across
// node programs must therefore be read-only, synchronized, or partitioned
// per node (e.g. writing result[nd.ID()] is safe; lazily filling a shared
// map is not). The contract is the fabric's, not this backend's: simnet
// itself overlaps node programs only across shards, while livenet runs them
// truly concurrently. Two things follow from the coroutines. A node program
// must not wait on another node program except through the fabric (a node
// blocked on a host-side lock or channel blocks its whole shard), and it
// must not call runtime.Goexit — which includes t.FailNow, t.Fatal and
// t.Skip — because that unwinds the worker that resumed it, not just the
// node: report through nd.Fail, a panic, or t.Error instead.
package simnet

import (
	"fmt"
	"iter"
	"math"
	"strings"

	"boolcube/internal/fabric"
	"boolcube/internal/machine"
)

type opKind int

const (
	opSend opKind = iota
	opRecv
	opRecvAny
	opCopy
	opAdvance
	opDone
)

type op struct {
	kind  opKind
	dim   int
	msg   fabric.Msg // a send's payload on the way in, a receive's result on the way out
	bytes int
	dt    float64
}

type arrival struct {
	msg     fabric.Msg
	at      float64 // transmission completion at receiver
	dur     float64 // transmission duration (for receive-port serialization)
	fromDim int
	act     float64  // sender's send action (start) time, for RecvAny tie-breaks
	next    *arrival // next in its queue, or in the shard's free list once popped
}

// inQueue is one dimension's inbound arrival queue: a FIFO linked through
// arrival slots of the receiving node's shard (shard.slot). A push takes a
// slot, a pop zeroes it and returns it to the shard's free list, so the
// engine holds as many slots per shard as that shard ever had arrivals
// live at once — not a buffer per link, regrown on every fresh engine. Both
// ends run on that shard's worker (or at the barrier, when the coordinator
// is alone), so the slots need no lock.
type inQueue struct {
	head, tail *arrival
}

func (q *inQueue) empty() bool     { return q.head == nil }
func (q *inQueue) front() *arrival { return q.head }

// push links a zeroed slot at the tail for the sender to fill in place.
func (q *inQueue) push(sh *shard) *arrival {
	a := sh.slot()
	if q.tail == nil {
		q.head = a
	} else {
		q.tail.next = a
	}
	q.tail = a
	return a
}

// pop unlinks the front and releases its slot, message reference cleared.
func (q *inQueue) pop(sh *shard) {
	a := q.head
	if q.head = a.next; q.head == nil {
		q.tail = nil
	}
	*a = arrival{next: sh.free}
	sh.free = a
}

// Node is the per-processor handle node programs use. Its methods may only
// be called from within the program function passed to Run, on the node's
// own coroutine.
type Node struct {
	id  uint64
	eng *Engine

	clock    float64
	sendFree []float64 // one entry (one-port) or n entries (n-port)
	recvFree []float64

	// Previous send interval per port, tracked only under SIMNET_DEBUG
	// (see debug.go).
	lastSendStart []float64
	lastSendEnd   []float64

	queues  []inQueue // inbound, per dimension
	pending op
	// The program is a coroutine (iter.Pull): it parks by yielding at a
	// pending op, the shard worker resumes it with next, drainAll unwinds it
	// with stop.
	yield   func(struct{}) bool
	next    func() (struct{}, bool)
	stop    func()
	opErr   error // set by the engine before resume (fault injection)
	done    bool
	crashed bool // crash-stop fired; stays parked until drainAll, never done
	failure error

	sh      *shard  // owning shard, assigned before the program starts
	lastAct float64 // action time of the last executed op (failure keys)
}

// Engine simulates one cube. Create with New, run programs with Run.
type Engine struct {
	n, nodesCount int
	params        machine.Params

	nodes     []*Node
	nodeStore []Node    // flat backing array for nodes (cache locality at scale)
	copyTime  []float64 // per-node copy-time accumulation, folded in id order

	// Per-directed-link occupancy and volume, dense-indexed by
	// from*n + dim (linkIndex). Dense arrays replace the seed's maps on
	// the per-send hot path.
	linkFree     []float64
	linkBytes    []int64
	linkBusy     []float64
	linkUsed     []bool
	linkAttempts []int64 // per-link transmission attempts, for Drop decisions

	shards int // SetShards: 0 auto, >= 1 forced worker count, < 0 one worker

	faults   fabric.FaultModel
	retry    fabric.RetryPolicy
	deadline float64 // virtual-time budget; +Inf when unset (see SetDeadline)

	// Crash-stop schedule (crash.go); nil unless the fault model implements
	// fabric.CrashModel with at least one scheduled kill.
	crashModel   fabric.CrashModel
	crashT       []float64 // per-node crash time, +Inf when the node survives
	crashedCount int       // crashes fired this run

	stats   fabric.Stats
	tracer  fabric.Tracer
	started bool // engines are one-shot; see Run
	debug   bool // SIMNET_DEBUG assertions, snapshotted in New
	fail    error
}

// SetTracer installs a tracer for subsequent Runs (nil disables tracing);
// it receives every timed operation in deterministic engine order.
func (e *Engine) SetTracer(t fabric.Tracer) { e.tracer = t }

// errPoisoned unwinds node programs after the engine has failed.
var errPoisoned = fmt.Errorf("simnet: engine poisoned")

// linkIndex densely indexes the directed link (from, dim).
func (e *Engine) linkIndex(from uint64, dim int) int {
	return int(from)*e.n + dim
}

// init registers the simulation as a fabric backend — the reference
// implementation New selects for an empty backend name.
func init() {
	fabric.Register("simnet", func(n int, params machine.Params) (fabric.Fabric, error) {
		return New(n, params)
	}, simCaps)
}

// simCaps is what the simulation promises: a virtual clock, fault windows
// on that same clock, and full determinism for every shard count
// (shard.go), so large engines parallelize without giving up
// replayability.
var simCaps = fabric.Capabilities{VirtualTime: true}

// Capabilities declares what this backend promises (fabric.Fabric contract).
func (e *Engine) Capabilities() fabric.Capabilities { return simCaps }

// New returns an engine for an n-dimensional cube under the given machine
// model.
func New(n int, params machine.Params) (*Engine, error) {
	if n < 0 || n > 20 {
		return nil, fmt.Errorf("simnet: cube dimension %d out of range [0,20]", n)
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	nodes := 1 << uint(n)
	e := &Engine{
		n:          n,
		nodesCount: nodes,
		params:     params,
		linkFree:   make([]float64, nodes*n),
		linkBytes:  make([]int64, nodes*n),
		linkBusy:   make([]float64, nodes*n),
		linkUsed:   make([]bool, nodes*n),
		deadline:   math.Inf(1),
		debug:      debugMode(),
	}
	return e, nil
}

// Dims returns the cube dimension n.
func (e *Engine) Dims() int { return e.n }

// Nodes returns the node count N = 2^n.
func (e *Engine) Nodes() int { return e.nodesCount }

// Params returns the machine model in force.
func (e *Engine) Params() machine.Params { return e.params }

// Stats returns the accumulated statistics of the last Run.
func (e *Engine) Stats() fabric.Stats { return e.stats }

// LinkLoads returns the per-directed-link traffic of the last Run, sorted
// by (From, Dim). Links that carried no traffic are omitted.
func (e *Engine) LinkLoads() []fabric.LinkLoad {
	var out []fabric.LinkLoad
	for li, used := range e.linkUsed {
		if !used {
			continue
		}
		// Dense iteration order is ascending (From, Dim) by construction.
		out = append(out, fabric.LinkLoad{
			From:  uint64(li / e.n),
			Dim:   li % e.n,
			Bytes: e.linkBytes[li],
			Busy:  e.linkBusy[li],
		})
	}
	return out
}

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

// Run executes prog on every node until all programs return. It returns an
// error if any program panics, misuses the API, or the system deadlocks
// (every unfinished node blocked on a receive that can never be satisfied).
// Engines are one-shot: a second Run returns an error, because node clocks
// would restart at zero and the statistics would mix runs — compose
// multi-phase algorithms inside a single program instead.
//
// The program receives the node handle as the backend-neutral fabric.Node
// interface (which *Node implements); programs needing simnet-only API can
// assert back to *Node, but none of the library's algorithms do.
func (e *Engine) Run(prog func(fabric.Node)) error {
	p, release := e.acquireWorkers()
	defer release()
	run, err := e.start(prog, p)
	if err != nil {
		return err
	}
	err = run.close(run.epochs())
	e.foldCopyTime()
	return err
}

// start builds the per-node state, assigns every node to one of p shards,
// launches the node programs and returns once each has parked at its first
// timed operation (or finished).
func (e *Engine) start(prog func(fabric.Node), p int) (*shardRun, error) {
	if e.started {
		return nil, fmt.Errorf("simnet: engine already ran; clocks would restart at zero — create a fresh engine (compose phases inside one program instead)")
	}
	e.started = true
	run := e.newShardRun(p)
	// Per-node state lives in flat engine-level slabs: one Node backing
	// array plus one shared float/queue arena sliced per node. At 2^16
	// nodes this turns ~5N small allocations into a handful of large ones
	// and keeps neighboring nodes' hot state contiguous.
	ports, dims := e.ports(), max(e.n, 1)
	e.nodes = make([]*Node, e.nodesCount)
	e.nodeStore = make([]Node, e.nodesCount)
	e.copyTime = make([]float64, e.nodesCount)
	portArena := make([]float64, 2*e.nodesCount*ports)
	queueArena := make([]inQueue, e.nodesCount*dims)
	var debugArena []float64
	if e.debug {
		debugArena = make([]float64, 2*e.nodesCount*ports)
	}
	for i := range e.nodes {
		nd := &e.nodeStore[i]
		*nd = Node{
			id:       uint64(i),
			eng:      e,
			sh:       &run.shards[i/run.shardSize],
			sendFree: portArena[(2*i)*ports : (2*i+1)*ports],
			recvFree: portArena[(2*i+1)*ports : (2*i+2)*ports],
			queues:   queueArena[i*dims : (i+1)*dims],
		}
		if e.debug {
			nd.lastSendStart = debugArena[(2*i)*ports : (2*i+1)*ports]
			nd.lastSendEnd = debugArena[(2*i+1)*ports : (2*i+2)*ports]
		}
		e.nodes[i] = nd
		nd.next, nd.stop = iter.Pull(func(yield func(struct{}) bool) {
			nd.yield = yield
			defer func() {
				if r := recover(); r != nil && r != errPoisoned {
					if ab, ok := r.(*nodeAbort); ok {
						// Typed unwind from a failed Send under fault
						// injection; surface the fault error as-is.
						nd.failure = ab.err
					} else {
						nd.failure = fmt.Errorf("simnet: node %d panicked: %v", nd.id, r)
					}
				}
				nd.pending = op{kind: opDone}
			}()
			prog(nd)
		})
	}

	// Prologues, one goroutine per shard: from here on a shard's nodes only
	// ever run on that shard's worker, which is what tryEager assumes.
	// Invariant: between epochs every live node is parked in yield with a
	// pending op.
	run.eachShard(func(sh *shard) {
		lo, hi := sh.span()
		for _, nd := range e.nodes[lo:hi] {
			nd.next()
		}
	})
	return run, nil
}

// foldCopyTime sums the per-node copy time in ascending node-id order, so
// the float64 total is independent of the shard count. Runs on every exit
// path of a schedule.
func (e *Engine) foldCopyTime() {
	for i := range e.copyTime {
		e.stats.CopyTime += e.copyTime[i]
	}
}

// checkFailure surfaces a node-program failure (panic, typed fault abort)
// and unwinds the rest of the system.
func (e *Engine) checkFailure(nd *Node) error {
	if nd.done || nd.failure == nil {
		return nil
	}
	nd.done = true
	err := nd.failure
	e.drainAll()
	return err
}

// drainAll unwinds every still-live node program after an error, crashed
// nodes included: stop makes the parked yield return false, submit panics
// with the poison sentinel and the coroutine wrapper converts that into a
// clean exit, so no coroutine outlives Run. A program that already returned
// makes stop a no-op.
func (e *Engine) drainAll() {
	for _, nd := range e.nodes {
		if !nd.done {
			nd.stop()
			nd.done = true
		}
	}
}

// deadlockError reports every stuck node with the dimension/port it is
// blocked receiving on and the virtual time of its last progress (its local
// clock — the completion time of its last executed operation), so a hung
// program can be diagnosed from the error alone. At most maxDeadlockDetail
// nodes are itemized; the total count is always reported.
func (e *Engine) deadlockError() error {
	const maxDeadlockDetail = 8
	var parts []string
	stuck := 0
	for _, nd := range e.nodes { // ascending node id
		if nd.done {
			continue
		}
		stuck++
		if len(parts) >= maxDeadlockDetail {
			continue
		}
		var where string
		switch nd.pending.kind {
		case opRecv:
			where = fmt.Sprintf("recv(dim %d, port %d)", nd.pending.dim, e.portIndex(nd.pending.dim))
		case opRecvAny:
			where = "recv(any dim)"
		default:
			where = fmt.Sprintf("op %d", int(nd.pending.kind))
		}
		parts = append(parts, fmt.Sprintf("node %d blocked on %s, last progress t=%g", nd.id, where, nd.clock))
	}
	detail := strings.Join(parts, "; ")
	if stuck > maxDeadlockDetail {
		detail += fmt.Sprintf("; ... and %d more", stuck-maxDeadlockDetail)
	}
	return fmt.Errorf("simnet: deadlock: %d node(s) blocked on receive with no inbound messages: %s", stuck, detail)
}

// actionTime returns the virtual time at which the node's pending op can
// execute, and whether it is executable at all right now.
func (e *Engine) actionTime(nd *Node) (float64, bool) {
	switch nd.pending.kind {
	case opSend:
		return math.Max(nd.clock, nd.sendFree[e.portIndex(nd.pending.dim)]), true
	case opRecv:
		q := &nd.queues[nd.pending.dim]
		if q.empty() {
			return 0, false
		}
		return math.Max(nd.clock, q.front().at), true
	case opRecvAny:
		bestT := math.Inf(1)
		found := false
		for d := range nd.queues {
			if q := &nd.queues[d]; !q.empty() && q.front().at < bestT {
				bestT = q.front().at
				found = true
			}
		}
		if !found {
			return 0, false
		}
		return math.Max(nd.clock, bestT), true
	case opCopy, opAdvance, opDone:
		return nd.clock, true
	}
	return 0, false
}

// performOp runs the semantics of the node's pending operation — time,
// statistics, queue movement — without resuming the node's program; the
// caller resumes it. It reports whether the program has ended; a receive
// leaves its message in nd.pending.msg.
func (e *Engine) performOp(nd *Node) (done bool) {
	nd.opErr = nil
	switch nd.pending.kind {
	case opSend:
		nd.opErr = e.doSend(nd, nd.pending.dim, &nd.pending.msg)
		nd.pending.msg = fabric.Msg{} // ownership moved to the destination queue
	case opRecv:
		e.doRecv(nd, &nd.queues[nd.pending.dim])
	case opRecvAny:
		e.doRecvAny(nd)
	case opCopy:
		t := e.params.CopyTime(nd.pending.bytes)
		e.trace(fabric.TraceEvent{Node: nd.id, Kind: "copy", Dim: -1,
			Bytes: nd.pending.bytes, Start: nd.clock, End: nd.clock + t})
		nd.clock += t
		e.addCopy(nd, t, int64(nd.pending.bytes))
		e.bumpTime(nd, nd.clock)
	case opAdvance:
		e.trace(fabric.TraceEvent{Node: nd.id, Kind: "compute", Dim: -1,
			Start: nd.clock, End: nd.clock + nd.pending.dt})
		nd.clock += nd.pending.dt
		e.bumpTime(nd, nd.clock)
	case opDone:
		e.bumpTime(nd, nd.clock)
		return true
	}
	return false
}

// addCopy books a local copy's cost. The time lands in the per-node
// accumulator (folded in id order after the run); the byte count goes to
// the shard's accumulator, like every counter below.
func (e *Engine) addCopy(nd *Node, t float64, bytes int64) {
	e.copyTime[nd.id] += t
	nd.sh.acc.copyBytes += bytes
}

// doSend executes one send operation. The returned error is non-nil only
// under fault injection, when the transmission fails past the retry budget;
// it is delivered to the node (TrySend returns it, Send aborts with it).
func (e *Engine) doSend(nd *Node, dim int, m *fabric.Msg) error {
	sh := nd.sh
	bytes := len(m.Data) * e.params.ElemBytes
	dur, startups := e.params.SendTime(bytes)
	port := e.portIndex(dim)
	li := e.linkIndex(nd.id, dim)
	start := math.Max(nd.clock, nd.sendFree[port])
	start = math.Max(start, e.linkFree[li])
	if e.faults != nil {
		var err error
		if start, err = e.clearFaults(nd, dim, li, port, bytes, dur, startups, start); err != nil {
			sh.acc.faultedSends++
			nd.clock = math.Max(nd.clock, start)
			e.bumpTime(nd, nd.clock)
			return err
		}
	}
	end := e.chargeLink(nd, dim, li, port, bytes, dur, startups, start)
	sh.acc.sends++
	nd.clock = start
	e.trace(fabric.TraceEvent{Node: nd.id, Kind: "send", Dim: dim, Bytes: bytes, Start: start, End: end})

	a := sh.deliver(int(nd.id^1<<uint(dim)), dim)
	a.msg, a.at, a.dur, a.fromDim, a.act = *m, end, dur, dim, start
	return nil
}

// clearFaults advances a transmission's start time past injected failures:
// transient link-down windows are waited out and flaky drops retransmitted,
// each consuming one attempt of the retry budget and charging the backoff.
// It returns the start time of the first clean attempt, or a
// *fabric.FaultError once the budget is exhausted (immediately, for a
// permanent link failure).
func (e *Engine) clearFaults(nd *Node, dim, li, port, bytes int, dur float64, startups int, start float64) (float64, error) {
	attempts := 0
	for {
		attempts++
		up, nextUp := e.faults.LinkState(nd.id, dim, start)
		if !up {
			// A zero-length drop event records the attempt that found the
			// link down and the remaining down-window [Start, DownUntil).
			e.trace(fabric.TraceEvent{Node: nd.id, Kind: "drop", Dim: dim, Start: start, End: start,
				Attempt: attempts, DownUntil: nextUp})
			if math.IsInf(nextUp, 1) || attempts >= e.retry.Attempts {
				return start, &fabric.FaultError{From: nd.id, To: nd.id ^ 1<<uint(dim), Dim: dim,
					At: start, Attempts: attempts, Err: fabric.ErrLinkDown}
			}
			nd.sh.acc.retries++
			start = math.Max(nextUp, start+e.retry.Backoff)
			continue
		}
		e.linkAttempts[li]++
		if !e.faults.Drop(nd.id, dim, e.linkAttempts[li]) {
			return start, nil
		}
		// The dropped frame still occupied the wire: charge the port, the
		// link and the volume statistics, then retransmit after backoff.
		// DownUntil stays 0: the link was up, the frame was lost in flight.
		end := e.chargeLink(nd, dim, li, port, bytes, dur, startups, start)
		nd.sh.acc.drops++
		e.trace(fabric.TraceEvent{Node: nd.id, Kind: "drop", Dim: dim, Bytes: bytes, Start: start, End: end,
			Attempt: attempts})
		if attempts >= e.retry.Attempts {
			return end, &fabric.FaultError{From: nd.id, To: nd.id ^ 1<<uint(dim), Dim: dim,
				At: start, Attempts: attempts, Err: fabric.ErrRetryBudget}
		}
		nd.sh.acc.retries++
		start = end + e.retry.Backoff
	}
}

// chargeLink books one transmission interval [start, start+dur) on the
// sender's port and the directed link, updating occupancy and volume
// statistics. Shared by delivered sends and dropped frames.
func (e *Engine) chargeLink(nd *Node, dim, li, port, bytes int, dur float64, startups int, start float64) float64 {
	end := start + dur
	if e.debug {
		if prev := nd.lastSendEnd[port]; start < prev {
			panic(fmt.Sprintf(
				"simnet: debug: node %d port %d has two in-flight sends: previous [%g, %g) still busy when new send starts at %g (ends %g)",
				nd.id, port, nd.lastSendStart[port], prev, start, end))
		}
		nd.lastSendStart[port], nd.lastSendEnd[port] = start, end
	}
	nd.sendFree[port] = end
	e.linkFree[li] = end
	e.linkUsed[li] = true
	e.linkBytes[li] += int64(bytes)
	e.linkBusy[li] += dur
	nd.sh.acc.startups += int64(startups)
	nd.sh.acc.bytes += int64(bytes)
	e.bumpTime(nd, end)
	return end
}

func (e *Engine) doRecv(nd *Node, q *inQueue) {
	e.finishRecv(nd, q.front())
	q.pop(nd.sh)
}

func (e *Engine) doRecvAny(nd *Node) {
	bestDim := -1
	for d := range nd.queues {
		q := &nd.queues[d]
		if q.empty() {
			continue
		}
		if bestDim == -1 {
			bestDim = d
			continue
		}
		if nd.anyLess(q.front(), d, nd.queues[bestDim].front(), bestDim) {
			bestDim = d
		}
	}
	e.doRecv(nd, &nd.queues[bestDim])
}

// anyLess orders two RecvAny candidates by (arrival time, send action time,
// sender id). The key is a pure function of simulation state — unlike a
// global send sequence number, which would encode host-side execution order
// — so every shard count, each delivering cross-shard arrivals at different
// host moments, makes identical choices.
// The key is total: two arrivals with equal times on different dimensions
// come from different senders (one neighbor per dimension), and arrivals
// from one sender on one dimension never tie (the queue is FIFO).
func (nd *Node) anyLess(f *arrival, fd int, g *arrival, gd int) bool {
	if f.at != g.at {
		return f.at < g.at
	}
	if f.act != g.act {
		return f.act < g.act
	}
	return nd.id^1<<uint(fd) < nd.id^1<<uint(gd)
}

// finishRecv applies receive-port serialization: a message of transmission
// duration d completes at max(arrival, prevCompletion + d) on the relevant
// receive port, which costs nothing when the port is idle and serializes
// concurrent arrivals on a one-port node.
func (e *Engine) finishRecv(nd *Node, a *arrival) {
	port := e.portIndex(a.fromDim)
	completion := math.Max(a.at, nd.recvFree[port]+a.dur)
	nd.recvFree[port] = completion
	nd.clock = math.Max(nd.clock, completion)
	e.bumpTime(nd, nd.clock)
	e.trace(fabric.TraceEvent{Node: nd.id, Kind: "recv", Dim: a.fromDim,
		Bytes: len(a.msg.Data) * e.params.ElemBytes, Start: completion - a.dur, End: completion})
	nd.pending.msg = a.msg
}

// bumpTime raises the makespan watermark: max is order-invariant, which is
// what makes the deferred fold exact.
func (e *Engine) bumpTime(nd *Node, t float64) {
	if sh := nd.sh; t > sh.acc.maxTime {
		sh.acc.maxTime = t
	}
}

// trace hands a trace event to the tracer. A tracer puts the run in serial
// mode, so events arrive in serial order, from one worker.
func (e *Engine) trace(ev fabric.TraceEvent) {
	if e.tracer != nil {
		e.tracer.Record(ev)
	}
}

func (e *Engine) maxResourceTime() float64 {
	t := 0.0
	for _, f := range e.linkFree {
		if f > t {
			t = f
		}
	}
	return t
}
