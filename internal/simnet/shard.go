// The scheduler: epoch-synchronized execution of the engine partitioned
// across P >= 1 worker shards, with results that do not depend on P.
//
// The scheduler exploits the cost model's lookahead: every transmission of
// at least one element takes at least minDur = SendTime(ElemBytes) virtual
// time, so an operation executed at time t cannot make a nonempty arrival
// land before t + minDur. Each round (epoch) the coordinator takes the
// global minimum pending action time T and sets a horizon T + minDur; every
// shard then executes all of its own nodes' operations with action time in
// [T, horizon) independently, in shard-local (time, node id) order.
// Cross-shard sends are staged in a per-shard outbox and routed to the
// destination queues at the epoch barrier. The outbox is presized to the
// links leaving the shard: a nonempty send holds its port for at least
// minDur, so each link carries at most one per epoch. A machine with no
// lookahead (minDur = 0) runs on one shard whose epoch is the single
// globally-minimal operation — plain serial order.
//
// An empty message takes no time, so it can cross a shard boundary and land
// inside the epoch that sent it. The barrier routes it like any other, and
// when a routed arrival lands before the horizon the receiving shards run
// the epoch again at the same horizon, until no such arrival is staged (a
// same-time fixpoint). That is exact for everything but RecvAny: a receive
// on one dimension reads a queue with one sender, FIFO, so when it runs
// does not change what it takes, and an operation's action time is a pure
// function of its node's program order and its queue fronts. A RecvAny
// chooses among senders, so it must see exactly the arrivals serial order
// has delivered. A shard therefore stops as soon as one of its nodes parks
// at a RecvAny (Node.tryEager), and at the barrier the run continues on one
// worker: the shards' heaps, accumulators and nodes merge into shard 0
// (shardRun.collapse). Programs that never call RecvAny — every exchange
// plan — stay parallel to the end.
//
// A shard owns its nodes' scheduling state outright — ready heap, outbox,
// inbound-queue slot arena and payload pool — and takes no lock on any of
// it: a shard's nodes only ever run on its worker, and the coordinator
// touches shard state only at barriers, while no worker runs. After
// an operation the shard re-keys the executing node and, for a send, the
// destination only when the arrival can move the destination's action time
// (shard.note); under SIMNET_DEBUG every skipped re-key is checked against a
// recomputation.
//
// Determinism does not depend on the shard count. Queue contents are
// per-(sender, dimension) FIFO and each directed link has exactly one
// sender, so delivery order within a queue is the sender's program order
// regardless of when the barrier runs; RecvAny choices are ordered by the
// (arrival time, send action time, sender id) key (see Node.anyLess), a
// pure function of simulation state. The differential suite
// (differential_test.go) pins P ∈ {1, 2, 4, GOMAXPROCS} to byte-identical
// traces, Stats, link loads and errors against a linear-scan oracle.
//
// Two accounting modes keep Stats and traces exact. Record mode alone
// would do, but its per-operation commit records and barrier sort cost host
// time on every run; fast mode skips them where nothing needs the canonical
// order, and the differential suite holds the two to the same results.
//
//   - Fast mode (no tracer, no faults, no deadline): statistics are either
//     order-invariant (integer counters, maxima) or per-node (copy time),
//     so shards accumulate locally and the coordinator folds at the end.
//     While a shard waits for a resumed node to park again, the node
//     executes further operations of its own eagerly (Node.tryEager),
//     without the coroutine hand-off, whenever the operation
//     is provably inside the epoch (action < horizon): sends touch only
//     sender-owned state, and a receive's queue front is final (single-sender
//     FIFO). On one worker an eager RecvAny runs too; it is serial-exact
//     unless an empty arrival is still in flight at its action time.
//
//   - Record mode (tracer, faults or a finite deadline): every operation
//     appends a commit record, and the coordinator applies the epoch's
//     records (and flushes their trace events) in canonical — serial —
//     order once the epoch's fixpoint closes (see opRec, shardRun.commit).
//     On a failure, records past the canonical first failing operation are
//     discarded, so Stats, LinkLoads and traces are exact even on abort
//     paths. Eager execution is off (it would break a shard's serial order),
//     and a one-shard epoch stops at its first failure: at P = 1 no node
//     program runs past the canonical failure point, so what programs wrote
//     themselves (a checkpoint's delivered set) is exact too. At P > 1 node
//     programs in other shards may have over-executed by up to one epoch —
//     visible only through such program-written side effects; every
//     engine-reported artifact is exact. The automatic policy therefore
//     keeps record-mode runs on one worker. When a RecvAny collapses a
//     sharded run, the records at or past the earliest operation left are
//     set aside and replayed into the one worker's order where serial
//     execution reaches them (shardRun.replay).
package simnet

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"boolcube/internal/fabric"
)

// autoShardNodes is the node count at which the automatic policy moves from
// one worker to every free CPU. On 2 CPUs a 512x512 buffered §8.1 exchange
// runs 30% faster sharded on 128 nodes and 37% on 256 (DESIGN.md §7); below
// 128 the gain shrinks (13% on 64 nodes), and 64-node service rounds, whose
// peak memory sharding raised, stay on one worker.
const autoShardNodes = 128

// maxAutoShards caps the automatic worker count; property tests may force
// more via SetShards.
const maxAutoShards = 16

// heldWorkers counts the workers of every engine running in the process.
// The automatic policy takes only CPUs no other engine holds, so engines
// run side by side (exper.Par) do not oversubscribe the host.
var heldWorkers atomic.Int64

// SetShards sets the worker count for the next Run: p >= 1 forces exactly p
// shards, p == 0 (the default) is automatic — one worker below
// autoShardNodes nodes and in record mode, otherwise every CPU up to
// GOMAXPROCS that no other running engine holds — and p < 0 means one
// worker. Traces, Stats, link loads and errors are bit-identical for every
// p — the differential suite enforces it — so the choice is purely about
// host performance. Must be called before Run.
func (e *Engine) SetShards(p int) { e.shards = p }

// shardLookahead is the minimum virtual duration of any nonempty
// transmission under the machine model — the epoch width.
func (e *Engine) shardLookahead() float64 {
	dur, _ := e.params.SendTime(e.params.ElemBytes)
	return dur
}

// recordMode reports whether the run needs record mode: a tracer, faults or
// a finite deadline.
func (e *Engine) recordMode() bool {
	return e.tracer != nil || e.faults != nil || !math.IsInf(e.deadline, 1)
}

// acquireWorkers resolves the SetShards setting to a worker count >= 1 and
// holds that many workers until the returned release is called.
func (e *Engine) acquireWorkers() (p int, release func()) {
	p = 1 // without an epoch width only serial order is safe
	if e.shardLookahead() > 0 {
		if e.shards > 0 {
			p = min(e.shards, e.nodesCount)
		} else if e.shards == 0 && e.nodesCount >= autoShardNodes && !e.recordMode() {
			// The worker count influences host scheduling only, never
			// results (shard-invariance property): sizing it to the host is
			// safe.
			procs := int64(runtime.GOMAXPROCS(0)) //cubevet:ignore detbreak -- worker count is result-invariant; the differential suite pins P to bit-identical outcomes
			for {
				held := heldWorkers.Load()
				free := max(1, min(procs-held, maxAutoShards, int64(e.nodesCount)))
				if heldWorkers.CompareAndSwap(held, held+free) {
					return int(free), func() { heldWorkers.Add(-free) }
				}
			}
		}
	}
	heldWorkers.Add(int64(p))
	return p, func() { heldWorkers.Add(-int64(p)) }
}

// statAcc is a shard's fast-mode statistics accumulator: integer counters
// (exact under any summation order) and a local time maximum.
type statAcc struct {
	sends, startups, bytes, copyBytes int64
	retries, drops, faultedSends      int64
	maxTime                           float64
}

// opRec is one operation's record-mode commit record. The canonical order
// of an epoch's records is serial order: ascending action time, and at one
// time the order in which the linear scan reaches the operations — the
// lowest node id among those executable. Within a time, an operation becomes
// executable when its node's previous operation has run and, for a receive,
// when the send of the message it takes has run: a zero-duration (empty)
// message can enable a receive at the very instant of its send. commit
// rebuilds that order from the records alone (program order per node, plus
// dep), however the shards interleaved them.
type opRec struct {
	act  float64
	node int32
	sh   int32 // owning shard, to resolve the event range
	li   int32 // charged link index, -1 when no charge happened

	linkBytes int64 // link + volume deltas (all charges of the op summed)
	linkBusy  float64
	startups  int64
	copyBytes int64
	copyDt    float64
	timeBump  float64

	sends, retries, drops, faulted int32

	ev0, ev1 int32 // trace-event range in the owning shard's buffer

	seq int64 // unique operation id, carried by the arrival a send makes
	dep int64 // a receive: the seq of the send it took when both share a time, else 0

	err error // the node program failed right after this operation
}

// staged is a cross-shard arrival waiting for the epoch barrier.
type staged struct {
	dest int32
	a    arrival
}

// failCand is a node failure observed during a fast-mode epoch, keyed by the
// failing node's last operation; the barrier surfaces the one with the
// smallest key. (Record mode marks the operation's record instead.)
type failCand struct {
	act  float64
	node int32
	err  error
}

func (f *failCand) before(g *failCand) bool {
	return f.act < g.act || (f.act == g.act && f.node < g.node)
}

type shard struct {
	run *shardRun
	id  int

	heap    *readyHeap
	out     []staged  // cross-shard arrivals staged this epoch
	dirty   []int32   // nodes an arrival may have re-keyed (shard.note)
	skipped []int32   // SIMNET_DEBUG: arrivals that re-keyed nothing, to check
	free    *arrival  // popped inbound-queue slots, linked through next (inQueue)
	chunk   []arrival // never-used slots of the newest slot chunk
	grow    int       // size of the newest slot chunk
	pool    bufPool   // payload buffers, allocated and recycled by this shard's nodes

	fails []failCand

	// Record mode: per-op commit records plus their trace events.
	recs   []opRec
	events []fabric.TraceEvent
	cur    *opRec // open record of the operation being executed

	nseq int64 // record mode: operations recorded by this shard (opRec.seq)

	acc        statAcc
	doneCount  int
	crashCount int // crash-stops fired in this shard this epoch

	reopen bool // an arrival routed at the barrier landed before the horizon
	// A node of this shard is parked at a RecvAny: the shard executes
	// nothing more until the run collapses onto one worker.
	anyStop bool
}

type shardRun struct {
	e         *Engine
	shards    []shard
	shardSize int
	lookahead float64
	horizon   float64 // current epoch's horizon (written at barriers only)
	record    bool
	sortBuf   []opRec
	// Record mode, after a collapse: the records the shards executed at or
	// past the stopping RecvAny's time, in canonical order, and their trace
	// events. runEpoch replays them into shard 0 merged with what it
	// executes (see replay).
	pend   []opRec
	pendEv []fabric.TraceEvent
	unsent map[int64]arrival // by send seq: set-aside messages out of their queues
	// commit's scratch at P > 1: the canonical order of sortBuf, and the
	// ready records by node (canonical).
	order    []int32
	sortHeap *readyHeap
	readyRec []int32
}

// beginOp opens an operation executed at action time t on nd and, in record
// mode, its commit record.
func (sh *shard) beginOp(nd *Node, t float64) {
	nd.lastAct = t
	if sh.run.record {
		ev := int32(len(sh.events))
		sh.nseq++
		sh.recs = append(sh.recs, opRec{
			act: t, node: int32(nd.id), sh: int32(sh.id), li: -1, ev0: ev, ev1: ev,
			seq: int64(sh.id)<<40 | sh.nseq,
		})
		sh.cur = &sh.recs[len(sh.recs)-1]
	}
}

func (sh *shard) endOp() { sh.cur = nil }

// slot hands out an inbound-queue slot for one of this shard's nodes: a
// popped one from the free list, else the next unused slot of the newest
// chunk. Chunks are never moved (queues link into them) and grow
// geometrically from minChunk to maxChunk slots, so a tiny engine stays
// tiny and a large one allocates at most ~190 KB at a time.
func (sh *shard) slot() *arrival {
	if a := sh.free; a != nil {
		sh.free, a.next = a.next, nil
		return a
	}
	if len(sh.chunk) == 0 {
		sh.grow = min(max(2*sh.grow, minChunk), maxChunk)
		sh.chunk = make([]arrival, sh.grow)
	}
	a := &sh.chunk[0]
	sh.chunk = sh.chunk[1:]
	return a
}

// Slot chunk sizes, in arrivals (see shard.slot).
const (
	minChunk = 16
	maxChunk = 1024
)

// span returns the node ids [lo, hi) the shard owns.
func (sh *shard) span() (lo, hi int) {
	run := sh.run
	n := run.e.nodesCount
	return min(sh.id*run.shardSize, n), min((sh.id+1)*run.shardSize, n)
}

// deliver routes one arrival from a node of this shard and returns its slot
// for the sender to fill in place: intra-shard arrivals go straight into the
// destination queue (the shard loop is a serial engine over its own nodes),
// cross-shard arrivals wait in the outbox for the barrier.
func (sh *shard) deliver(dest, dim int) *arrival {
	run := sh.run
	if ds := &run.shards[dest/run.shardSize]; ds != sh {
		sh.out = append(sh.out, staged{dest: int32(dest)})
		return &sh.out[len(sh.out)-1].a
	}
	nd := run.e.nodes[dest]
	sh.note(nd, dim)
	return nd.queues[dim].push(sh)
}

// note is called before an arrival is pushed onto the queue for dim of nd,
// one of this shard's nodes, and files nd for re-keying when the arrival can
// move its action time: only when the queue is empty, so the arrival becomes
// its front, and the pending operation reads that queue. In every other case
// the heap key cannot change; under SIMNET_DEBUG the skip is filed for wake
// to check.
func (sh *shard) note(nd *Node, dim int) {
	k := nd.pending.kind
	if nd.queues[dim].empty() && (k == opRecvAny || (k == opRecv && nd.pending.dim == dim)) {
		sh.dirty = append(sh.dirty, int32(nd.id))
	} else if sh.run.e.debug {
		sh.skipped = append(sh.skipped, int32(nd.id))
	}
}

// wake re-keys the nodes arrivals may have moved since the last wake, then
// asserts (SIMNET_DEBUG) that every node whose re-key was skipped sits in
// the heap exactly as refresh would put it.
func (sh *shard) wake() {
	for _, d := range sh.dirty {
		sh.refresh(int(d))
	}
	sh.dirty = sh.dirty[:0]
	e := sh.run.e
	for _, id := range sh.skipped {
		nd := e.nodes[id]
		t, ok := e.actionTime(nd)
		ok = ok && !nd.done && !nd.crashed && nd.held == 0
		if ht, in := sh.heap.key(int(id)); in != ok || (ok && ht != t) {
			panic(fmt.Sprintf("simnet: debug: node %d skipped a re-key: heap holds (%g, %v), action time is (%g, %v)",
				id, ht, in, t, ok))
		}
	}
	sh.skipped = sh.skipped[:0]
}

// refresh re-keys node i in this shard's ready queue after its scheduling
// inputs changed: present with its new action time when executable, absent
// otherwise (a receive with an empty queue).
func (sh *shard) refresh(i int) {
	nd := sh.run.e.nodes[i]
	if nd.done || nd.crashed || nd.held > 0 {
		sh.heap.remove(i)
		return
	}
	if t, ok := sh.run.e.actionTime(nd); ok {
		sh.heap.update(i, t)
	} else {
		sh.heap.remove(i)
	}
}

// runEpoch executes this shard's operations with action time inside
// [epoch start, horizon), in shard-local (time, node id) order — serial
// execution restricted to this shard's nodes.
func (sh *shard) runEpoch() {
	run := sh.run
	e := run.e
	horizon := run.horizon
	deadline := e.deadline
	h := sh.heap
	sh.reopen = false
	for first := true; !sh.anyStop; first = false {
		best, t := h.min()
		if len(run.pend) > 0 {
			if r := &run.pend[0]; best == -1 || r.act < t || r.act == t && int(r.node) < best {
				if r.act >= horizon || run.replay() {
					break
				}
				continue
			}
		}
		if best == -1 {
			break
		}
		nd := e.nodes[best]
		// Without lookahead the epoch is empty; the one shard then runs its
		// minimum — the global minimum — alone, which is serial order.
		if t >= horizon && !(first && run.lookahead == 0) {
			break
		}
		if t > deadline && nd.pending.kind != opDone {
			// The coordinator aborts once the global minimum passes the
			// deadline; everything at or under it still executes.
			break
		}
		if e.crashDue(best, t) {
			// Crash-stop at an operation boundary: no record, no resume —
			// the node's program stays parked until drainAll unwinds it.
			e.crashNode(nd)
			sh.crashCount++
			h.remove(best)
			continue
		}
		sh.beginOp(nd, t)
		done := e.performOp(nd)
		sh.endOp()
		if done {
			h.remove(best)
			nd.done = true
			sh.doneCount++
			continue
		}
		nd.next() // the node may run further ops eagerly before parking
		if nd.failure != nil && !nd.done {
			nd.done = true
			h.remove(best)
			if !run.record {
				sh.fails = append(sh.fails, failCand{act: nd.lastAct, node: int32(nd.id), err: nd.failure})
			} else {
				// The node failed right after the operation just executed.
				sh.recs[len(sh.recs)-1].err = nd.failure
				if len(run.shards) == 1 {
					// One shard without eager execution runs in canonical
					// order: this failure is the first, and stopping here
					// keeps every node program from running past it.
					break
				}
			}
			// Otherwise keep executing: an earlier failure may still be found
			// this epoch (the barrier surfaces the canonical first).
		} else {
			sh.refresh(best)
		}
		sh.wake()
	}
}

// tryEager executes the node's pending operation in the node's own
// coroutine, without parking, when it is provably safe: the action lies
// inside the current epoch, a send touches only sender-owned state, and a
// receive's queue front is final.
// The shard's worker is suspended in next until this node parks, so the node
// is the only one touching shard-owned state. Fast mode only: in record
// mode a node that ran ahead of the canonical order would be past the
// failure point when a fault or deadline aborts the run. A RecvAny runs
// eagerly only on one worker: sharded, it stops the shard (anyStop) — another
// shard may still send the node an empty message serial order delivers
// first.
func (nd *Node) tryEager() bool {
	sh := nd.sh
	if nd.pending.kind == opRecvAny && len(sh.run.shards) > 1 {
		sh.anyStop = true
		return false
	}
	if sh.run.record {
		return false
	}
	e := nd.eng
	t, ok := e.actionTime(nd)
	if !ok || t >= sh.run.horizon {
		return false
	}
	sh.beginOp(nd, t)
	e.performOp(nd)
	sh.endOp()
	return true
}

// newShardRun lays out p shards over the engine's nodes.
func (e *Engine) newShardRun(p int) *shardRun {
	run := &shardRun{
		e:         e,
		shards:    make([]shard, p),
		shardSize: (e.nodesCount + p - 1) / p,
		lookahead: e.shardLookahead(),
		horizon:   math.Inf(-1), // no epoch open yet: prologues run nothing eagerly
		record:    e.recordMode(),
	}
	for i := range run.shards {
		sh := &run.shards[i]
		sh.run, sh.id = run, i
		lo, hi := sh.span()
		sh.heap = newReadyHeap(e.nodesCount, hi-lo)
		if p > 1 {
			// Each link carries at most one nonempty send per epoch (see the
			// package comment), so the links leaving the shard bound its
			// outbox; empty payloads may still append past it.
			links := 0
			for id := lo; id < hi; id++ {
				for d := range e.n {
					if j := id ^ 1<<uint(d); j < lo || j >= hi {
						links++
					}
				}
			}
			sh.out = make([]staged, 0, links)
		}
	}
	return run
}

// schedule is the coordinator loop: it runs epochs until every node is done,
// crashed or stuck.
func (run *shardRun) schedule() error {
	e := run.e
	// Surface prologue failures (panics before the first timed operation)
	// in node-id order.
	for _, nd := range e.nodes {
		if err := e.checkFailure(nd); err != nil {
			return err
		}
	}
	for i, nd := range e.nodes {
		if t, ok := e.actionTime(nd); ok {
			nd.sh.heap.update(i, t)
		}
	}
	live := e.nodesCount
	for live > 0 || len(run.pend) > 0 {
		minT, minNode := run.globalMin()
		if minNode == -1 {
			if e.crashQuiesce() {
				return run.abort(e.nodeDownError())
			}
			return run.abort(e.deadlockError())
		}
		if minT > e.deadline && e.nodes[minNode].pending.kind != opDone {
			return run.abort(e.deadlineError(e.nodes[minNode], minT))
		}
		run.horizon = minT + run.lookahead
		run.eachShard((*shard).runEpoch)
		// Barrier. Route the staged cross-shard arrivals, and run the epoch
		// again for every shard an empty one landed in before the horizon,
		// until none does; then close the epoch's accounting.
		for run.route() {
			run.eachShard(func(sh *shard) {
				if sh.reopen {
					sh.runEpoch()
				}
			})
		}
		// A stopped shard's remaining operations run after the collapse,
		// and so does everything they enable: none acts before the
		// smallest pending key.
		stopped, anyAt := false, math.Inf(1)
		for i := range run.shards {
			stopped = stopped || run.shards[i].anyStop
		}
		if stopped {
			anyAt, _ = run.globalMin()
		}
		if err := run.commit(anyAt); err != nil {
			return run.abort(err)
		}
		for i := range run.shards {
			live -= run.shards[i].doneCount + run.shards[i].crashCount
			e.crashedCount += run.shards[i].crashCount
			run.shards[i].doneCount, run.shards[i].crashCount = 0, 0
		}
		if stopped {
			run.collapse()
		}
	}
	return run.finish()
}

// route delivers the staged cross-shard arrivals and re-keys the receivers
// they moved. Per queue (one sender, one dimension) the outbox preserves
// sender program order, so delivery order is the same for every shard count.
// It reports whether an arrival landed before the horizon — only an empty
// one can — and marks its shard to run the epoch again.
func (run *shardRun) route() bool {
	e := run.e
	reopen := false
	for i := range run.shards {
		sh := &run.shards[i]
		for j := range sh.out {
			st := &sh.out[j] // moved by index: ranging would copy each entry
			dest := e.nodes[st.dest]
			if st.a.at < run.horizon {
				dest.sh.reopen, reopen = true, true
			}
			dest.sh.note(dest, st.a.fromDim)
			// The whole-arrival copy keeps the queue linked: the pushed
			// slot is the tail, and a staged arrival's link is nil.
			*dest.queues[st.a.fromDim].push(dest.sh) = st.a
		}
		sh.out = sh.out[:0]
	}
	for i := range run.shards {
		run.shards[i].wake()
	}
	return reopen
}

// collapse moves the run onto one worker after a RecvAny stopped a shard:
// shard 0 takes over every node, ready-heap entry and accumulated statistic.
// The other shards' outboxes are empty and their records were committed or
// set aside (commit), so nothing else remains.
func (run *shardRun) collapse() {
	e := run.e
	s0 := &run.shards[0]
	for i := 1; i < len(run.shards); i++ {
		sh := &run.shards[i]
		for _, he := range sh.heap.order {
			s0.heap.update(int(he.id), he.t)
		}
		s0.acc.add(&sh.acc)
	}
	run.shards = run.shards[:1]
	run.shardSize = e.nodesCount
	s0.anyStop = false
	for _, nd := range e.nodes {
		nd.sh = s0
	}
	if len(run.pend) == 0 {
		return
	}
	// Until replayed, a set-aside operation has not happened: its node
	// waits, and the message it sent is not in its queue. A sender's
	// set-aside sends are its last ones, so in every queue they are the
	// tail; replay appends each back in the sender's program order.
	sent := map[int64]bool{}
	for i := range run.pend {
		r := &run.pend[i]
		e.nodes[r.node].held++
		if r.sends > 0 {
			sent[r.seq] = true
		}
	}
	run.unsent = map[int64]arrival{}
	for _, nd := range e.nodes {
		for d := range nd.queues {
			q := &nd.queues[d]
			var prev *arrival
			for a := q.head; a != nil; prev, a = a, a.next {
				if sent[a.seq] {
					for ; a != nil; a = a.next {
						run.unsent[a.seq] = arrival{msg: a.msg, at: a.at, dur: a.dur, fromDim: a.fromDim, act: a.act, seq: a.seq}
					}
					if q.tail = prev; prev == nil {
						q.head = nil
					} else {
						prev.next = nil
					}
					break
				}
			}
		}
	}
	for i := range e.nodes {
		s0.refresh(i)
	}
}

// replay moves the next set-aside record into shard 0's commit order, as if
// its operation executed now: its send's message, unless a set-aside receive
// took it already, joins its queue, and once its node has no set-aside
// record left the node runs again. It reports whether the node program
// failed after the operation.
func (run *shardRun) replay() (failed bool) {
	e := run.e
	sh := &run.shards[0]
	r := run.pend[0]
	run.pend = run.pend[1:]
	ev0 := int32(len(sh.events))
	sh.events = append(sh.events, run.pendEv[r.ev0:r.ev1]...)
	r.ev0, r.ev1 = ev0, int32(len(sh.events))
	sh.recs = append(sh.recs, r)
	if a, ok := run.unsent[r.seq]; ok {
		delete(run.unsent, r.seq)
		dest := e.nodes[int(r.node)^1<<uint(a.fromDim)]
		sh.note(dest, a.fromDim)
		*dest.queues[a.fromDim].push(sh) = a
	}
	nd := e.nodes[r.node]
	if nd.held--; nd.held == 0 {
		sh.refresh(int(r.node))
	}
	sh.wake()
	if len(run.pend) == 0 {
		run.pend, run.pendEv, run.unsent = nil, nil, nil
	}
	return r.err != nil
}

// eachShard runs f on every shard and waits for all of them: shard 0 on the
// calling goroutine, every other shard on a goroutine of its own, so a
// one-shard run spawns nothing and a barrier wakes one goroutine fewer.
func (run *shardRun) eachShard(f func(*shard)) {
	var wg sync.WaitGroup
	for i := 1; i < len(run.shards); i++ {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			f(sh)
		}(&run.shards[i])
	}
	f(&run.shards[0])
	wg.Wait()
}

// finish closes a run whose every node is done or crashed.
func (run *shardRun) finish() error {
	e := run.e
	if e.crashedCount > 0 {
		return run.abort(e.nodeDownError())
	}
	run.foldFast()
	if t := e.maxResourceTime(); e.stats.Time < t {
		e.stats.Time = t
	}
	return nil
}

// abort ends a run on an error: fold what fast mode accumulated so Stats
// stay readable, unwind every node, return err.
func (run *shardRun) abort(err error) error {
	run.foldFast()
	run.e.drainAll()
	return err
}

// globalMin returns the smallest (action time, node id) pending key across
// all shards and set-aside records, or (-1) when nothing is executable.
func (run *shardRun) globalMin() (float64, int) {
	bestT, best := math.Inf(1), -1
	if len(run.pend) > 0 {
		bestT, best = run.pend[0].act, int(run.pend[0].node)
	}
	for i := range run.shards {
		id, t := run.shards[i].heap.min()
		if id == -1 {
			continue
		}
		if best == -1 || t < bestT || (t == bestT && id < best) {
			bestT, best = t, id
		}
	}
	return bestT, best
}

// commit closes an epoch's accounting and returns its canonical first
// failure, if any. Record mode applies the records in canonical order (see
// opRec) up to and including the first one whose node program failed;
// everything a shard executed past it is discarded. Records acting at or
// after anyAt, the earliest operation left when a RecvAny stopped a shard,
// are not applied but set aside in run.pend: operations the run has yet to
// execute may precede them in serial order (see replay).
func (run *shardRun) commit(anyAt float64) error {
	if !run.record {
		var fc *failCand
		for i := range run.shards {
			for j := range run.shards[i].fails {
				if f := &run.shards[i].fails[j]; fc == nil || f.before(fc) {
					fc = f
				}
			}
		}
		if fc == nil {
			return nil
		}
		return fc.err
	}
	all, order := run.shards[0].recs, []int32(nil) // one shard: already in canonical order
	if len(run.shards) > 1 {
		all = run.sortBuf[:0]
		for i := range run.shards {
			all = append(all, run.shards[i].recs...)
		}
		run.sortBuf = all[:0]
		order = run.canonical(all)
	}
	at := func(k int) *opRec {
		if order == nil {
			return &all[k]
		}
		return &all[order[k]]
	}
	var err error
	k := 0
	for ; k < len(all) && at(k).act < anyAt; k++ {
		run.applyRec(at(k))
		if err = at(k).err; err != nil {
			break
		}
	}
	if err == nil {
		for ; k < len(all); k++ {
			r := *at(k)
			r.ev0 = int32(len(run.pendEv))
			run.pendEv = append(run.pendEv, run.shards[r.sh].events[at(k).ev0:at(k).ev1]...)
			r.sh, r.ev1 = 0, int32(len(run.pendEv))
			run.pend = append(run.pend, r)
		}
	}
	for i := range run.shards {
		run.shards[i].recs = run.shards[i].recs[:0]
		run.shards[i].events = run.shards[i].events[:0]
	}
	return err
}

// canonical returns the serial order of an epoch's records as indices into
// all: the linear scan's order, rebuilt by running it over the records. A
// record is ready once its node's previous record and, for a same-time
// receive, the send it took (opRec.dep) are placed; the ready record with
// the smallest (action time, node id) goes next. In all, every node's
// records appear in program order, so at most one record per node is ready
// at a time and a ready heap keyed by node holds them.
func (run *shardRun) canonical(all []opRec) []int32 {
	if run.sortHeap == nil {
		run.sortHeap = newReadyHeap(run.e.nodesCount, 0)
		run.readyRec = make([]int32, run.e.nodesCount)
	}
	next := make([]int32, 2*len(all)) // per record: its node's next record, the receive its send enabled
	waits := make([]int8, len(all))   // per record: predecessors not yet placed
	for i := range next {
		next[i] = -1
	}
	bySeq := make(map[int64]int32, len(all))
	for i := range all {
		bySeq[all[i].seq] = int32(i)
	}
	last := map[int32]int32{}
	for i := range all {
		r := &all[i]
		if j, ok := last[r.node]; ok {
			next[2*j] = int32(i)
			waits[i]++
		}
		last[r.node] = int32(i)
		if j, ok := bySeq[r.dep]; ok && r.dep != 0 {
			next[2*j+1] = int32(i)
			waits[i]++
		}
	}
	h := run.sortHeap
	ready := func(i int32) {
		h.update(int(all[i].node), all[i].act)
		run.readyRec[all[i].node] = i
	}
	for i := range all {
		if waits[i] == 0 {
			ready(int32(i))
		}
	}
	order := run.order[:0]
	for node, _ := h.min(); node != -1; node, _ = h.min() {
		h.remove(node)
		i := run.readyRec[node]
		order = append(order, i)
		for _, j := range next[2*i : 2*i+2] {
			if j >= 0 {
				if waits[j]--; waits[j] == 0 {
					ready(j)
				}
			}
		}
	}
	run.order = order[:0]
	return order
}

// applyRec folds one committed record into the engine's statistics, link
// aggregates and tracer.
func (run *shardRun) applyRec(r *opRec) {
	e := run.e
	if r.li >= 0 {
		e.linkUsed[r.li] = true
		e.linkBytes[r.li] += r.linkBytes
		e.linkBusy[r.li] += r.linkBusy
		if e.linkBytes[r.li] > e.stats.MaxLinkBytes {
			e.stats.MaxLinkBytes = e.linkBytes[r.li]
		}
		if e.linkBusy[r.li] > e.stats.MaxLinkBusy {
			e.stats.MaxLinkBusy = e.linkBusy[r.li]
		}
	}
	e.stats.Sends += int64(r.sends)
	e.stats.Startups += r.startups
	e.stats.Bytes += r.linkBytes
	e.stats.Retries += int64(r.retries)
	e.stats.Drops += int64(r.drops)
	e.stats.FaultedSends += int64(r.faulted)
	e.stats.CopyBytes += r.copyBytes
	e.copyTime[r.node] += r.copyDt
	if r.timeBump > e.stats.Time {
		e.stats.Time = r.timeBump
	}
	if e.tracer != nil {
		evs := run.shards[r.sh].events[r.ev0:r.ev1]
		for i := range evs {
			e.tracer.Record(evs[i])
		}
	}
}

// add folds another shard's accumulator into a.
func (a *statAcc) add(b *statAcc) {
	a.sends += b.sends
	a.startups += b.startups
	a.bytes += b.bytes
	a.copyBytes += b.copyBytes
	a.retries += b.retries
	a.drops += b.drops
	a.faultedSends += b.faultedSends
	a.maxTime = max(a.maxTime, b.maxTime)
}

// foldFast folds fast-mode shard accumulators into the engine's Stats. The
// counters are exact sums; the maxima are order-invariant, so taking them
// over the final link aggregates equals a running maximum. No-op in record
// mode.
func (run *shardRun) foldFast() {
	if run.record {
		return
	}
	e := run.e
	for i := range run.shards {
		a := &run.shards[i].acc
		e.stats.Sends += a.sends
		e.stats.Startups += a.startups
		e.stats.Bytes += a.bytes
		e.stats.CopyBytes += a.copyBytes
		e.stats.Retries += a.retries
		e.stats.Drops += a.drops
		e.stats.FaultedSends += a.faultedSends
		if a.maxTime > e.stats.Time {
			e.stats.Time = a.maxTime
		}
	}
	for li, used := range e.linkUsed {
		if !used {
			continue
		}
		if e.linkBytes[li] > e.stats.MaxLinkBytes {
			e.stats.MaxLinkBytes = e.linkBytes[li]
		}
		if e.linkBusy[li] > e.stats.MaxLinkBusy {
			e.stats.MaxLinkBusy = e.linkBusy[li]
		}
	}
}
