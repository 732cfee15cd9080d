// The scheduler: epoch-synchronized execution of the engine partitioned
// across P >= 1 worker shards, with results that do not depend on P.
//
// The scheduler exploits the cost model's lookahead: every transmission of
// at least one element takes at least minDur = SendTime(ElemBytes) virtual
// time, so an operation executed at time t cannot make any arrival land
// before t + minDur. Each round (epoch) the coordinator takes the global
// minimum pending action time T and sets a horizon T + minDur; every shard
// may then execute all of its own nodes' operations with action time in
// [T, horizon) independently, in shard-local (time, node id) order, because
// no operation another shard executes in the same window can deliver an
// arrival inside it. Cross-shard sends are staged in a per-shard outbox and
// committed to the destination queues at the epoch barrier. The outbox is
// presized to the links leaving the shard: a nonempty send holds its port
// for at least minDur, so each link carries at most one per epoch. A machine
// with no lookahead (minDur = 0) runs on one shard whose epoch is the single
// globally-minimal operation — plain serial order.
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
//     sender-owned state, a receive's queue front is final (single-sender
//     FIFO), and a RecvAny whose action is inside the epoch cannot be
//     beaten by an undelivered arrival (those land at or past the horizon).
//
//   - Record mode (tracer, faults or a finite deadline): every operation
//     appends a commit record, and the coordinator applies the epoch's
//     records (and flushes their trace events) in canonical — serial —
//     order at each barrier (see opRec). On a failure, records past the
//     canonical first failing operation are discarded, so Stats, LinkLoads
//     and traces are exact even on abort paths. Eager execution is off (it
//     would break a shard's serial order), and a one-shard epoch
//     stops at its first failure: at P = 1 no node program runs past the
//     canonical failure point, so what programs wrote themselves (a
//     checkpoint's delivered set) is exact too. At P > 1 node programs in
//     other shards may have over-executed by up to one epoch — visible only
//     through such program-written side effects; every engine-reported
//     artifact is exact.
package simnet

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"boolcube/internal/fabric"
)

// autoShardNodes is the node count at which the automatic policy moves from
// one worker to GOMAXPROCS: below it (8-cube experiments, service rounds)
// an epoch holds too few operations to repay the barrier's goroutine
// hand-offs.
const autoShardNodes = 2048

// maxAutoShards caps the automatic worker count; property tests may force
// more via SetShards.
const maxAutoShards = 16

// SetShards sets the worker count for the next Run: p >= 1 forces exactly p
// shards, p == 0 (the default) is automatic — one worker below
// autoShardNodes nodes, up to GOMAXPROCS above — and p < 0 means one
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

// shardCount resolves the SetShards setting to a worker count >= 1.
func (e *Engine) shardCount() int {
	p := e.shards
	if p == 0 && e.nodesCount >= autoShardNodes {
		// The worker count influences host scheduling only, never results
		// (shard-invariance property): sizing it to the host is safe.
		p = min(runtime.GOMAXPROCS(0), maxAutoShards) //cubevet:ignore detbreak -- worker count is result-invariant; the differential suite pins P to bit-identical outcomes
	}
	if p < 1 || e.shardLookahead() <= 0 {
		return 1 // without an epoch width only serial order is safe
	}
	return min(p, e.nodesCount)
}

// statAcc is a shard's fast-mode statistics accumulator: integer counters
// (exact under any summation order) and a local time maximum.
type statAcc struct {
	sends, startups, bytes, copyBytes int64
	retries, drops, faultedSends      int64
	maxTime                           float64
}

// opRec is one operation's record-mode commit record. Without eager
// execution a shard appends records in serial order restricted to its own
// nodes, so sorting an epoch's records by action time alone, stably over the
// shards in id order, is the canonical — serial — execution order: at equal
// times the lower shard holds the lower node ids, and no operation of one
// shard can enable a same-time operation of another (a zero-duration
// transmission never crosses shards).
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

	acc        statAcc
	doneCount  int
	crashCount int // crash-stops fired in this shard this epoch
}

type shardRun struct {
	e         *Engine
	shards    []shard
	shardSize int
	lookahead float64
	horizon   float64 // current epoch's horizon (written at barriers only)
	record    bool
	sortBuf   []opRec
}

// beginOp opens an operation executed at action time t on nd and, in record
// mode, its commit record.
func (sh *shard) beginOp(nd *Node, t float64) {
	nd.lastAct = t
	if sh.run.record {
		ev := int32(len(sh.events))
		sh.recs = append(sh.recs, opRec{
			act: t, node: int32(nd.id), sh: int32(sh.id), li: -1, ev0: ev, ev1: ev,
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
		ok = ok && !nd.done && !nd.crashed
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
	if nd.done || nd.crashed {
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
	for first := true; ; first = false {
		best, t := h.min()
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
// inside the current epoch (so no undelivered arrival — all of which land at
// or past the horizon — can influence its choice or be influenced by it).
// The shard's worker is suspended in next until this node parks, so the node
// is the only one touching shard-owned state. Fast mode only: in record
// mode a node that ran ahead of the canonical order would be past the
// failure point when a fault or deadline aborts the run.
func (nd *Node) tryEager() bool {
	sh := nd.sh
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
		record:    e.tracer != nil || e.faults != nil || !math.IsInf(e.deadline, 1),
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
	for live > 0 {
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
		// Barrier. Close the epoch's accounting, then route staged
		// cross-shard arrivals — per queue (one sender, one dimension) the
		// outbox preserves sender program order, so delivery order is the
		// same for every shard count — and re-key the receivers they moved.
		if err := run.commit(); err != nil {
			return run.abort(err)
		}
		for i := range run.shards {
			sh := &run.shards[i]
			for j := range sh.out {
				st := &sh.out[j] // moved by index: ranging would copy each entry
				if st.a.at < run.horizon {
					// A transmission shorter than the lookahead crossed a
					// shard boundary — only possible for an empty payload,
					// which the horizon argument cannot cover. Refuse
					// loudly rather than risk a silent divergence.
					return run.abort(fmt.Errorf("simnet: internal: zero-duration cross-shard transmission (node %d, dim %d, t=%g) defeats the epoch horizon %g",
						st.dest, st.a.fromDim, st.a.at, run.horizon))
				}
				dest := e.nodes[st.dest]
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
		for i := range run.shards {
			live -= run.shards[i].doneCount + run.shards[i].crashCount
			e.crashedCount += run.shards[i].crashCount
			run.shards[i].doneCount, run.shards[i].crashCount = 0, 0
		}
	}
	return run.finish()
}

// eachShard runs f on every shard, one goroutine per shard (inline when
// there is only one), and waits for all of them.
func (run *shardRun) eachShard(f func(*shard)) {
	if len(run.shards) == 1 {
		f(&run.shards[0])
		return
	}
	var wg sync.WaitGroup
	for i := range run.shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			f(sh)
		}(&run.shards[i])
	}
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
// all shards, or (-1) when nothing is executable.
func (run *shardRun) globalMin() (float64, int) {
	bestT, best := math.Inf(1), -1
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
// everything a shard executed past it is discarded.
func (run *shardRun) commit() error {
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
	all := run.shards[0].recs // one shard: already in canonical order
	if len(run.shards) > 1 {
		all = run.sortBuf[:0]
		for i := range run.shards {
			all = append(all, run.shards[i].recs...)
		}
		slices.SortStableFunc(all, func(a, b opRec) int { return cmp.Compare(a.act, b.act) })
		run.sortBuf = all[:0]
	}
	var err error
	for i := range all {
		run.applyRec(&all[i])
		if err = all[i].err; err != nil {
			break
		}
	}
	for i := range run.shards {
		run.shards[i].recs = run.shards[i].recs[:0]
		run.shards[i].events = run.shards[i].events[:0]
	}
	return err
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
