package livenet

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"boolcube/internal/fabric"
	"boolcube/internal/machine"
)

// Node is the per-processor handle of the live transport: one real
// goroutine per cube node. It implements fabric.Node; its methods may only
// be called from within the program function passed to Run, on the node's
// own goroutine.
type Node struct {
	id  uint64
	eng *Engine

	// Inbound queues, one FIFO per dimension, guarded by mu; cond is
	// signaled on every delivery and on abort. Queues are unbounded — like
	// the simulation, Send never blocks on the receiver — so the port
	// semaphores are the only admission control.
	mu      sync.Mutex
	cond    *sync.Cond
	queues  [][]arrival
	waiting bool // blocked in Recv/RecvAny (stall diagnosis)
	waitDim int  // dimension waited on; -1 for RecvAny

	// sendSem holds the node's send-port tokens: one semaphore total on a
	// one-port machine, one per dimension with n-port communication. A send
	// holds its port (and the directed link's semaphore) for the duration
	// of the handoff.
	sendSem []chan struct{}

	// Crash-stop state (crash.go): crashed is set and crashCh closed when
	// the node's kill timer fires; every blocking point observes them and
	// unwinds with the crash sentinel. finished marks a program that
	// returned (past harm); lastBeat is the heartbeat stamp (µs since Run)
	// the failure detector samples.
	crashed  atomic.Bool
	crashCh  chan struct{}
	finished atomic.Bool
	lastBeat atomic.Int64

	failure error
}

// ID returns the node's cube address.
func (nd *Node) ID() uint64 { return nd.id }

// Dims returns the cube dimension n.
func (nd *Node) Dims() int { return nd.eng.n }

// Nodes returns the node count N.
func (nd *Node) Nodes() int { return nd.eng.nodesCount }

// Clock returns wall-clock µs since Run started.
func (nd *Node) Clock() float64 { return nd.eng.now() }

// Params returns the machine model in force.
func (nd *Node) Params() machine.Params { return nd.eng.params }

// Neighbor returns the node's neighbor across dimension d.
func (nd *Node) Neighbor(d int) uint64 {
	nd.checkDim(d)
	return nd.id ^ 1<<uint(d)
}

// nodeAbort unwinds a node goroutine on a typed failure; the goroutine
// wrapper recovers it and surfaces err as the program's failure.
type nodeAbort struct{ err error }

// Fail aborts the node's program with a typed error: the engine unwinds
// every node and Run returns err as-is.
func (nd *Node) Fail(err error) {
	if err == nil {
		panic("livenet: Fail(nil)")
	}
	panic(&nodeAbort{err: err}) //cubevet:ignore liberrors -- typed unwind, recovered by the engine wrapper
}

// checkAbort unwinds the node when it has crash-stopped or the engine has
// already failed.
func (nd *Node) checkAbort() {
	if nd.crashed.Load() {
		panic(errCrashed) //cubevet:ignore liberrors -- control-flow sentinel, recovered by the engine wrapper
	}
	if nd.eng.aborted.Load() {
		panic(errPoisoned) //cubevet:ignore liberrors -- control-flow sentinel, recovered by the engine wrapper
	}
}

func (nd *Node) checkDim(d int) {
	if d < 0 || d >= nd.eng.n {
		panic(fmt.Sprintf("livenet: node %d: dimension %d out of range [0,%d)", nd.id, d, nd.eng.n))
	}
}

// acquire takes a cap-1 semaphore, unwinding on crash-stop or engine abort
// so a token holder that died cannot wedge its peers forever.
func (nd *Node) acquire(sem chan struct{}) {
	select {
	case sem <- struct{}{}:
	case <-nd.crashCh:
		panic(errCrashed) //cubevet:ignore liberrors -- control-flow sentinel, recovered by the engine wrapper
	case <-nd.eng.abortCh:
		panic(errPoisoned) //cubevet:ignore liberrors -- control-flow sentinel, recovered by the engine wrapper
	}
}

// sleep pauses the node's program for dt µs of real time, unwinding early
// on crash-stop or engine abort so a sleeping node cannot outlive the run.
func (nd *Node) sleep(dt float64) {
	if dt <= 0 {
		return
	}
	t := time.NewTimer(time.Duration(dt * float64(time.Microsecond)))
	defer t.Stop()
	select {
	case <-t.C:
	case <-nd.crashCh:
		panic(errCrashed) //cubevet:ignore liberrors -- control-flow sentinel, recovered by the engine wrapper
	case <-nd.eng.abortCh:
		panic(errPoisoned) //cubevet:ignore liberrors -- control-flow sentinel, recovered by the engine wrapper
	}
}

// Send transmits m to the neighbor across dimension dim, transferring
// ownership of the message's buffers. An injected failure past the retry
// budget aborts the program with the typed *fabric.FaultError.
func (nd *Node) Send(dim int, m fabric.Msg) {
	if err := nd.TrySend(dim, m); err != nil {
		panic(&nodeAbort{err: err}) //cubevet:ignore liberrors -- typed unwind, recovered by the engine wrapper
	}
}

// TrySend is Send, but an injected failure (link down past the retry
// budget, every retransmission dropped) is returned as a *fabric.FaultError
// instead of aborting the program. The retry/backoff budget has been
// consumed in real time when TrySend returns.
func (nd *Node) TrySend(dim int, m fabric.Msg) error {
	nd.checkDim(dim)
	nd.checkAbort()
	e := nd.eng
	bytes := len(m.Data) * e.params.ElemBytes
	_, startups := e.params.SendTime(bytes)
	li := e.linkIndex(nd.id, dim)

	if e.faults != nil {
		if err := nd.clearFaults(dim, li, bytes, startups); err != nil {
			e.faulted.Add(1)
			return err
		}
	}

	// Port-model admission: hold the send port and the directed link for
	// the handoff. Each directed link has a single sender, so the link
	// token formalizes wire exclusivity rather than arbitrating peers.
	port := e.portIndex(dim)
	nd.acquire(nd.sendSem[port])
	nd.acquire(e.linkSem[li])
	now := e.now()
	e.chargeLink(li, bytes, startups)
	e.sends.Add(1)
	seq := e.seq.Add(1)

	dest := e.nodes[nd.id^1<<uint(dim)]
	dest.mu.Lock()
	dest.queues[dim] = append(dest.queues[dim], arrival{msg: m, seq: seq})
	dest.cond.Broadcast()
	dest.mu.Unlock()

	<-e.linkSem[li]
	<-nd.sendSem[port]
	e.trace(fabric.TraceEvent{Node: nd.id, Kind: "send", Dim: dim, Bytes: bytes, Start: now, End: e.now()})
	e.progress.Add(1)
	return nil
}

// clearFaults runs the transmission attempt loop under fault injection,
// mirroring the simulation's semantics on the wall clock: transient
// link-down windows are waited out in real time and flaky drops
// retransmitted after the backoff, each consuming one attempt of the retry
// budget; a dropped frame still occupied the wire and is charged to the
// volume statistics. Returns nil when an attempt went through, or the
// typed *fabric.FaultError once the budget is exhausted.
func (nd *Node) clearFaults(dim, li, bytes, startups int) error {
	e := nd.eng
	attempts := 0
	for {
		attempts++
		now := e.now()
		up, nextUp := e.faults.LinkState(nd.id, dim, now)
		if !up {
			e.trace(fabric.TraceEvent{Node: nd.id, Kind: "drop", Dim: dim, Start: now, End: now,
				Attempt: attempts, DownUntil: nextUp})
			if math.IsInf(nextUp, 1) || attempts >= e.retry.Attempts {
				return &fabric.FaultError{From: nd.id, To: nd.id ^ 1<<uint(dim), Dim: dim,
					At: now, Attempts: attempts, Err: fabric.ErrLinkDown}
			}
			e.retries.Add(1)
			wait := e.retry.Backoff
			if d := nextUp - now; d > wait {
				wait = d
			}
			nd.sleep(wait)
			continue
		}
		nd.checkAbort()
		e.linkAttempts[li]++
		if !e.faults.Drop(nd.id, dim, e.linkAttempts[li]) {
			return nil
		}
		// The dropped frame still occupied the wire: charge the volume
		// statistics, then retransmit after the backoff.
		e.chargeLink(li, bytes, startups)
		e.drops.Add(1)
		e.trace(fabric.TraceEvent{Node: nd.id, Kind: "drop", Dim: dim, Bytes: bytes, Start: now, End: e.now(),
			Attempt: attempts})
		if attempts >= e.retry.Attempts {
			return &fabric.FaultError{From: nd.id, To: nd.id ^ 1<<uint(dim), Dim: dim,
				At: now, Attempts: attempts, Err: fabric.ErrRetryBudget}
		}
		e.retries.Add(1)
		nd.sleep(e.retry.Backoff)
	}
}

// chargeLink books one transmission's volume on the directed link and the
// global counters. Shared by delivered sends and dropped frames, exactly
// like the simulation's accounting.
func (e *Engine) chargeLink(li, bytes, startups int) {
	e.linkBytes[li] += int64(bytes)
	e.linkUsed[li] = true
	e.startups.Add(int64(startups))
	e.bytes.Add(int64(bytes))
}

// Recv blocks until a message arrives from the neighbor across dimension
// dim and returns it (FIFO per link).
func (nd *Node) Recv(dim int) fabric.Msg {
	nd.checkDim(dim)
	nd.mu.Lock()
	for len(nd.queues[dim]) == 0 {
		if nd.crashed.Load() {
			nd.mu.Unlock()
			panic(errCrashed) //cubevet:ignore liberrors -- control-flow sentinel, recovered by the engine wrapper
		}
		if nd.eng.aborted.Load() {
			nd.mu.Unlock()
			panic(errPoisoned) //cubevet:ignore liberrors -- control-flow sentinel, recovered by the engine wrapper
		}
		nd.waiting, nd.waitDim = true, dim
		nd.cond.Wait()
	}
	nd.waiting = false
	a := nd.queues[dim][0]
	nd.queues[dim][0] = arrival{}
	nd.queues[dim] = nd.queues[dim][1:]
	nd.mu.Unlock()
	return nd.finishRecv(a, dim)
}

// RecvAny blocks until a message is available on any dimension and returns
// the earliest-sent one (by global send sequence).
func (nd *Node) RecvAny() fabric.Msg {
	nd.mu.Lock()
	for {
		bestDim := -1
		var bestSeq int64
		for d := range nd.queues {
			if len(nd.queues[d]) == 0 {
				continue
			}
			if s := nd.queues[d][0].seq; bestDim == -1 || s < bestSeq {
				bestDim, bestSeq = d, s
			}
		}
		if bestDim >= 0 {
			nd.waiting = false
			a := nd.queues[bestDim][0]
			nd.queues[bestDim][0] = arrival{}
			nd.queues[bestDim] = nd.queues[bestDim][1:]
			nd.mu.Unlock()
			return nd.finishRecv(a, bestDim)
		}
		if nd.crashed.Load() {
			nd.mu.Unlock()
			panic(errCrashed) //cubevet:ignore liberrors -- control-flow sentinel, recovered by the engine wrapper
		}
		if nd.eng.aborted.Load() {
			nd.mu.Unlock()
			panic(errPoisoned) //cubevet:ignore liberrors -- control-flow sentinel, recovered by the engine wrapper
		}
		nd.waiting, nd.waitDim = true, -1
		nd.cond.Wait()
	}
}

// finishRecv audits and traces one delivered message. The transport-level
// audit is always on: a whole-payload checksum stamped at injection must
// match on delivery, or the run aborts with a typed *fabric.AuditError.
func (nd *Node) finishRecv(a arrival, dim int) fabric.Msg {
	nd.checkAbort()
	m := a.msg
	if m.Sum != 0 {
		if got := fabric.Checksum(m.Data); got != m.Sum {
			nd.Fail(&fabric.AuditError{Node: nd.id, Src: m.Src, Dst: m.Dst,
				What: "transport delivery", Want: m.Sum, Got: got})
		}
	}
	e := nd.eng
	now := e.now()
	e.trace(fabric.TraceEvent{Node: nd.id, Kind: "recv", Dim: dim,
		Bytes: len(m.Data) * e.params.ElemBytes, Start: now, End: now})
	e.progress.Add(1)
	return m
}

// Exchange sends m across dim and receives the partner's message from the
// same dimension.
func (nd *Node) Exchange(dim int, m fabric.Msg) fabric.Msg {
	nd.Send(dim, m)
	return nd.Recv(dim)
}

// Copy charges the logical volume of a local copy of b bytes. No real time
// is spent: copy cost is a virtual-model concept (CopyTime stays 0 and is
// stripped by Stats.Logical), but the byte count is part of the logical
// statistics both backends agree on.
func (nd *Node) Copy(b int) {
	if b < 0 {
		panic(fmt.Sprintf("livenet: negative copy size %d", b))
	}
	nd.checkAbort()
	nd.eng.copyBytes.Add(int64(b))
	nd.eng.progress.Add(1)
}

// Advance sleeps dt µs of real time — the live interpretation of "the node
// computes for dt µs".
func (nd *Node) Advance(dt float64) {
	if dt < 0 {
		panic(fmt.Sprintf("livenet: negative time advance %v", dt))
	}
	nd.checkAbort()
	nd.sleep(dt)
	nd.eng.progress.Add(1)
}

// AllocData returns a payload buffer of length n. Livenet does not pool:
// buffers cross real goroutines, so they go to the garbage collector, and
// Recycle is a no-op.
func (nd *Node) AllocData(n int) []float64 { return make([]float64, n) }

// AllocParts returns a Parts buffer of length n (not pooled; see AllocData).
func (nd *Node) AllocParts(n int) []fabric.Part { return make([]fabric.Part, n) }

// Recycle is a no-op: livenet buffers are garbage-collected. The ownership
// contract still applies — callers must not touch a recycled message's
// buffers, so programs stay portable to pooling backends.
func (nd *Node) Recycle(m fabric.Msg) {}
