package simnet

import (
	"fmt"

	"boolcube/internal/fabric"
	"boolcube/internal/machine"
)

// ID returns the node's cube address.
func (nd *Node) ID() uint64 { return nd.id }

// Dims returns the cube dimension n.
func (nd *Node) Dims() int { return nd.eng.n }

// Nodes returns the node count N.
func (nd *Node) Nodes() int { return nd.eng.nodesCount }

// Clock returns the node's current virtual time in µs.
func (nd *Node) Clock() float64 { return nd.clock }

// Params returns the machine model in force.
func (nd *Node) Params() machine.Params { return nd.eng.params }

// Neighbor returns the node's neighbor across dimension d.
func (nd *Node) Neighbor(d int) uint64 {
	nd.checkDim(d)
	return nd.id ^ 1<<uint(d)
}

// submit parks the node at the operation it has just written into
// nd.pending and returns once the engine has executed it, with the error of
// a send that failed under fault injection. A receive's message comes back
// in nd.pending.msg (see result).
//
// The node first tries to execute the operation itself (tryEager,
// shard.go): while its shard's worker is waiting for this node to park, the
// node is the only one touching shard-owned state, so any operation that is
// provably inside the current epoch and whose choice cannot be changed by a
// not-yet-delivered arrival can run without the hand-off. Otherwise it
// yields to the worker; a false return means the engine is unwinding.
func (nd *Node) submit() error {
	if !nd.tryEager() && !nd.yield(struct{}{}) {
		panic(errPoisoned) //cubevet:ignore liberrors -- control-flow sentinel, recovered by the engine wrapper
	}
	return nd.opErr
}

// result hands a receive's message to the program and zeroes the slot, so
// the node pins no payload the program goes on to Recycle.
func (nd *Node) result() (m fabric.Msg) {
	m, nd.pending.msg = nd.pending.msg, fabric.Msg{}
	return m
}

// nodeAbort unwinds a node program when a Send fails under fault
// injection; the engine wrapper recovers it and surfaces err as the
// program's failure, so Run returns the typed *fabric.FaultError.
type nodeAbort struct{ err error }

// Fail aborts the node's program with a typed error: the engine unwinds
// every node and Run returns err as-is (so callers can errors.Is/As against
// it). This is how node programs surface protocol-level failures the engine
// cannot see — a delivery-audit mismatch, a malformed message — with the
// same clean, deterministic unwind a failed Send gets.
func (nd *Node) Fail(err error) {
	if err == nil {
		panic("simnet: Fail(nil)")
	}
	panic(&nodeAbort{err: err}) //cubevet:ignore liberrors -- typed unwind, recovered by the engine wrapper
}

// Send transmits m to the neighbor across dimension dim. The call returns
// when the transmission has been scheduled; the node's send port stays busy
// for the transmission duration, so consecutive sends serialize according
// to the machine's port model. If fault injection defeats the transmission
// (link down, retry budget exhausted) the node program is aborted and Run
// returns the typed *fabric.FaultError; programs that handle failures themselves
// use TrySend.
func (nd *Node) Send(dim int, m fabric.Msg) {
	if err := nd.TrySend(dim, m); err != nil {
		panic(&nodeAbort{err: err})
	}
}

// TrySend is Send, but an injected failure (link down past the retry
// budget, every retransmission dropped) is returned as a *fabric.FaultError
// instead of aborting the program. The retry/backoff budget has already
// been charged to the node's clock when TrySend returns.
func (nd *Node) TrySend(dim int, m fabric.Msg) error {
	nd.checkDim(dim)
	nd.pending.kind, nd.pending.dim, nd.pending.msg = opSend, dim, m
	return nd.submit()
}

// Recv blocks until a message arrives from the neighbor across dimension
// dim and returns it. Messages on one link are delivered in FIFO order.
func (nd *Node) Recv(dim int) fabric.Msg {
	nd.checkDim(dim)
	nd.pending.kind, nd.pending.dim = opRecv, dim
	_ = nd.submit() // only sends fail
	return nd.result()
}

// RecvAny blocks until a message arrives on any dimension and returns the
// earliest-arriving one; equal arrival times are ordered by the sender's
// send action time, then by sender id (see anyLess).
func (nd *Node) RecvAny() fabric.Msg {
	nd.pending.kind = opRecvAny
	_ = nd.submit()
	return nd.result()
}

// Exchange sends m across dim and receives the partner's message from the
// same dimension. With bi-directional links the send and receive overlap,
// so on a one-port machine an exchange costs the same as one send
// (Section 2 of the paper).
func (nd *Node) Exchange(dim int, m fabric.Msg) fabric.Msg {
	nd.Send(dim, m)
	return nd.Recv(dim)
}

// Copy charges the machine's local copy cost for b bytes (buffer packing or
// local rearrangement, Section 8.1).
func (nd *Node) Copy(b int) {
	if b < 0 {
		panic(fmt.Sprintf("simnet: negative copy size %d", b))
	}
	nd.pending.kind, nd.pending.bytes = opCopy, b
	_ = nd.submit()
}

// Advance moves the node's local clock forward by dt µs of computation.
func (nd *Node) Advance(dt float64) {
	if dt < 0 {
		panic(fmt.Sprintf("simnet: negative time advance %v", dt))
	}
	nd.pending.kind, nd.pending.dt = opAdvance, dt
	_ = nd.submit()
}

func (nd *Node) checkDim(d int) {
	if d < 0 || d >= nd.eng.n {
		panic(fmt.Sprintf("simnet: node %d: dimension %d out of range [0,%d)", nd.id, d, nd.eng.n))
	}
}
