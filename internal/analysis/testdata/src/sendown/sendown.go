// Package sendown exercises the sendown pass: Send/TrySend/Exchange
// transfer a message's buffers (Data, Parts, Path, Tags) to the receiver,
// so the sender must not touch the payload — or an alias of it — after the
// call. Scalar fields (Src, Dst, Tag, Rel, Sum) live in the sender's own
// Msg copy and stay readable; rebinding the variable to a fresh message
// (m = nd.Exchange(d, m), m = nd.Recv(d)) resets tracking.
package sendown

// Part mimics fabric.Part.
type Part struct{ N int }

// Msg mimics fabric.Msg: scalar header fields plus owned buffers.
type Msg struct {
	Src, Dst uint64
	Tag      int
	Rel      uint64
	Sum      uint64
	Path     []int
	Parts    []Part
	Data     []float64
}

// Clone returns a deep copy whose buffers are independent of m's.
func (m Msg) Clone() Msg {
	return Msg{Data: append([]float64(nil), m.Data...)}
}

// Node mimics simnet.Node for the pass's call-shape detection.
type Node struct{ id uint64 }

// ID returns the node address.
func (nd *Node) ID() uint64 { return nd.id }

// Send mimics the blocking ownership-transferring send.
func (nd *Node) Send(dim int, m Msg) {}

// TrySend mimics the non-aborting send.
func (nd *Node) TrySend(dim int, m Msg) error { return nil }

// Exchange mimics the paired send+receive; the returned message is fresh.
func (nd *Node) Exchange(dim int, m Msg) Msg { return Msg{} }

// Recv mimics a blocking receive.
func (nd *Node) Recv(dim int) Msg { return Msg{} }

// BadUseAfterSend reads the payload after the ownership hand-off.
func BadUseAfterSend(nd *Node) float64 {
	m := nd.Recv(0)
	nd.Send(0, m)
	return m.Data[0] // payload no longer ours
}

// BadDoubleSend sends the same message twice: two owners.
func BadDoubleSend(nd *Node) {
	m := nd.Recv(0)
	nd.Send(0, m)
	nd.Send(1, m) // second transfer of a sent message
}

// BadAliasAfterSend keeps a payload alias across the send.
func BadAliasAfterSend(nd *Node) float64 {
	m := nd.Recv(0)
	d := m.Data
	nd.TrySend(0, m)
	return d[0] // alias of a sent buffer
}

// GoodScalarAfterSend reads only value-copied header fields.
func GoodScalarAfterSend(nd *Node) uint64 {
	m := nd.Recv(0)
	nd.Send(0, m)
	return m.Src + uint64(m.Tag) + m.Rel + m.Sum
}

// GoodExchangeRebind replaces the message wholesale in one statement.
func GoodExchangeRebind(nd *Node) float64 {
	m := nd.Recv(0)
	m = nd.Exchange(0, m)
	return m.Data[0] // the fresh incoming message
}

// GoodRebindRecv re-receives into the same variable after sending.
func GoodRebindRecv(nd *Node) float64 {
	m := nd.Recv(0)
	nd.Send(0, m)
	m = nd.Recv(1)
	return m.Data[0]
}

// GoodCloneSend sends a deep copy; the original stays owned.
func GoodCloneSend(nd *Node) float64 {
	m := nd.Recv(0)
	nd.Send(0, m.Clone())
	return m.Data[0]
}

// GoodUseBeforeSend touches the payload only before the hand-off.
func GoodUseBeforeSend(nd *Node) {
	m := nd.Recv(0)
	m.Tag = 7
	m.Data[0] = 1
	nd.Send(0, m)
}

// Suppressed shows an annotated intentional use (loopback delivery in a
// single-node test harness keeps the buffer alive).
func Suppressed(nd *Node) float64 {
	m := nd.Recv(0)
	nd.Send(0, m)
	return m.Data[0] //cubevet:ignore sendown -- fixture: loopback harness, receiver is this node
}

// Handle mimics the backend-neutral fabric.Node interface. It is
// deliberately not named Node: only the method-set match (Send, Recv,
// Exchange) can put functions holding it under the ownership contract.
type Handle interface {
	ID() uint64
	Send(dim int, m Msg)
	TrySend(dim int, m Msg) error
	Exchange(dim int, m Msg) Msg
	Recv(dim int) Msg
}

// BadIfaceUseAfterSend reads the payload after handing it off through the
// backend-neutral interface.
func BadIfaceUseAfterSend(nd Handle) float64 {
	m := nd.Recv(0)
	nd.Send(0, m)
	return m.Data[0] // payload transferred through the interface
}

// BadIfaceAliasAfterSend keeps a payload alias across an interface send.
func BadIfaceAliasAfterSend(nd Handle) float64 {
	m := nd.Recv(0)
	d := m.Data
	nd.TrySend(0, m)
	return d[0] // alias of a buffer sent through the interface
}

// GoodIfaceExchangeRebind replaces the message wholesale through the
// interface; the fresh incoming message takes over the name.
func GoodIfaceExchangeRebind(nd Handle) float64 {
	m := nd.Recv(0)
	m = nd.Exchange(0, m)
	return m.Data[0]
}

// GoodIfaceScalar reads only value-copied header fields after an interface
// send.
func GoodIfaceScalar(nd Handle) uint64 {
	m := nd.Recv(0)
	nd.Send(0, m)
	return m.Src + m.Sum
}
