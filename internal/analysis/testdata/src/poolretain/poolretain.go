// Package poolretain exercises the poolretain pass: Recycle(m) returns m's
// buffers to the engine's pool, so a node program must not use m (or an
// alias of its Data/Parts) after the recycle point, and must not store a
// recycled buffer into captured state without copying it first.
package poolretain

// Part mimics fabric.Part.
type Part struct{ N int }

// Msg mimics fabric.Msg: a payload plus optional block boundaries.
type Msg struct {
	Data  []float64
	Parts []Part
}

// Clone returns a deep copy whose buffers are independent of m's.
func (m Msg) Clone() Msg {
	return Msg{
		Data:  append([]float64(nil), m.Data...),
		Parts: append([]Part(nil), m.Parts...),
	}
}

// Node mimics simnet.Node for the pass's syntactic call-shape detection.
type Node struct{ id uint64 }

// ID returns the node address.
func (nd *Node) ID() uint64 { return nd.id }

// AllocData mimics the pooled payload allocator.
func (nd *Node) AllocData(n int) []float64 { return make([]float64, n) }

// Recv mimics a blocking receive of a pooled message.
func (nd *Node) Recv(d int) Msg { return Msg{Data: make([]float64, 4)} }

// Recycle mimics returning m's buffers to the engine's pool.
func (nd *Node) Recycle(m Msg) {}

// Engine mimics simnet.Engine.
type Engine struct{}

// Run mimics (*simnet.Engine).Run.
func (e *Engine) Run(prog func(nd *Node)) error { return nil }

// BadRetain stores a received buffer into captured state and then recycles
// it: the pool will hand the backing array to someone else.
func BadRetain(e *Engine) [][]float64 {
	got := make([][]float64, 8)
	_ = e.Run(func(nd *Node) {
		m := nd.Recv(0)
		got[nd.ID()] = m.Data // retained past the recycle point
		nd.Recycle(m)
	})
	return got
}

// BadUseAfter reads a message after recycling it.
func BadUseAfter(e *Engine) {
	_ = e.Run(func(nd *Node) {
		m := nd.Recv(1)
		nd.Recycle(m)
		sum := 0.0
		for _, v := range m.Data { // use after recycle
			sum += v
		}
		_ = sum
	})
}

// BadAliasEscape retains an alias of the recycled buffer: the slice
// expression shares m's backing array.
func BadAliasEscape(e *Engine) [][]float64 {
	out := make([][]float64, 8)
	_ = e.Run(func(nd *Node) {
		m := nd.Recv(2)
		head := m.Data[:2]
		nd.Recycle(m)
		out[nd.ID()] = head // alias of a recycled buffer
	})
	return out
}

// BadCompositeRecycle recycles a pool-allocated buffer via a Msg literal
// while a captured slice still points at it.
func BadCompositeRecycle(e *Engine) [][]float64 {
	kept := make([][]float64, 8)
	_ = e.Run(func(nd *Node) {
		data := nd.AllocData(4)
		kept[nd.ID()] = data // retained past the recycle point below
		nd.Recycle(Msg{Data: data})
	})
	return kept
}

// GoodCopy retains a copy, not the pooled buffer itself.
func GoodCopy(e *Engine) [][]float64 {
	out := make([][]float64, 8)
	_ = e.Run(func(nd *Node) {
		m := nd.Recv(0)
		out[nd.ID()] = append([]float64(nil), m.Data...) // fresh backing array
		nd.Recycle(m)
	})
	return out
}

// GoodClone retains a deep copy made before the recycle point.
func GoodClone(e *Engine) []Msg {
	out := make([]Msg, 8)
	_ = e.Run(func(nd *Node) {
		m := nd.Recv(0)
		out[nd.ID()] = m.Clone()
		nd.Recycle(m)
	})
	return out
}

// GoodScratchLoop recycles each message after its last use; nothing
// escapes the iteration.
func GoodScratchLoop(e *Engine) {
	_ = e.Run(func(nd *Node) {
		acc := 0.0
		for d := 0; d < 3; d++ {
			m := nd.Recv(d)
			for _, v := range m.Data {
				acc += v
			}
			nd.Recycle(m)
		}
		_ = acc
	})
}

// GoodRetainUnrecycled keeps a buffer it never recycles: ownership stays
// with the program, so retention is legitimate.
func GoodRetainUnrecycled(e *Engine) [][]float64 {
	out := make([][]float64, 8)
	_ = e.Run(func(nd *Node) {
		out[nd.ID()] = nd.Recv(0).Data
	})
	return out
}

// GoodPartsOnly recycles only the Parts buffer of a message whose Data
// lives on; field-granular recycling is deliberately not tracked.
func GoodPartsOnly(e *Engine) [][]float64 {
	out := make([][]float64, 8)
	_ = e.Run(func(nd *Node) {
		m := nd.Recv(0)
		nd.Recycle(Msg{Parts: m.Parts})
		out[nd.ID()] = m.Data
	})
	return out
}

// Suppressed shows an annotated intentional retention (the debug-poison
// probe pattern: the test asserts the retained buffer was NaN-filled).
func Suppressed(e *Engine) [][]float64 {
	probe := make([][]float64, 8)
	_ = e.Run(func(nd *Node) {
		data := nd.AllocData(4)
		probe[nd.ID()] = data //cubevet:ignore poolretain -- fixture: poison probe retains on purpose
		nd.Recycle(Msg{Data: data})
	})
	return probe
}

// Handle mimics the backend-neutral fabric.Node interface; it is
// deliberately not named Node so only the method-set match (Send, Recv,
// Exchange) can mark closures over it as node programs.
type Handle interface {
	ID() uint64
	AllocData(n int) []float64
	Send(d int, m Msg)
	Exchange(d int, m Msg) Msg
	Recv(d int) Msg
	Recycle(m Msg)
}

// Fabric mimics a backend engine whose Run takes the interface form of a
// node program.
type Fabric struct{}

// Run mimics (fabric.Fabric).Run.
func (f *Fabric) Run(prog func(nd Handle)) error { return nil }

// BadIfaceUseAfter reads a message after recycling it, through the
// backend-neutral interface.
func BadIfaceUseAfter(f *Fabric) {
	_ = f.Run(func(nd Handle) {
		m := nd.Recv(1)
		nd.Recycle(m)
		_ = m.Data[0] // use after recycle through the interface
	})
}

// BadIfaceRetain stores a pooled buffer into captured state and recycles it,
// all through the interface.
func BadIfaceRetain(f *Fabric) [][]float64 {
	got := make([][]float64, 8)
	_ = f.Run(func(nd Handle) {
		m := nd.Recv(0)
		got[nd.ID()] = m.Data // retained past the recycle point
		nd.Recycle(m)
	})
	return got
}

// GoodIfaceCopy retains a copy, not the pooled buffer itself.
func GoodIfaceCopy(f *Fabric) [][]float64 {
	out := make([][]float64, 8)
	_ = f.Run(func(nd Handle) {
		m := nd.Recv(0)
		out[nd.ID()] = append([]float64(nil), m.Data...)
		nd.Recycle(m)
	})
	return out
}
