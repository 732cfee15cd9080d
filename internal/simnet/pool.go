package simnet

import (
	"math"
	"math/bits"

	"boolcube/internal/fabric"
)

// bufPool recycles message payload buffers within one shard. Buffers are
// size-classed by power-of-two capacity, so a recycled buffer satisfies any
// later request of equal or smaller size without reallocation. Each shard
// owns one pool for the length of one Run and needs no lock: a shard's nodes
// only ever run on that shard's worker, and drainAll runs on the coordinator
// while it is alone — the fact the inbound-queue slot arena (inQueue) relies
// on too. Buffers migrate with their messages: a buffer received in shard B
// is recycled into B's pool, whichever shard allocated it.
//
// Buffer identity never influences virtual time, so pooling is invisible to
// the determinism contract: traces and Stats are bit-identical with or
// without recycling.
type bufPool struct {
	data  [maxPoolClass][][]float64
	parts [maxPoolClass][][]fabric.Part
}

// maxPoolClass bounds the pooled size classes at 2^24 elements (128 MB of
// float64); larger buffers bypass the pool.
const maxPoolClass = 25

// classFor returns the size class whose buffers hold at least n elements.
func classFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

func (p *bufPool) getData(n int) []float64 {
	c := classFor(n)
	if c < maxPoolClass {
		if l := len(p.data[c]); l > 0 {
			buf := p.data[c][l-1]
			p.data[c] = p.data[c][:l-1]
			return buf[:n]
		}
		return make([]float64, n, 1<<uint(c))
	}
	return make([]float64, n)
}

func (p *bufPool) putData(s []float64) {
	c := capClass(cap(s))
	if c < 0 {
		return
	}
	p.data[c] = append(p.data[c], s[:0])
}

func (p *bufPool) getParts(n int) []fabric.Part {
	c := classFor(n)
	if c < maxPoolClass {
		if l := len(p.parts[c]); l > 0 {
			buf := p.parts[c][l-1]
			p.parts[c] = p.parts[c][:l-1]
			return buf[:n]
		}
		return make([]fabric.Part, n, 1<<uint(c))
	}
	return make([]fabric.Part, n)
}

func (p *bufPool) putParts(s []fabric.Part) {
	c := capClass(cap(s))
	if c < 0 {
		return
	}
	p.parts[c] = append(p.parts[c], s[:0])
}

// capClass returns the class a buffer of the given capacity is filed under
// (floor log2, so every buffer in class c has capacity >= 2^c), or -1 for
// buffers the pool refuses (empty backing arrays, oversized buffers).
func capClass(c int) int {
	if c < 1 {
		return -1
	}
	cl := bits.Len(uint(c)) - 1
	if cl >= maxPoolClass {
		return -1
	}
	return cl
}

// AllocData returns a payload buffer of length n from the pool of the node's
// shard. The contents are unspecified — callers overwrite every element they
// send. Ownership follows the message it is packed into: once sent, the
// receiver owns it (and may Recycle it); a buffer never sent may be recycled
// by its allocator.
func (nd *Node) AllocData(n int) []float64 {
	return nd.sh.pool.getData(n)
}

// AllocParts returns a Parts buffer of length n from the pool of the node's
// shard, under the same ownership rules as AllocData.
func (nd *Node) AllocParts(n int) []fabric.Part {
	return nd.sh.pool.getParts(n)
}

// Recycle returns m's buffers (Data and Parts) to the pool of the node's
// shard. The caller must own the message — normally because it received it
// — and must not touch the buffers afterwards: the pool hands them to the
// next allocation, on any node of the shard. Retaining a view of m.Data or
// m.Parts past Recycle is an aliasing bug; copy (or Clone) first. Under
// SIMNET_DEBUG the recycled payload is poisoned with NaN so a retained alias
// is loud instead of silently corrupt.
func (nd *Node) Recycle(m fabric.Msg) {
	p := &nd.sh.pool
	if m.Data != nil {
		if nd.eng.debug {
			for i := range m.Data {
				m.Data[i] = math.NaN()
			}
		}
		p.putData(m.Data)
	}
	if m.Parts != nil {
		p.putParts(m.Parts)
	}
}
