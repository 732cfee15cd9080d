package plan

import (
	"fmt"
	"slices"

	"boolcube/internal/field"
)

// Moves precomputes, for a data rearrangement from layout `before` to layout
// `after`, which local slots each processor sends to and receives from every
// other processor. Both sides enumerate each (srcProc, dstProc) transfer set
// in ascending element-address order, so payloads travel as bare data with
// no per-element headers — exactly like the machines the paper measures.
//
// Building a Moves is the O(P·Q) part of planning; replaying it (Gather and
// Scatter) touches only the slots actually moved. A Moves is immutable after
// construction and safe for concurrent readers.
type Moves struct {
	before, after field.Layout
	out           index // by source processor: destinations and source slots
	in            index // by destination processor: sources and destination slots
	// dests[srcProc] = destinations other than srcProc, ascending.
	dests [][]uint64
}

// index is one side of a move-set in compressed-row form over one flat slot
// arena: processor proc's peers are peer[first[proc]:first[proc+1]],
// ascending, and entry i's local slots are slots[off[i]:off[i+1]] in
// canonical order.
type index struct {
	first []int
	peer  []uint64
	off   []int
	slots []int
}

// of returns the local slots proc exchanges with peer (nil when none).
func (x *index) of(proc, peer uint64) []int {
	lo := x.first[proc]
	i, ok := slices.BinarySearch(x.peer[lo:x.first[proc+1]], peer)
	if !ok {
		return nil
	}
	return x.slots[x.off[lo+i]:x.off[lo+i+1]]
}

// NewMoves builds the move-set. If transpose is true, element (u, v) of the
// before-matrix is placed as element (v, u) of the after-matrix (whose
// layout must have the transposed shape); otherwise the shapes must match
// and elements keep their indices (a pure repartitioning).
//
// The construction is count → displacements → fill, one source processor at
// a time. Ascending local slot is ascending element address within a
// processor, so walking sources in order and each source's slots in order
// meets every (srcProc, dstProc) transfer set in canonical order on both
// sides, and no sort or per-element record is needed: a source's slots are
// counted per destination, its destinations sorted, and its segment of the
// out arena (every processor holds exactly LocalSize elements) carved up by
// the counts; the in arena fills behind one cursor per destination.
func NewMoves(before, after field.Layout, transpose bool) (*Moves, error) {
	bm, err := before.Map()
	if err != nil {
		return nil, fmt.Errorf("plan: invalid before layout: %w", err)
	}
	am, err := after.Map()
	if err != nil {
		return nil, fmt.Errorf("plan: invalid after layout: %w", err)
	}
	if transpose {
		if after.P != before.Q || after.Q != before.P {
			return nil, fmt.Errorf("plan: transpose needs transposed shapes, got %dx%d -> %dx%d",
				before.P, before.Q, after.P, after.Q)
		}
	} else {
		if after.P != before.P || after.Q != before.Q {
			return nil, fmt.Errorf("plan: repartition needs matching shapes, got %dx%d -> %dx%d",
				before.P, before.Q, after.P, after.Q)
		}
	}
	nb, lb, na, la := before.N(), before.LocalSize(), after.N(), after.LocalSize()
	// Map validated both layouts, so p+q <= 62 and the shifts below stay
	// under word size.
	p, q := uint(before.P), uint(before.Q)
	m := &Moves{before: before, after: after, dests: make([][]uint64, nb)}
	out, in := &m.out, &m.in
	out.first, out.slots = make([]int, nb+1), make([]int, nb*lb)
	in.first, in.slots = make([]int, na+1), make([]int, na*la)

	dp, ds := make([]uint64, lb), make([]int, lb) // where each source slot goes
	next := make([]int, na)                       // per destination: count, then out-arena cursor; zero between sources
	fill := make([]int, na)                       // per destination: in-arena cursor
	for d := range fill {
		fill[d] = d * la
	}
	var peers []uint64
	for sp := range nb {
		peers = peers[:0]
		base := bm.ProcPart(uint64(sp))
		for s := range dp {
			w := base | bm.LocalPart(uint64(s))
			if transpose {
				// (u || v) becomes (v || u): w rotated left by p within its
				// p+q bits (the paper's sh^p).
				w = w&^(^uint64(0)<<q)<<p | w>>q
			}
			d := am.Proc(w)
			if next[d] == 0 {
				peers = append(peers, d)
			}
			next[d]++
			dp[s], ds[s] = d, int(am.Local(w))
		}
		slices.Sort(peers)
		pos := sp * lb
		for _, d := range peers {
			out.peer, out.off = append(out.peer, d), append(out.off, pos)
			pos, next[d] = pos+next[d], pos
		}
		out.first[sp+1] = len(out.peer)
		for s, d := range dp {
			out.slots[next[d]], in.slots[fill[d]] = s, ds[s]
			next[d]++
			fill[d]++
		}
		for _, d := range peers {
			next[d] = 0
			in.first[d+1]++
		}
	}
	out.off = append(out.off, nb*lb)

	// The in index is the out index transposed; walking it in source order
	// lists every destination's sources ascending, as its arena was filled.
	// next (all zero again) counts the entries placed per destination.
	for d := range na {
		in.first[d+1] += in.first[d]
	}
	in.peer, in.off = make([]uint64, len(out.peer)), make([]int, len(out.peer)+1)
	arena := make([]uint64, 0, len(out.peer))
	for sp := range nb {
		start := len(arena)
		for i := out.first[sp]; i < out.first[sp+1]; i++ {
			d := out.peer[i]
			j := in.first[d] + next[d]
			next[d]++
			in.peer[j], in.off[j+1] = uint64(sp), out.off[i+1]-out.off[i]
			if d != uint64(sp) {
				arena = append(arena, d)
			}
		}
		m.dests[sp] = arena[start:len(arena):len(arena)]
	}
	for j := range in.peer {
		in.off[j+1] += in.off[j]
	}
	return m, nil
}

// MustMoves is NewMoves for internally constructed layout pairs whose
// validity is an invariant, not an input condition.
func MustMoves(before, after field.Layout, transpose bool) *Moves {
	m, err := NewMoves(before, after, transpose)
	if err != nil {
		panic(err.Error())
	}
	return m
}

// Before returns the source layout.
func (m *Moves) Before() field.Layout { return m.before }

// After returns the destination layout.
func (m *Moves) After() field.Layout { return m.after }

// Gather collects the payload srcProc sends to dstProc from its local
// array, in canonical order.
func (m *Moves) Gather(srcProc uint64, local []float64, dstProc uint64) []float64 {
	return m.gatherSlots(m.out.of(srcProc, dstProc), local)
}

// GatherRange collects the [off, off+n) sub-range of the canonical
// (srcProc, dstProc) payload — the chunk a single path of a multi-path
// route carries.
func (m *Moves) GatherRange(srcProc uint64, local []float64, dstProc uint64, off, n int) []float64 {
	slots := m.out.of(srcProc, dstProc)
	return m.gatherSlots(slots[off:off+n], local)
}

func (m *Moves) gatherSlots(slots []int, local []float64) []float64 {
	data := make([]float64, len(slots))
	m.gatherSlotsInto(slots, local, data)
	return data
}

func (m *Moves) gatherSlotsInto(slots []int, local, dst []float64) {
	for i, s := range slots {
		dst[i] = local[s]
	}
}

// GatherInto is Gather into a caller-provided buffer (len(dst) must equal
// PayloadLen(srcProc, dstProc)), so replay loops can gather every
// destination's payload into one preallocated arena.
func (m *Moves) GatherInto(srcProc uint64, local []float64, dstProc uint64, dst []float64) {
	slots := m.out.of(srcProc, dstProc)
	if len(slots) != len(dst) {
		panic("plan: gather buffer size does not match move-set")
	}
	m.gatherSlotsInto(slots, local, dst)
}

// GatherRangeInto is GatherRange into a caller-provided buffer of length n,
// so flow materialization can pack every payload into one arena instead of
// allocating per flow.
func (m *Moves) GatherRangeInto(srcProc uint64, local []float64, dstProc uint64, off, n int, dst []float64) {
	if len(dst) != n {
		panic("plan: gather buffer size does not match range")
	}
	slots := m.out.of(srcProc, dstProc)
	m.gatherSlotsInto(slots[off:off+n], local, dst)
}

// Scatter places a payload received from srcProc into the destination local
// array.
func (m *Moves) Scatter(dstProc uint64, local []float64, srcProc uint64, data []float64) {
	slots := m.in.of(dstProc, srcProc)
	if len(slots) != len(data) {
		panic("plan: payload size does not match move-set")
	}
	for i, s := range slots {
		local[s] = data[i]
	}
}

// ScatterRange places the [off, off+len(data)) sub-range of the canonical
// (srcProc, dstProc) payload into the destination local array — the
// receive-side counterpart of GatherRange, used when multi-path chunks are
// scattered per flow (e.g. after a failover pass abandons some of them).
func (m *Moves) ScatterRange(dstProc uint64, local []float64, srcProc uint64, off int, data []float64) {
	slots := m.in.of(dstProc, srcProc)
	if off < 0 || off+len(data) > len(slots) {
		panic("plan: payload range does not match move-set")
	}
	for i, s := range slots[off : off+len(data)] {
		local[s] = data[i]
	}
}

// Destinations lists the processors srcProc sends to (excluding itself),
// ascending. The returned slice is shared and must not be modified.
func (m *Moves) Destinations(srcProc uint64) []uint64 { return m.dests[srcProc] }

// PayloadLen returns the number of elements srcProc sends to dstProc.
func (m *Moves) PayloadLen(srcProc, dstProc uint64) int { return len(m.out.of(srcProc, dstProc)) }
