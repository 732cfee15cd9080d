package plan

import (
	"fmt"
	"math"
	"slices"

	"boolcube/internal/field"
)

// Moves precomputes, for a data rearrangement from layout `before` to layout
// `after`, which local slots each processor sends to and receives from every
// other processor. Both sides enumerate each (srcProc, dstProc) transfer set
// in ascending element-address order, so payloads travel as bare data with
// no per-element headers — exactly like the machines the paper measures.
//
// A transfer set is a product of address-bit fields, so its local slots form
// a few arithmetic progressions; each side stores those runs, not one slot
// per element. Building a Moves is the O(P·Q) part of planning; replaying it
// (Gather and Scatter) touches only the slots actually moved. A Moves is
// immutable after construction and safe for concurrent readers.
type Moves struct {
	before, after field.Layout
	out           index // by source processor: destinations and source slots
	in            index // by destination processor: sources and destination slots
	// dests[srcProc] = destinations other than srcProc, ascending.
	dests [][]uint64
}

// run is an arithmetic progression of n local slots: start, start+stride,
// ... The stride of a one-slot run is meaningless.
type run struct{ start, stride, n int32 }

// index is one side of a move-set in compressed-row form: processor proc's
// peers are peer[first[proc]:first[proc+1]], ascending; entry i carries
// elements [off[i], off[i+1]) of the side's payload order, whose local slots
// are runs[at[i]:at[i+1]] read in canonical order.
type index struct {
	first []int
	peer  []uint64
	off   []int
	at    []int
	runs  []run
}

// of returns the runs and element count of what proc exchanges with peer
// (nil, 0 when nothing). When proc's peers are consecutive addresses — the
// ascending list spans exactly its length — peer's entry is found by
// subtraction; otherwise by binary search.
func (x *index) of(proc, peer uint64) ([]run, int) {
	lo := x.first[proc]
	peers := x.peer[lo:x.first[proc+1]]
	var i int
	if k := len(peers); k > 0 && peers[k-1]-peers[0] == uint64(k-1) {
		if peer < peers[0] || peer > peers[k-1] {
			return nil, 0
		}
		i = int(peer - peers[0])
	} else {
		var ok bool
		if i, ok = slices.BinarySearch(peers, peer); !ok {
			return nil, 0
		}
	}
	i += lo
	return x.runs[x.at[i]:x.at[i+1]], x.off[i+1] - x.off[i]
}

// span returns the runs of what proc exchanges with peer, checking that
// [off, off+n) lies inside it.
func (x *index) span(proc, peer uint64, off, n int) []run {
	runs, total := x.of(proc, peer)
	if off < 0 || n < 0 || off+n > total {
		panic("plan: payload range does not match move-set")
	}
	return runs
}

// copyRuns moves len(buf) elements between buf and the local slots that
// runs list, starting off elements into the runs' sequence: local into buf,
// or buf into local when scatter is set. A stride-1 run is one copy.
func copyRuns(runs []run, off int, local, buf []float64, scatter bool) {
	for _, r := range runs {
		if len(buf) == 0 {
			return
		}
		n := int(r.n)
		if off >= n {
			off -= n
			continue
		}
		stride := int(r.stride)
		s, c := int(r.start)+off*stride, min(n-off, len(buf))
		off = 0
		switch {
		case stride == 1 && scatter:
			copy(local[s:s+c], buf[:c])
		case stride == 1:
			copy(buf[:c], local[s:s+c])
		case scatter:
			for _, v := range buf[:c] {
				local[s] = v
				s += stride
			}
		default:
			for i := range buf[:c] {
				buf[i] = local[s]
				s += stride
			}
		}
		buf = buf[c:]
	}
}

// pairMaps compiles both layouts of a pair, or says why no move-set exists
// between them: a layout is invalid, or the shapes are not transposed
// (transpose) or not equal.
func pairMaps(before, after field.Layout, transpose bool) (bm, am field.Map, err error) {
	if bm, err = before.Map(); err != nil {
		return bm, am, fmt.Errorf("invalid before layout: %w", err)
	}
	if am, err = after.Map(); err != nil {
		return bm, am, fmt.Errorf("invalid after layout: %w", err)
	}
	if transpose && (after.P != before.Q || after.Q != before.P) {
		err = fmt.Errorf("transpose needs transposed shapes, got %dx%d -> %dx%d", before.P, before.Q, after.P, after.Q)
	} else if !transpose && (after.P != before.P || after.Q != before.Q) {
		err = fmt.Errorf("repartition needs matching shapes, got %dx%d -> %dx%d", before.P, before.Q, after.P, after.Q)
	}
	return bm, am, err
}

// NewMoves builds the move-set. If transpose is true, element (u, v) of the
// before-matrix is placed as element (v, u) of the after-matrix (whose
// layout must have the transposed shape); otherwise the shapes must match
// and elements keep their indices (a pure repartitioning).
//
// The construction is count → displacements → fill over blocks. field's
// Map.Block finds the largest k for which every aligned 2^k source slots
// travel together: one destination processor, destination slots 2^at apart.
// A block is then one run on each side (stride 1 out, stride 2^at in), and
// k = 0 is the per-element walk. Ascending local slot is ascending element
// address within a processor, so walking sources in order and each source's
// blocks in order meets every (srcProc, dstProc) transfer set in canonical
// order on both sides; consecutive blocks of a pair merge into one run when
// they continue its progression. The count pass sizes every array exactly;
// the fill pass walks each source once more, carves its out entries by
// destination, and places runs behind per-pair cursors.
func NewMoves(before, after field.Layout, transpose bool) (*Moves, error) {
	bm, am, err := pairMaps(before, after, transpose)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	nb, lb, na, la := before.N(), before.LocalSize(), after.N(), after.LocalSize()
	if lb > math.MaxInt32 || la > math.MaxInt32 {
		return nil, fmt.Errorf("plan: %d and %d elements per processor exceed the int32 slot range of a move-set", lb, la)
	}
	b := newBuilder(&bm, &am, before, transpose, lb, na)

	// Count: entries and runs in all, and per destination its entries
	// (in.first) and in-side runs (inAt).
	m := &Moves{before: before, after: after, dests: make([][]uint64, nb)}
	out, in := &m.out, &m.in
	out.first, in.first = make([]int, nb+1), make([]int, na+1)
	inAt := make([]int, na)
	entries, outRuns, selfPairs := 0, 0, 0
	for sp := range nb {
		b.walk(sp)
		b.merge(nil, nil)
		for _, d := range b.peers {
			o := &b.open[d]
			entries, outRuns = entries+1, outRuns+o.outAt
			in.first[d+1]++
			inAt[d] += o.inAt
			if d == uint64(sp) {
				selfPairs++
			}
			*o = pending{}
		}
	}

	// Displacements: in entries and runs are grouped by destination, so a
	// running sum turns the counts into each destination's first entry and
	// first run; inNext and inElem are its cursors during the fill.
	inRuns := 0
	for d := range na {
		in.first[d+1] += in.first[d]
		inAt[d], inRuns = inRuns, inRuns+inAt[d]
	}
	inNext, inElem := slices.Clone(in.first[:na]), make([]int, na)
	for d := range inElem {
		inElem[d] = d * la
	}
	out.peer, out.off, out.at, out.runs = make([]uint64, entries), make([]int, entries+1), make([]int, entries+1), make([]run, outRuns)
	in.peer, in.off, in.at, in.runs = make([]uint64, entries), make([]int, entries+1), make([]int, entries+1), make([]run, inRuns)
	dests := make([]uint64, 0, entries-selfPairs)

	// Fill: per source, count its pairs' runs again, carve its out entries in
	// destination order and each destination's next in entry, then merge the
	// recorded blocks into place.
	e, runAt := 0, 0
	for sp := range nb {
		b.walk(sp)
		b.merge(nil, nil)
		slices.Sort(b.peers)
		start, elem := len(dests), sp*lb
		for _, d := range b.peers {
			o := &b.open[d]
			j := inNext[d]
			inNext[d]++
			out.peer[e], out.off[e], out.at[e] = d, elem, runAt
			in.peer[j], in.off[j], in.at[j] = uint64(sp), inElem[d], inAt[d]
			elem, inElem[d] = elem+o.n, inElem[d]+o.n
			o.outAt, runAt = runAt, runAt+o.outAt
			o.inAt, inAt[d] = inAt[d], inAt[d]+o.inAt
			if d != uint64(sp) {
				dests = append(dests, d)
			}
			e++
		}
		out.first[sp+1] = e
		m.dests[sp] = dests[start:len(dests):len(dests)]
		b.merge(out.runs, in.runs)
		for _, d := range b.peers {
			b.open[d] = pending{}
		}
	}
	out.off[entries], out.at[entries] = nb*lb, outRuns
	in.off[entries], in.at[entries] = na*la, inRuns
	return m, nil
}

// builder walks one source processor's blocks for NewMoves. walk records
// where each block goes; merge folds the recorded blocks into runs.
type builder struct {
	bm, am    *field.Map
	p, q      uint
	transpose bool
	size      int   // slots per block, 2^k
	inStride  int32 // destination-slot stride inside a block, 2^at
	// Per block of the current source: destination and first destination slot.
	dst   []uint64
	dslot []int32
	open  []pending // per destination
	peers []uint64  // destinations of the current source, in order of first block
}

// pending is one (source, destination) pair during a walk: its element
// count, the run each side is still extending, and per side the closed-run
// count (counting) or the next run slot (filling).
type pending struct {
	n           int
	out, in     run
	outAt, inAt int
}

func newBuilder(bm, am *field.Map, before field.Layout, transpose bool, lb, na int) *builder {
	rot := 0
	if transpose {
		rot = before.P
	}
	k, at := bm.Block(am, rot)
	nblk := lb >> uint(k)
	// Map validated both layouts, so p+q <= 62 and every shift stays under
	// word size.
	return &builder{
		bm: bm, am: am, p: uint(before.P), q: uint(before.Q), transpose: transpose,
		size: 1 << uint(k), inStride: 1 << uint(at),
		dst: make([]uint64, nblk), dslot: make([]int32, nblk),
		open: make([]pending, na), peers: make([]uint64, 0, min(na, nblk)),
	}
}

// walk records the destination processor and first destination slot of
// every block of source sp, and each destination's element count.
func (b *builder) walk(sp int) {
	b.peers = b.peers[:0]
	base := b.bm.ProcPart(uint64(sp))
	for i := range b.dst {
		w := base | b.bm.LocalPart(uint64(i*b.size))
		if b.transpose {
			// (u || v) becomes (v || u): w rotated left by p within its p+q
			// bits (the paper's sh^p).
			w = w&^(^uint64(0)<<b.q)<<b.p | w>>b.q
		}
		d := b.am.Proc(w)
		if b.open[d].n == 0 {
			b.peers = append(b.peers, d)
		}
		b.open[d].n += b.size
		b.dst[i], b.dslot[i] = d, int32(b.am.Local(w))
	}
}

// merge folds the walked blocks, in order, into their pairs' runs and closes
// every pair's last runs. With nil arrays it only counts each pair's runs
// into outAt/inAt; otherwise it writes each closed run at its pair's cursor.
func (b *builder) merge(outRuns, inRuns []run) {
	size := int32(b.size)
	for i, d := range b.dst {
		o := &b.open[d]
		out := run{start: int32(i) * size, stride: 1, n: size}
		in := run{start: b.dslot[i], stride: b.inStride, n: size}
		if o.out.n == 0 {
			o.out, o.in = out, in
			continue
		}
		if !o.out.extend(out) {
			o.outAt = put(outRuns, o.outAt, o.out)
			o.out = out
		}
		if !o.in.extend(in) {
			o.inAt = put(inRuns, o.inAt, o.in)
			o.in = in
		}
	}
	for _, d := range b.peers {
		o := &b.open[d]
		o.outAt = put(outRuns, o.outAt, o.out)
		o.inAt = put(inRuns, o.inAt, o.in)
		o.out, o.in = run{}, run{}
	}
}

// put stores r at runs[at] unless only counting, and returns the next slot.
func put(runs []run, at int, r run) int {
	if runs != nil {
		runs[at] = r
	}
	return at + 1
}

// extend appends block next to r if r's progression continues into it, and
// reports whether it did. Every block of one build has the same length and
// stride, so a run of several slots already has next's stride and only the
// start must line up; a one-slot run (k = 0) takes the step to next.
func (r *run) extend(next run) bool {
	step := r.stride
	if r.n == 1 {
		step = next.start - r.start
	}
	if int64(next.start) != int64(r.start)+int64(r.n)*int64(step) {
		return false
	}
	r.stride, r.n = step, r.n+next.n
	return true
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
	runs, n := m.out.of(srcProc, dstProc)
	data := make([]float64, n)
	copyRuns(runs, 0, local, data, false)
	return data
}

// GatherRange collects the [off, off+n) sub-range of the canonical
// (srcProc, dstProc) payload — the chunk a single path of a multi-path
// route carries.
func (m *Moves) GatherRange(srcProc uint64, local []float64, dstProc uint64, off, n int) []float64 {
	runs := m.out.span(srcProc, dstProc, off, n)
	data := make([]float64, n)
	copyRuns(runs, off, local, data, false)
	return data
}

// GatherInto is Gather into the front of a caller-provided buffer, at
// least PayloadLen(srcProc, dstProc) long, and returns that length, so
// replay loops gather every destination's payload into one preallocated
// arena with one move-set lookup each.
func (m *Moves) GatherInto(srcProc uint64, local []float64, dstProc uint64, dst []float64) int {
	runs, n := m.out.of(srcProc, dstProc)
	if n > len(dst) {
		panic("plan: gather buffer shorter than the payload")
	}
	copyRuns(runs, 0, local, dst[:n], false)
	return n
}

// GatherRangeInto is GatherRange into a caller-provided buffer of length n,
// so flow materialization can pack every payload into one arena instead of
// allocating per flow.
func (m *Moves) GatherRangeInto(srcProc uint64, local []float64, dstProc uint64, off, n int, dst []float64) {
	if len(dst) != n {
		panic("plan: gather buffer size does not match range")
	}
	copyRuns(m.out.span(srcProc, dstProc, off, n), off, local, dst, false)
}

// Scatter places a payload received from srcProc into the destination local
// array.
func (m *Moves) Scatter(dstProc uint64, local []float64, srcProc uint64, data []float64) {
	runs, n := m.in.of(dstProc, srcProc)
	if n != len(data) {
		panic("plan: payload size does not match move-set")
	}
	copyRuns(runs, 0, local, data, true)
}

// ScatterRange places the [off, off+len(data)) sub-range of the canonical
// (srcProc, dstProc) payload into the destination local array — the
// receive-side counterpart of GatherRange, used when multi-path chunks are
// scattered per flow (e.g. the salvaged flows of a failed run).
func (m *Moves) ScatterRange(dstProc uint64, local []float64, srcProc uint64, off int, data []float64) {
	copyRuns(m.in.span(dstProc, srcProc, off, len(data)), off, local, data, true)
}

// Destinations lists the processors srcProc sends to (excluding itself),
// ascending. The returned slice is shared and must not be modified.
func (m *Moves) Destinations(srcProc uint64) []uint64 { return m.dests[srcProc] }

// NumSources returns how many processors other than dstProc send to it.
func (m *Moves) NumSources(dstProc uint64) int {
	n := m.in.first[dstProc+1] - m.in.first[dstProc]
	if _, self := m.in.of(dstProc, dstProc); self > 0 {
		n--
	}
	return n
}

// PayloadLen returns the number of elements srcProc sends to dstProc.
func (m *Moves) PayloadLen(srcProc, dstProc uint64) int {
	_, n := m.out.of(srcProc, dstProc)
	return n
}
