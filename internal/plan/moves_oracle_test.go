package plan

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"boolcube/internal/field"
	"boolcube/internal/machine"
	"boolcube/internal/plan/plantest"
)

// movesOracle is NewMoves as it stood before the compressed-row rebuild,
// moved here verbatim as the reference the new construction is held to: one
// record per element, a sort by element address, and append into one map per
// processor.
type movesOracle struct {
	before, after field.Layout
	// out[srcProc][dstProc] = source local slots in canonical order.
	out []map[uint64][]int
	// in[dstProc][srcProc] = destination local slots in canonical order.
	in []map[uint64][]int
	// dests[srcProc] = destinations other than srcProc, ascending.
	dests [][]uint64
}

func newMovesOracle(before, after field.Layout, transpose bool) (*movesOracle, error) {
	if err := before.Validate(); err != nil {
		return nil, fmt.Errorf("plan: invalid before layout: %w", err)
	}
	if err := after.Validate(); err != nil {
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
	type move struct {
		key    uint64 // element address in the before space, for ordering
		ss, ds int
		sp, dp uint64
	}
	// Validate bounds P+Q, so these shifts stay below word size.
	P := uint64(1) << uint(before.P)
	Q := uint64(1) << uint(before.Q)
	moves := make([]move, 0, P*Q)
	for u := uint64(0); u < P; u++ {
		for v := uint64(0); v < Q; v++ {
			au, av := u, v
			if transpose {
				au, av = v, u
			}
			moves = append(moves, move{
				key: u<<uint(before.Q) | v,
				sp:  before.ProcOf(u, v), ss: int(before.LocalOf(u, v)),
				dp: after.ProcOf(au, av), ds: int(after.LocalOf(au, av)),
			})
		}
	}
	sort.Slice(moves, func(a, b int) bool { return moves[a].key < moves[b].key })

	m := &movesOracle{
		before: before, after: after,
		out: make([]map[uint64][]int, before.N()),
		in:  make([]map[uint64][]int, after.N()),
	}
	for i := range m.out {
		m.out[i] = make(map[uint64][]int)
	}
	for i := range m.in {
		m.in[i] = make(map[uint64][]int)
	}
	for _, mv := range moves {
		m.out[mv.sp][mv.dp] = append(m.out[mv.sp][mv.dp], mv.ss)
		m.in[mv.dp][mv.sp] = append(m.in[mv.dp][mv.sp], mv.ds)
	}
	m.dests = make([][]uint64, before.N())
	for sp := range m.dests {
		var d []uint64
		for dp := range m.out[sp] {
			if dp != uint64(sp) {
				d = append(d, dp)
			}
		}
		sort.Slice(d, func(a, b int) bool { return d[a] < d[b] })
		m.dests[sp] = d
	}
	return m, nil
}

// movesCase is one layout pair the new NewMoves is held to the oracle on. A
// registry row (alg != Auto) takes its move-set from the compiled plan, so
// the pair is one the algorithm really accepts.
type movesCase struct {
	name          string
	alg           Algorithm
	before, after field.Layout
	transpose     bool
	k             int // the block exponent the row is there to reach; -1 for any
}

func movesCases() []movesCase {
	var cs []movesCase
	addK := func(name string, before, after field.Layout, transpose bool, k int) {
		cs = append(cs, movesCase{name, Auto, before, after, transpose, k})
	}
	add := func(name string, before, after field.Layout, transpose bool) {
		addK(name, before, after, transpose, -1)
	}
	// The pair each registry algorithm compiles (plantest.Pair), on 2-, 4- and
	// 6-cubes (the Section 6.2 conversions need p >= n).
	for _, n := range []int{2, 4, 6} {
		p := n/2 + 2
		for _, alg := range Algorithms() {
			before, after, transposes := plantest.Pair(alg, max(p, n), max(p, n), n)
			cs = append(cs, movesCase{fmt.Sprintf("%s/n=%d", alg, n), alg, before, after, transposes, -1})
		}
		// One-dimensional all-to-all, Gray and cyclic, and some-to-all.
		add(fmt.Sprintf("1d-rows/n=%d", n), field.OneDimConsecutiveRows(p+1, p+1, n, field.Gray), field.OneDimConsecutiveRows(p+1, p+1, n, field.Gray), true)
		add(fmt.Sprintf("1d-cyclic/n=%d", n), field.OneDimCyclicCols(p+1, p+1, n, field.Binary), field.OneDimCyclicRows(p+1, p+1, n, field.Gray), true)
		add(fmt.Sprintf("some-to-all/n=%d", n), field.OneDimConsecutiveRows(p+1, p+1, n-1, field.Binary), field.OneDimCyclicRows(p+1, p+1, n, field.Binary), true)
	}
	// Rectangular shapes, vectors and a single processor.
	add("rect-2d", field.TwoDimConsecutive(5, 3, 2, 2, field.Gray), field.TwoDimCyclic(3, 5, 2, 2, field.Binary), true)
	add("rect-1d", field.OneDimCyclicRows(2, 6, 2, field.Binary), field.OneDimConsecutiveRows(6, 2, 4, field.Gray), true)
	add("rect-split", field.BandedCombined(6, 3, 1, 1, field.Binary), field.CombinedSplit(3, 6, 4, 1, false, field.Gray), true)
	add("column-vector", field.OneDimConsecutiveRows(5, 0, 3, field.Gray), field.OneDimCyclicCols(0, 5, 2, field.Binary), true)
	add("one-processor", field.OneDimConsecutiveRows(3, 2, 0, field.Binary), field.TwoDimCyclic(2, 3, 1, 1, field.Gray), true)
	// The phase chains of the Section 6.2 conversions (compileConvert): two
	// transpose=false repartitionings, then the transposing phase.
	for _, enc := range []field.Encoding{field.Binary, field.Gray} {
		p, q, nr, nc := 4, 4, 2, 2
		before, after := field.TwoDimConsecutive(p, q, nr, nc, enc), field.TwoDimCyclic(q, p, nc, nr, enc)
		u3 := field.Field{Lo: q, Hi: q + nr, Enc: enc}
		v1 := field.Field{Lo: q - nc, Hi: q, Enc: enc}
		v3 := field.Field{Lo: 0, Hi: nc, Enc: enc}
		mk := func(row, col field.Field) field.Layout {
			return field.Layout{P: p, Q: q, Name: "chain", Fields: []field.Field{row, col}}
		}
		for name, chain := range map[string][2]field.Layout{
			"convert1":   {mk(u3, v1), mk(u3, v3)},
			"convert2-3": {mk(v3, v1), mk(v3, u3)},
		} {
			add(name+"/A/"+enc.String(), before, chain[0], false)
			add(name+"/B/"+enc.String(), chain[0], chain[1], false)
			add(name+"/C/"+enc.String(), chain[1], after, true)
		}
		add("encoding/"+enc.String(), before, field.TwoDimEncoded(p, q, nr, nc, field.Gray, field.Binary), false)
	}
	// Block edges (Map.Block's k). The local run straddles bit q: a
	// repartition keeps it whole, a transpose cuts it at q.
	addK("straddle-q/repartition", field.OneDimConsecutiveRows(4, 3, 2, field.Binary), field.OneDimConsecutiveRows(4, 3, 1, field.Gray), false, 5)
	addK("straddle-q/transpose", field.OneDimConsecutiveRows(4, 3, 1, field.Binary), field.OneDimCyclicCols(3, 4, 1, field.Gray), true, 3)
	// A Gray field right above the block's landing bits, and one between
	// the two halves of the after layout's local address.
	addK("gray-beside-local/1d", field.OneDimCyclicCols(4, 4, 2, field.Gray), field.TwoDimCyclic(4, 4, 1, 1, field.Gray), true, 2)
	addK("gray-beside-local/2d", field.TwoDimConsecutive(4, 4, 2, 2, field.Gray), field.TwoDimConsecutive(4, 4, 2, 2, field.Gray), true, 2)
	// Parse'd custom specs whose fields are not in address order.
	parse := func(spec string) field.Layout {
		l, err := field.Parse(spec, 4, 4, 0)
		if err != nil {
			panic(err)
		}
		return l
	}
	addK("parsed-nonmonotone/k1", parse("custom([1,2)+[5,7):gray+[3,4))"), parse("custom([6,8):gray+[0,1))"), true, 1)
	addK("parsed-nonmonotone/k0", parse("custom([0,1):gray+[7,8)+[3,4))"), parse("custom([5,6)+[0,2):gray)"), true, 0)
	// Vectors: the transpose of a row vector rotates by p = 0.
	addK("row-vector", field.OneDimCyclicCols(0, 5, 2, field.Gray), field.OneDimConsecutiveRows(5, 0, 3, field.Binary), true, 0)
	addK("vector-repartition", field.OneDimConsecutiveRows(5, 0, 2, field.Binary), field.OneDimConsecutiveRows(5, 0, 1, field.Gray), false, 3)
	// The whole local array is one block.
	addK("full-block/transpose", field.OneDimConsecutiveCols(3, 3, 3, field.Gray), field.OneDimConsecutiveRows(3, 3, 3, field.Binary), true, 3)
	return cs
}

// blockOf is the block exponent NewMoves builds a case with, and the
// before layout's local address width.
func blockOf(t testing.TB, c movesCase) (k, local int) {
	bm, err := c.before.Map()
	if err != nil {
		t.Fatal(err)
	}
	am, err := c.after.Map()
	if err != nil {
		t.Fatal(err)
	}
	rot := 0
	if c.transpose {
		rot = c.before.P
	}
	k, _ = bm.Block(&am, rot)
	return k, c.before.M() - c.before.NBits()
}

// slots expands one side's runs for proc and peer into the slot list they
// encode, checking the runs add up to the entry's element count.
func slots(t testing.TB, x *index, proc, peer uint64) []int {
	runs, n := x.of(proc, peer)
	var s []int
	for _, r := range runs {
		if r.n < 1 {
			t.Fatalf("entry (%d,%d) holds an empty run %+v", proc, peer, r)
		}
		for i := range int(r.n) {
			s = append(s, int(r.start)+i*int(r.stride))
		}
	}
	if len(s) != n {
		t.Fatalf("entry (%d,%d): runs hold %d slots, offsets say %d", proc, peer, len(s), n)
	}
	return s
}

// matchOracle holds a move-set to the oracle on every (srcProc, dstProc)
// slot list, in order, on both sides, and on Destinations, NumSources and
// PayloadLen.
func matchOracle(t testing.TB, got *Moves, want *movesOracle) {
	t.Helper()
	for dp, srcs := range want.in {
		n := len(srcs)
		if len(srcs[uint64(dp)]) > 0 {
			n--
		}
		if got.NumSources(uint64(dp)) != n {
			t.Fatalf("NumSources(%d) = %d, want %d", dp, got.NumSources(uint64(dp)), n)
		}
	}
	pairs := 0
	for sp := range want.out {
		src := uint64(sp)
		if !slices.Equal(got.Destinations(src), want.dests[sp]) {
			t.Fatalf("Destinations(%d) = %v, want %v", sp, got.Destinations(src), want.dests[sp])
		}
		for dp := range want.after.N() {
			dst := uint64(dp)
			if s := slots(t, &got.out, src, dst); !slices.Equal(s, want.out[sp][dst]) {
				t.Fatalf("out[%d][%d] = %v, want %v", sp, dp, s, want.out[sp][dst])
			}
			if s := slots(t, &got.in, dst, src); !slices.Equal(s, want.in[dp][src]) {
				t.Fatalf("in[%d][%d] = %v, want %v", dp, sp, s, want.in[dp][src])
			}
			if got.PayloadLen(src, dst) != len(want.out[sp][dst]) {
				t.Fatalf("PayloadLen(%d,%d) = %d, want %d", sp, dp, got.PayloadLen(src, dst), len(want.out[sp][dst]))
			}
		}
		pairs += len(want.out[sp])
	}
	if len(got.out.peer) != pairs || len(got.in.peer) != pairs {
		t.Fatalf("index holds %d out / %d in pairs, want %d", len(got.out.peer), len(got.in.peer), pairs)
	}
}

// movesFor builds a case's move-set: a registry row's from its compiled
// plan, any other pair's from NewMoves.
func movesFor(t *testing.T, c movesCase) *Moves {
	t.Helper()
	if c.alg != Auto {
		p, err := Compile(c.alg, c.before, c.after, Config{Machine: machine.IPSCNPort()})
		if err != nil {
			t.Fatal(err)
		}
		return p.Moves()
	}
	got, err := NewMoves(c.before, c.after, c.transpose)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// The run construction must agree with the per-element oracle everywhere,
// and the table must reach every kind of block: single elements (k = 0),
// part of the local address, and all of it.
func TestNewMovesMatchesOracle(t *testing.T) {
	var single, partial, whole int
	for _, c := range movesCases() {
		t.Run(c.name, func(t *testing.T) {
			k, local := blockOf(t, c)
			if c.k >= 0 && k != c.k {
				t.Fatalf("block exponent %d, the row is there for %d", k, c.k)
			}
			switch {
			case k == 0:
				single++
			case k < local:
				partial++
			default:
				whole++
			}
			want, err := newMovesOracle(c.before, c.after, c.transpose)
			if err != nil {
				t.Fatal(err)
			}
			matchOracle(t, movesFor(t, c), want)
		})
	}
	if single == 0 || partial == 0 || whole == 0 {
		t.Errorf("blocks covered: %d single-element, %d partial, %d whole-array cases; want each", single, partial, whole)
	}
}

// Every pair that is more than one run on either side, split at every
// (off, n): GatherRangeInto must collect the oracle's source slots
// [off, off+n), and ScatterRange must write exactly its destination slots.
func TestMovesRangesMatchOracle(t *testing.T) {
	for _, c := range movesCases() {
		t.Run(c.name, func(t *testing.T) {
			want, err := newMovesOracle(c.before, c.after, c.transpose)
			if err != nil {
				t.Fatal(err)
			}
			got := movesFor(t, c)
			src := make([]float64, c.before.LocalSize())
			for i := range src {
				src[i] = float64(i)
			}
			dst := make([]float64, c.after.LocalSize())
			for sp, peers := range want.out {
				for dp, outSlots := range peers {
					s := uint64(sp)
					ro, _ := got.out.of(s, dp)
					ri, _ := got.in.of(dp, s)
					if len(ro) < 2 && len(ri) < 2 {
						continue
					}
					inSlots := want.in[dp][s]
					for off := 0; off <= len(outSlots); off++ {
						for n := 0; off+n <= len(outSlots); n++ {
							buf := make([]float64, n)
							got.GatherRangeInto(s, src, dp, off, n, buf)
							for i, v := range buf {
								if v != float64(outSlots[off+i]) {
									t.Fatalf("(%d,%d) gather [%d,+%d): element %d from slot %v, want %d", sp, dp, off, n, i, v, outSlots[off+i])
								}
								buf[i] = float64(i + 1)
							}
							got.ScatterRange(dp, dst, s, off, buf)
							for i, j := range inSlots[off : off+n] {
								if dst[j] != float64(i+1) {
									t.Fatalf("(%d,%d) scatter [%d,+%d): slot %d holds %v, want element %d", sp, dp, off, n, j, dst[j], i)
								}
								dst[j] = 0
							}
							for j, v := range dst {
								if v != 0 {
									t.Fatalf("(%d,%d) scatter [%d,+%d) wrote slot %d outside the range", sp, dp, off, n, j)
								}
							}
						}
					}
				}
			}
		})
	}
}

// Allocations are per arena and index, not per element or per pair: the
// same layout pair on a matrix 16 times larger allocates no more.
func TestNewMovesAllocsDoNotScaleWithMatrix(t *testing.T) {
	allocs := func(p int) float64 {
		before, after := field.OneDimConsecutiveRows(p, p, 4, field.Gray), field.OneDimConsecutiveRows(p, p, 4, field.Gray)
		return testing.AllocsPerRun(5, func() {
			if _, err := NewMoves(before, after, true); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(4), allocs(6)
	if large > small {
		t.Errorf("NewMoves allocates %v times on 64x64, %v on 16x16: allocations scale with P·Q", large, small)
	}
	// 16 processors, 256 pairs: the arenas, indexes and scratch, plus the
	// doubling growth of the pair list — nowhere near one per pair.
	if large > 48 {
		t.Errorf("NewMoves allocates %v times for 256 pairs, want <= 48", large)
	}
}
