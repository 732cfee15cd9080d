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
}

func movesCases() []movesCase {
	var cs []movesCase
	add := func(name string, before, after field.Layout, transpose bool) {
		cs = append(cs, movesCase{name, Auto, before, after, transpose})
	}
	// The pair each registry algorithm compiles (plantest.Pair), on 2-, 4- and
	// 6-cubes (the Section 6.2 conversions need p >= n).
	for _, n := range []int{2, 4, 6} {
		p := n/2 + 2
		for _, alg := range Algorithms() {
			before, after, transposes := plantest.Pair(alg, max(p, n), max(p, n), n)
			cs = append(cs, movesCase{fmt.Sprintf("%s/n=%d", alg, n), alg, before, after, transposes})
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
	return cs
}

// The compressed-row construction must agree with its predecessor on every
// (srcProc, dstProc) slot list, in order, on both sides, and on
// Destinations and PayloadLen.
func TestNewMovesMatchesOracle(t *testing.T) {
	for _, c := range movesCases() {
		t.Run(c.name, func(t *testing.T) {
			want, err := newMovesOracle(c.before, c.after, c.transpose)
			if err != nil {
				t.Fatal(err)
			}
			got, err := NewMoves(c.before, c.after, c.transpose)
			if c.alg != Auto {
				var p *Plan
				if p, err = Compile(c.alg, c.before, c.after, Config{Machine: machine.IPSCNPort()}); err == nil {
					got = p.Moves()
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			pairs := 0
			for sp := range want.out {
				src := uint64(sp)
				if !slices.Equal(got.Destinations(src), want.dests[sp]) {
					t.Fatalf("Destinations(%d) = %v, want %v", sp, got.Destinations(src), want.dests[sp])
				}
				for dp := range c.after.N() {
					dst := uint64(dp)
					if !slices.Equal(got.out.of(src, dst), want.out[sp][dst]) {
						t.Fatalf("out[%d][%d] = %v, want %v", sp, dp, got.out.of(src, dst), want.out[sp][dst])
					}
					if !slices.Equal(got.in.of(dst, src), want.in[dp][src]) {
						t.Fatalf("in[%d][%d] = %v, want %v", dp, sp, got.in.of(dst, src), want.in[dp][src])
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
