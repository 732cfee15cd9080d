package plan

import (
	"fmt"
	"slices"

	"boolcube/internal/bits"
	"boolcube/internal/comm"
	"boolcube/internal/cube"
	"boolcube/internal/field"
	"boolcube/internal/router"
)

// Compile builds the immutable plan for transposing a matrix distributed
// under `before` into the `after` layout (which describes the transposed
// matrix) with the given algorithm. Auto compiles its candidates and
// returns the cheapest (compileAuto). The returned plan is sealed: it is
// never mutated and is safe to replay concurrently and to share through a
// Cache.
func Compile(alg Algorithm, before, after field.Layout, cfg Config) (*Plan, error) {
	if cfg.Strategy < comm.SingleMessage || cfg.Strategy > comm.Buffered {
		return nil, fmt.Errorf("plan: unknown exchange strategy %v", cfg.Strategy)
	}
	if alg == Auto {
		return compileAuto(before, after, cfg)
	}
	if alg < 0 || int(alg) >= len(specs) || specs[alg].compile == nil {
		return nil, fmt.Errorf("plan: unknown algorithm %v", alg)
	}
	n := before.NBits()
	if a := after.NBits(); a > n {
		n = a
	}
	p := &Plan{alg: alg, before: before, after: after, cfg: cfg, n: n}
	if err := specs[alg].compile(p); err != nil {
		return nil, err
	}
	return p, nil
}

// addPhase appends one exchange phase to a KindExchange plan, enforcing the
// invariant the exchange node program relies on: it routes a block by its
// destination's bits on dims alone, so every (source, destination) pair of
// mv must differ only there. A phase over no dimensions therefore moves
// nothing off-processor.
func (p *Plan) addPhase(mv *Moves, dims []int, copyBefore, copyAfter bool) error {
	var mask uint64
	for _, d := range dims {
		mask |= 1 << uint(d)
	}
	for sp, dests := range mv.dests {
		for _, dp := range dests {
			if (uint64(sp)^dp)&^mask != 0 {
				return fmt.Errorf("plan: %s phase %d (%s -> %s) moves data from node %d to node %d, outside its exchange dimensions %v",
					p.alg, len(p.phases)+1, mv.before.Name, mv.after.Name, sp, dp, dims)
			}
		}
	}
	p.kind = KindExchange
	p.phases = append(p.phases, Phase{Moves: mv, Dims: dims, CopyBefore: copyBefore, CopyAfter: copyAfter})
	return nil
}

// compileScan is the one-phase exchange plan: the whole transpose as a
// single dimension scan, with the optional pack/unpack copy charges.
func compileScan(p *Plan, dims []int) error {
	mv, err := NewMoves(p.before, p.after, true)
	if err != nil {
		return err
	}
	p.moves = mv
	return p.addPhase(mv, dims, p.cfg.LocalCopies, p.cfg.LocalCopies)
}

func compileExchange(p *Plan) error { return compileScan(p, comm.DescendingDims(p.n)) }

func compileExchangeSPTOrder(p *Plan) error {
	n := p.before.NBits()
	if n%2 != 0 {
		return fmt.Errorf("plan: SPT order needs an even number of cube dimensions, got %d", n)
	}
	return compileScan(p, comm.PairedDims(n))
}

// sameLayout reports whether two layouts place every element identically
// (names aside).
func sameLayout(a, b field.Layout) bool {
	return a.P == b.P && a.Q == b.Q && slices.Equal(a.Fields, b.Fields)
}

// compileConvert compiles the three Section 6.2 algorithms. All of them
// first make the row assignment cyclic by an exchange over the high (row)
// cube dimensions, then the column assignment over the low ones, through
// intermediate layouts of the untransposed matrix; they differ in the last
// phase and in the local rearrangements charged around the exchanges.
// Element address bit ranges: v3 = [0, nc), v1 = [q-nc, q), u3 = [q, q+nr).
func compileConvert(p *Plan) error {
	before, after := p.before, p.after
	if len(before.Fields) != 2 {
		return fmt.Errorf("plan: %s needs a two-dimensional consecutive before layout, got %s", p.alg, before)
	}
	P, Q := before.P, before.Q
	nr, nc, enc := before.Fields[0].Width(), before.Fields[1].Width(), before.Fields[0].Enc
	if nr != nc {
		return fmt.Errorf("plan: %s requires nr == nc, got %d and %d", p.alg, nr, nc)
	}
	if P < 2*nr || Q < 2*nc {
		return fmt.Errorf("plan: %s requires p >= 2nr and q >= 2nc, got p=%d q=%d nr=nc=%d", p.alg, P, Q, nr)
	}
	// The conversion keeps the before layout's encoding: the exchanges route
	// by the (possibly Gray-coded) processor addresses either way.
	if want := field.TwoDimConsecutive(P, Q, nr, nc, enc); !sameLayout(before, want) {
		return fmt.Errorf("plan: %s converts from %s, got %s", p.alg, want, before)
	}
	if want := field.TwoDimCyclic(Q, P, nc, nr, enc); !sameLayout(after, want) {
		return fmt.Errorf("plan: %s converts into %s, got %s", p.alg, want, after)
	}
	u3 := field.Field{Lo: Q, Hi: Q + nr, Enc: enc}
	v1 := field.Field{Lo: Q - nc, Hi: Q, Enc: enc}
	v3 := field.Field{Lo: 0, Hi: nc, Enc: enc}
	mid := func(name string, row, col field.Field) field.Layout {
		return field.Layout{P: P, Q: Q, Name: name, Fields: []field.Field{row, col}}
	}
	n := nr + nc
	desc := comm.DescendingDims(n)
	rowDims, colDims := desc[:nr:nr], desc[nr:]

	type step struct {
		to         field.Layout
		transpose  bool
		dims       []int
		copyBefore bool
		copyAfter  bool
	}
	var steps [3]step
	switch p.alg {
	case Convert1:
		// Rows, columns, then the global transpose over paired dimensions
		// (2n exchange steps) and a final local transpose.
		steps = [3]step{
			{to: mid("conv1-cycrows", u3, v1), dims: rowDims},
			{to: mid("conv1-cyclic", u3, v3), dims: colDims},
			{to: after, transpose: true, dims: comm.PairedDims(n), copyAfter: true},
		}
	default:
		// Converting rows into the column field's position pairs the
		// dimensions, so n exchange steps leave every element on its final
		// processor and the last phase only relabels local storage.
		// Algorithm 2 transposes the whole local matrix first and the N
		// small local matrices afterwards; algorithm 3 needs only a local
		// shuffle, and only when p > 2nr.
		steps = [3]step{
			{to: mid("conv23-rows", v3, v1), dims: rowDims, copyBefore: p.alg == Convert2},
			{to: mid("conv23-both", v3, u3), dims: colDims, copyAfter: p.alg == Convert2 || P > 2*nr},
			{to: after, transpose: true},
		}
	}
	from := before
	for _, st := range steps {
		mv, err := NewMoves(from, st.to, st.transpose)
		if err != nil {
			return err
		}
		if err := p.addPhase(mv, st.dims, st.copyBefore, st.copyAfter); err != nil {
			return err
		}
		from = st.to
	}
	var err error
	p.moves, err = NewMoves(before, after, true)
	return err
}

// pathSystems verifies what the Section 6.1 path systems need: a pairwise
// transposition on a cube of even dimension.
func pathSystems(p *Plan, name string) error {
	if p.n%2 != 0 {
		return fmt.Errorf("plan: %s needs an even cube dimension, got %d", name, p.n)
	}
	return pairwiseOnly(p.before, p.after, name)
}

// pairwiseOnly verifies that the transposition is between distinct
// source/destination pairs (Section 6.1) so path-system transposes apply.
func pairwiseOnly(before, after field.Layout, name string) error {
	c := field.Classify(before, after)
	if c.Pattern != field.Pairwise {
		return fmt.Errorf("plan: %s requires pairwise communication, got %v", name, c.Pattern)
	}
	return nil
}

// compileFlows expresses the transpose as source-routed flows (see routeFlows).
func compileFlows(p *Plan, route func(src, dst uint64, n int) [][]int) error {
	mv, err := NewMoves(p.before, p.after, true)
	if err != nil {
		return err
	}
	return routeFlows(p, mv, route)
}

// routeFlows expresses a move-set as source-routed flows: for every (source,
// destination) payload, the route function's paths — each of which must end
// at the destination (a path system's fixed partner is tr(src), which a
// pairwise pair of other encodings need not be) — split the payload evenly
// (by canonical-order ranges), and each chunk is packetized — by the
// caller's Packets, or at the machine's natural B_m grain so
// store-and-forward hops pipeline.
func routeFlows(p *Plan, mv *Moves, route func(src, dst uint64, n int) [][]int) error {
	p.kind, p.moves = KindFlow, mv
	for sp := 0; sp < p.before.N(); sp++ {
		src := uint64(sp)
		for _, dp := range mv.Destinations(src) {
			total := mv.PayloadLen(src, dp)
			paths := route(src, dp, p.n)
			if len(paths) == 0 {
				return fmt.Errorf("plan: no route from %d to %d", src, dp)
			}
			for pi, dims := range paths {
				end := src
				for _, d := range dims {
					end ^= 1 << uint(d)
				}
				if end != dp {
					return fmt.Errorf("plan: %v routes %d to %d, not to its destination %d", p.alg, src, end, dp)
				}
				off, sz := ShareRange(total, len(paths), pi)
				pk := p.cfg.Packets
				if pk < 1 {
					pk = 1
					if bm := p.cfg.Machine.Bm; bm > 0 {
						cb := sz * p.cfg.Machine.ElemBytes
						pk = (cb + bm - 1) / bm
						if pk < 1 {
							pk = 1
						}
					}
				}
				p.flows = append(p.flows, Flow{
					Src: src, Dst: dp, Dims: dims, Off: off, Len: sz, Packets: pk,
				})
			}
		}
	}
	return nil
}

// compilePermutation compiles a node permutation (each source sends all of
// its data to at most one other node — what the Section 6.3 algorithms and
// the standalone code conversion route) as one flow set. The registry row
// says whether the after layout describes the transposed matrix.
func compilePermutation(p *Plan, route func(src, dst uint64, n int) [][]int) error {
	mv, err := NewMoves(p.before, p.after, p.alg.Transposes())
	if err != nil {
		return err
	}
	if err := nodePermutationOnly(p.alg, mv); err != nil {
		return err
	}
	return routeFlows(p, mv, route)
}

// ShareRange splits a payload of n elements into k nearly-equal chunks and
// returns the (offset, size) of chunk i.
func ShareRange(n, k, i int) (off, sz int) {
	base, rem := n/k, n%k
	return i*base + min(i, rem), base + min(max(rem-i, 0), 1)
}

func compileSPT(p *Plan) error {
	if err := pathSystems(p, "SPT"); err != nil {
		return err
	}
	return compileFlows(p, func(src, dst uint64, n int) [][]int {
		return [][]int{cube.SPTPath(src, n)}
	})
}

func compileDPT(p *Plan) error {
	if err := pathSystems(p, "DPT"); err != nil {
		return err
	}
	return compileFlows(p, func(src, dst uint64, n int) [][]int {
		return cube.DPTPaths(src, n)
	})
}

func compileMPT(p *Plan) error {
	if err := pathSystems(p, "MPT"); err != nil {
		return err
	}
	return compileFlows(p, func(src, dst uint64, n int) [][]int {
		return cube.MPTPaths(src, n)
	})
}

func compileParallelPaths(p *Plan) error {
	if err := pairwiseOnly(p.before, p.after, "parallel-paths"); err != nil {
		return err
	}
	c := cube.New(p.before.NBits())
	return compileFlows(p, func(src, dst uint64, n int) [][]int {
		return cube.DisjointPaths(c, src, dst)
	})
}

func compileSBnT(p *Plan) error {
	return compileFlows(p, func(src, dst uint64, n int) [][]int {
		return [][]int{cube.SBnTPath(src^dst, n)}
	})
}

func compileRoutingLogic(p *Plan) error {
	return compileFlows(p, func(src, dst uint64, n int) [][]int {
		return [][]int{router.Ecube(src, dst, n)}
	})
}

// nodePermutationOnly checks that the move-set is a node permutation: each
// source sends all of its data to exactly one destination.
func nodePermutationOnly(alg Algorithm, mv *Moves) error {
	for sp, dests := range mv.dests {
		if len(dests) > 1 {
			return fmt.Errorf("plan: %s needs a node permutation; node %d sends to %d nodes", alg, sp, len(dests))
		}
	}
	return nil
}

// naiveMixedRoute builds the 2n-2 step route: first convert the row field
// of the node address to the target's column-half encoding (a conversion
// within each column subcube), then convert the column field (within each
// row subcube), then run the standard n-step transpose (paired row/column
// dimensions, highest first).
func naiveMixedRoute(src, dst uint64, n int) [][]int {
	h := n / 2
	srcRow, srcCol := bits.Split(src, h, h)
	dstRow, dstCol := bits.Split(dst, h, h)
	// After conversions the node holds address (a || b) with a = dstCol
	// (the value the transpose will move into the column half) and
	// b = dstRow.
	var dims []int
	rowConv := srcRow ^ dstCol
	for i := h - 1; i >= 0; i-- {
		if rowConv>>uint(i)&1 == 1 {
			dims = append(dims, h+i)
		}
	}
	colConv := srcCol ^ dstRow
	for i := h - 1; i >= 0; i-- {
		if colConv>>uint(i)&1 == 1 {
			dims = append(dims, i)
		}
	}
	// Transpose (a || b) -> (b || a): a = dstCol, b = dstRow.
	swap := dstCol ^ dstRow
	for i := h - 1; i >= 0; i-- {
		if swap>>uint(i)&1 == 1 {
			dims = append(dims, h+i, i)
		}
	}
	return [][]int{dims}
}

// combinedMixedRoute folds conversion and transpose into n routing steps:
// iteration i (descending) routes row dimension h+i and column dimension i
// whenever source and destination addresses differ there (Section 6.3).
func combinedMixedRoute(src, dst uint64, n int) [][]int {
	h := n / 2
	rel := src ^ dst
	var dims []int
	for i := h - 1; i >= 0; i-- {
		if rel>>uint(h+i)&1 == 1 {
			dims = append(dims, h+i)
		}
		if rel>>uint(i)&1 == 1 {
			dims = append(dims, i)
		}
	}
	return [][]int{dims}
}

func compileMixed(p *Plan, route func(src, dst uint64, n int) [][]int) error {
	if n := p.before.NBits(); n%2 != 0 {
		return fmt.Errorf("plan: mixed transpose needs an even number of cube dimensions")
	}
	return compilePermutation(p, route)
}

func compileMixedNaive(p *Plan) error    { return compileMixed(p, naiveMixedRoute) }
func compileMixedCombined(p *Plan) error { return compileMixed(p, combinedMixedRoute) }

// compileConvertEncoding compiles the standalone Gray/binary code conversion
// (Sections 2 and 6.3, citing [10]): the same matrix under the same
// partitioning in another encoding. Binary and Gray codes agree on the most
// significant bit, so an n-bit field moves data across at most n-1
// dimensions; scanning from the most significant differing bit down makes
// the paths of different nodes edge-disjoint.
func compileConvertEncoding(p *Plan) error {
	if a, b := p.after.NBits(), p.before.NBits(); a != b {
		return fmt.Errorf("plan: %s requires the same processor count, got %d and %d cube dimensions", p.alg, b, a)
	}
	return compilePermutation(p, func(src, dst uint64, n int) [][]int {
		dims := router.Ecube(src, dst, n)
		slices.Reverse(dims)
		return [][]int{dims}
	})
}
