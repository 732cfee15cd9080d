package core

import (
	"fmt"

	"boolcube/internal/comm"
	"boolcube/internal/fabric"
	"boolcube/internal/field"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
)

// This file implements Section 6.2: transposing a matrix stored with
// two-dimensional consecutive partitioning into a transposed matrix with
// two-dimensional cyclic partitioning, by the three exchange algorithms the
// paper compares. All three produce identical placements; they differ in
// the number of communication steps (2n vs n) and in local copy work.

// phaseExchange runs one repartitioning (or transposing) phase inside a
// node program: gather per-destination payloads from the current local
// array per the plan, exchange over dims, scatter into the next local
// array.
func phaseExchange(nd fabric.Node, mv *plan.Moves, dims []int, strat comm.Strategy, local []float64) []float64 {
	id := nd.ID()
	var blocks []comm.Block
	if int(id) < mv.Before().N() && local != nil {
		for _, dp := range mv.Destinations(id) {
			blocks = append(blocks, comm.Block{Src: id, Dst: dp, Data: mv.Gather(id, local, dp)})
		}
	}
	got := comm.ExchangeBlocks(nd, dims, strat, blocks)
	if int(id) >= mv.After().N() {
		return nil
	}
	out := make([]float64, mv.After().LocalSize())
	if int(id) < mv.Before().N() && local != nil {
		mv.Scatter(id, out, id, mv.Gather(id, local, id))
	}
	for _, b := range got {
		mv.Scatter(id, out, b.Src, b.Data)
	}
	return out
}

// relabelLocal applies a zero-communication plan (both layouts place every
// element on the same processor) as a local rearrangement.
func relabelLocal(mv *plan.Moves, id uint64, local []float64) []float64 {
	out := make([]float64, mv.After().LocalSize())
	if len(mv.Destinations(id)) != 0 {
		panic(fmt.Sprintf("core: relabel plan moves data off processor %d", id))
	}
	mv.Scatter(id, out, id, mv.Gather(id, local, id))
	return out
}

// ConvertAlgorithm identifies one of the paper's three algorithms.
type ConvertAlgorithm int

const (
	// Convert1 converts rows, then columns, then transposes globally and
	// locally: 2n communication steps (Section 6.2, algorithm 1).
	Convert1 ConvertAlgorithm = iota + 1
	// Convert2 transposes locally first, converts rows and columns in n
	// steps, then transposes the N small local matrices (algorithm 2).
	Convert2
	// Convert3 pairs dimensions so no pre-transpose is needed: n steps
	// plus a local shuffle when p > 2*nr (algorithm 3).
	Convert3
)

func (a ConvertAlgorithm) String() string { return fmt.Sprintf("algorithm-%d", int(a)) }

// ConvertConsecutiveToCyclic transposes a matrix stored under
// TwoDimConsecutive(p, q, nr, nc) into TwoDimCyclic(q, p, nc, nr) on the
// transposed matrix, using the selected algorithm. It requires nr == nc
// (square processor array) and p >= 2nr, q >= 2nc as in the paper.
func ConvertConsecutiveToCyclic(d *matrix.Dist, alg ConvertAlgorithm, opt Options) (*Result, error) {
	before := d.Layout
	nr := before.Fields[0].Width()
	nc := before.Fields[1].Width()
	p, q := before.P, before.Q
	if nr != nc {
		return nil, fmt.Errorf("core: convert requires nr == nc, got %d and %d", nr, nc)
	}
	if p < 2*nr || q < 2*nc {
		return nil, fmt.Errorf("core: convert requires p >= 2nr and q >= 2nc")
	}
	switch alg {
	case Convert1, Convert2, Convert3:
	default:
		return nil, fmt.Errorf("core: unknown convert algorithm %d", alg)
	}
	n := nr + nc
	// The conversion preserves the before-layout's encoding: the paper's
	// algorithms are encoding-agnostic since the exchange routes by the
	// (possibly Gray-coded) processor addresses either way.
	enc := before.Fields[0].Enc
	after := field.TwoDimCyclic(q, p, nc, nr, enc)

	// Intermediate layouts on the original element space. Element address
	// bit ranges: v3 = [0, nc), v1 = [q-nc, q), u3 = [q, q+nr), u1 = [m-nr, m).
	u3 := field.Field{Lo: q, Hi: q + nr, Enc: enc}
	v1 := field.Field{Lo: q - nc, Hi: q, Enc: enc}
	v3 := field.Field{Lo: 0, Hi: nc, Enc: enc}

	mk := func(name string, row, col field.Field) field.Layout {
		return field.Layout{P: p, Q: q, Name: name, Fields: []field.Field{row, col}}
	}

	rowDims := make([]int, 0, nr) // high cube dims, descending
	for i := n - 1; i >= nc; i-- {
		rowDims = append(rowDims, i)
	}
	colDims := make([]int, 0, nc)
	for i := nc - 1; i >= 0; i-- {
		colDims = append(colDims, i)
	}

	e, err := newEngine(n, opt.Machine, opt.ExecConfig(), fmt.Sprintf("convert %s: %s -> %s", alg, before, after))
	if err != nil {
		return nil, err
	}
	loc := make([][]float64, e.Nodes())
	localBytes := before.LocalSize() * opt.Machine.ElemBytes

	switch alg {
	case Convert1:
		l1 := mk("conv1-cycrows", u3, v1)
		l2 := mk("conv1-cyclic", u3, v3)
		plA := plan.MustMoves(before, l1, false)
		plB := plan.MustMoves(l1, l2, false)
		plC := plan.MustMoves(l2, after, true)
		sptDims := comm.PairedDims(n)
		err = e.Run(func(nd fabric.Node) {
			id := nd.ID()
			local := phaseExchange(nd, plA, rowDims, opt.Strategy, d.Local[id])
			local = phaseExchange(nd, plB, colDims, opt.Strategy, local)
			local = phaseExchange(nd, plC, sptDims, opt.Strategy, local)
			// "transpose ... locally": final local rearrangement.
			nd.Copy(localBytes)
			loc[id] = local
		})
	case Convert2, Convert3:
		la := mk("conv23-rows", v3, v1)
		lb := mk("conv23-both", v3, u3)
		plA := plan.MustMoves(before, la, false)
		plB := plan.MustMoves(la, lb, false)
		plC := plan.MustMoves(lb, after, true) // zero-communication relabel
		err = e.Run(func(nd fabric.Node) {
			id := nd.ID()
			if alg == Convert2 {
				// Complete local matrix transpose before communication.
				nd.Copy(localBytes)
			}
			local := phaseExchange(nd, plA, rowDims, opt.Strategy, d.Local[id])
			local = phaseExchange(nd, plB, colDims, opt.Strategy, local)
			if alg == Convert2 {
				// Transpose the N small local matrices.
				nd.Copy(localBytes)
			} else if p > 2*nr {
				// Local p-2nr shuffle.
				nd.Copy(localBytes)
			}
			loc[id] = relabelLocal(plC, id, local)
		})
	default:
		panic("core: convert algorithm validated above")
	}
	if err != nil {
		// The conversion phases carry no *plan.Plan move-set, so there is
		// nothing Resume could replay: a typed fault or deadline abort is
		// propagated as-is, without a checkpoint.
		return nil, err //cubevet:ignore ckptsafe -- no plan move-set to checkpoint; Resume requires one
	}
	return &Result{Dist: finishDist(after, loc), Stats: e.Stats()}, nil
}
