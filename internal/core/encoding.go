package core

import (
	"fmt"

	"boolcube/internal/field"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
	"boolcube/internal/router"
)

// This file implements the standalone Gray-code/binary-code conversion the
// paper builds on (Sections 2 and 6.3, citing [10]): converting the
// embedding of a distributed matrix between encodings without transposing
// it. Since binary and Gray codes agree on the most significant bit, the
// conversion of an n-bit field needs data movement across at most n-1
// dimensions; the routes used here scan from the most significant changed
// bit down, which makes paths for different nodes edge-disjoint.

// ConvertEncoding redistributes d into the after layout of the same matrix
// (same shape, same partitioning structure, different encodings). The
// redistribution must be a node permutation — true for pure encoding
// changes of the same fields — and is routed with one flow per node, most
// significant differing dimension first.
func ConvertEncoding(d *matrix.Dist, after field.Layout, opt Options) (*Result, error) {
	before := d.Layout
	if after.P != before.P || after.Q != before.Q {
		return nil, fmt.Errorf("core: encoding conversion requires the same matrix shape")
	}
	if after.NBits() != before.NBits() {
		return nil, fmt.Errorf("core: encoding conversion requires the same processor count")
	}
	pl, err := plan.NewMoves(before, after, false)
	if err != nil {
		return nil, err
	}
	for sp := 0; sp < before.N(); sp++ {
		if len(pl.Destinations(uint64(sp))) > 1 {
			return nil, fmt.Errorf("core: layout pair is not a node permutation (node %d scatters)", sp)
		}
	}

	n := before.NBits()
	e, err := newEngine(n, opt.Machine, opt.ExecConfig(), fmt.Sprintf("convert-encoding %s -> %s", before, after))
	if err != nil {
		return nil, err
	}
	var flows []router.Flow
	for sp := 0; sp < before.N(); sp++ {
		src := uint64(sp)
		for _, dp := range pl.Destinations(src) {
			var dims []int
			rel := src ^ dp
			for i := n - 1; i >= 0; i-- {
				if rel>>uint(i)&1 == 1 {
					dims = append(dims, i)
				}
			}
			pk := opt.Packets
			if pk < 1 {
				pk = 1
				if bm := opt.Machine.Bm; bm > 0 {
					cb := before.LocalSize() * opt.Machine.ElemBytes
					pk = (cb + bm - 1) / bm
					if pk < 1 {
						pk = 1
					}
				}
			}
			flows = append(flows, router.Flow{
				Src: src, Dst: dp, Dims: dims,
				Data:    pl.Gather(src, d.Local[sp], dp),
				Packets: pk,
			})
		}
	}
	deliveries, err := router.Run(e, flows)
	if err != nil {
		// The ad-hoc flow set is built outside any *plan.Plan, so Resume —
		// which replays a plan's residual move-set — has nothing to work
		// from; propagate the failure (a typed fault or deadline abort
		// included) as-is.
		return nil, err //cubevet:ignore ckptsafe -- ad-hoc flows carry no plan move-set; Resume requires one
	}
	loc := newLocal(after, e.Nodes())
	for dp := 0; dp < after.N(); dp++ {
		out := loc[dp]
		for _, del := range deliveries[uint64(dp)] {
			pl.Scatter(uint64(dp), out, del.Src, del.Data)
		}
		self := pl.Gather(uint64(dp), d.Local[dp], uint64(dp))
		pl.Scatter(uint64(dp), out, uint64(dp), self)
	}
	return &Result{Dist: finishDist(after, loc), Stats: e.Stats()}, nil
}
