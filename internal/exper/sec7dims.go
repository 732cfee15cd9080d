package exper

import (
	mathbits "math/bits"

	"boolcube/internal/bits"
	"boolcube/internal/field"
	"boolcube/internal/machine"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
	"boolcube/internal/router"
	"boolcube/internal/simnet"
)

func init() {
	register("sec7dims", sec7Dims)
}

// sec7Dims compares three realizations of a dimension permutation
// (Section 7, Lemma 15) on the worst-case full rotation sh^(n/2), which
// maximizes the Hamming displacement (Corollary 2), on one-dimensional
// consecutive rows of one payload each: the permute row's parallel
// swappings (sh^(n/2) is an involution, so one), the permute-two-phase
// row's generic two-phase all-to-all, and direct e-cube routing of whole
// payloads.
func sec7Dims() (*Table, error) {
	t := &Table{
		ID:    "sec7dims",
		Title: "dimension permutation sh^(n/2): parallel swappings vs 2x all-to-all vs direct routing (iPSC)",
		Columns: []string{"cube dims n", "KB/node", "swappings (ms)", "2x all-to-all (ms)",
			"direct e-cube (ms)", "direct max-link/swap max-link"},
		Notes: []string{
			"parallel swappings need ceil(log2 n) exchange rounds of the full payload;",
			"direct routing is fastest when uncongested but concentrates link load",
		},
	}
	for _, n := range []int{4, 6, 8} {
		for _, kb := range []int{1, 16} {
			elems := kb * 1024 / 4
			N := 1 << uint(n)
			lc := mathbits.Len(uint(elems)) - 1
			m := matrix.NewIota(n, lc)
			rows := field.OneDimConsecutiveRows(n, lc, n, field.Binary)
			swap, err := halfShuffle(plan.Permute, m, rows)
			if err != nil {
				return nil, err
			}
			two, err := halfShuffle(plan.PermuteTwoPhase, m, rows)
			if err != nil {
				return nil, err
			}

			eDirect, err := simnet.New(n, machine.IPSC())
			if err != nil {
				return nil, err
			}
			var flows []router.Flow
			for x := uint64(0); x < uint64(N); x++ {
				y := bits.RotL(x, n/2, n)
				if y == x {
					continue
				}
				flows = append(flows, router.Flow{Src: x, Dst: y,
					Dims: router.Ecube(x, y, n), Data: make([]float64, elems)})
			}
			if _, err := router.Run(eDirect, flows); err != nil {
				return nil, err
			}

			loadRatio := float64(eDirect.Stats().MaxLinkBytes) / float64(swap.MaxLinkBytes)
			t.AddRow(n, kb, swap.Time/1000, two.Time/1000,
				eDirect.Stats().Time/1000, loadRatio)
		}
	}
	return t, nil
}
