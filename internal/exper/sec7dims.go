package exper

import (
	mathbits "math/bits"

	"boolcube/internal/core"
	"boolcube/internal/field"
	"boolcube/internal/machine"
	"boolcube/internal/plan"
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
// payloads. sh^(n/2) is the node map of the square two-dimensional
// transpose, so the direct column is the routing-logic row on that pair,
// one packet per payload.
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
			lc := mathbits.Len(uint(kb*1024/4)) - 1
			rows := field.OneDimConsecutiveRows(n, lc, n, field.Binary)
			swap, err := halfShuffle(plan.Permute, rows)
			if err != nil {
				return nil, err
			}
			two, err := halfShuffle(plan.PermuteTwoPhase, rows)
			if err != nil {
				return nil, err
			}
			direct, err := runTranspose(plan.RoutingLogic, n+lc, n, core.Options{Machine: machine.IPSC(), Packets: 1})
			if err != nil {
				return nil, err
			}
			loadRatio := float64(direct.MaxLinkBytes) / float64(swap.MaxLinkBytes)
			t.AddRow(n, kb, swap.Time/1000, two.Time/1000, direct.Time/1000, loadRatio)
		}
	}
	return t, nil
}
