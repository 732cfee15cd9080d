package exper

import (
	"fmt"

	"boolcube/internal/core"
	"boolcube/internal/fabric"
	"boolcube/internal/field"
	"boolcube/internal/machine"
	"boolcube/internal/plan"
)

func init() {
	register("sec7perm", sec7Perm)
}

// sec7Perm reproduces the Section 7 observation: the transpose (a
// permutation) can be realized by performing all-to-all personalized
// communication twice, but the cost is higher than the best dedicated
// transpose algorithm for both one-port and n-port communication.
func sec7Perm() (*Table, error) {
	t := &Table{
		ID:    "sec7perm",
		Title: "transpose as a generic permutation (2x all-to-all) vs dedicated transpose algorithms",
		Columns: []string{"cube dims n", "matrix KB", "2x all-to-all (ms)",
			"exchange transpose (ms)", "MPT n-port (ms)", "2xA2A/best"},
		Notes: []string{
			"Section 7: the generic 2x all-to-all always costs more than the best",
			"dedicated transpose; on one-port it can still beat the exchange-based",
			"transpose at large sizes because it balances transit load perfectly",
		},
	}
	for _, n := range []int{4, 6} {
		for _, logBytes := range []int{12, 16} {
			logElems := logBytes - 2
			before, _, _, _, ok := twoDimLayouts(logElems, n)
			if !ok {
				continue
			}

			// Dedicated transposes.
			ex, err := runTranspose(plan.Exchange, logElems, n, core.Options{Machine: machine.IPSC()})
			if err != nil {
				return nil, err
			}
			st2, err := runTranspose(plan.MPT, logElems, n,
				core.Options{Machine: machine.IPSCNPort()})
			if err != nil {
				return nil, err
			}

			// Generic two-phase permutation of whole node payloads. The
			// transpose permutation on the node level is tr(x) = sh^(n/2).
			two, err := halfShuffle(plan.PermuteTwoPhase, before)
			if err != nil {
				return nil, err
			}
			twoPhase := two.Time

			best := ex.Time
			if st2.Time < best {
				best = st2.Time
			}
			t.AddRow(n, 1<<uint(logBytes-10), twoPhase/1000, ex.Time/1000, st2.Time/1000,
				fmt.Sprintf("%.2f", twoPhase/best))
		}
	}
	return t, nil
}

// halfShuffle moves every node's share of an iota matrix stored under before
// to the node sh^(n/2)(x) — its address rotated by half its n bits, the
// dimension permutation p -> p + n/2 (mod n) — through the registry row alg
// (plan.Permute or plan.PermuteTwoPhase) on the iPSC, and verifies the
// result.
func halfShuffle(alg plan.Algorithm, before field.Layout) (fabric.Stats, error) {
	n := before.NBits()
	pi := make([]int, n)
	for p := range pi {
		pi[p] = (p + n/2) % n
	}
	after, err := field.PermutedDims(before, pi)
	if err != nil {
		return fabric.Stats{}, err
	}
	return verified(alg, before, after, core.Options{Machine: machine.IPSC()})
}
