package cost

import (
	"math"

	"boolcube/internal/machine"
)

// Degraded-cost estimates: what the closed-form transpose times become when
// k of the cube's n·N directed links have failed and blocked flows fail
// over to a disjoint-path detour (length H -> H+2 per Saad & Schultz, so
// each rerouted flow pays two extra hops and re-traverses its payload over
// the new route).
//
// The model is the simplest one that matches the simulator's failover
// policy: each of a route's `hops` directed links fails independently with
// probability k/(n·N), a route that crosses any failed link is rerouted
// onto a (hops+2)-hop alternative, and the run time is the expectation over
// the two route lengths. This is an estimate in the spirit of the paper's
// formulas — a yardstick to print next to measured fault sweeps, not a
// bound.

// PathBlockProb returns the probability that a fixed route of `hops`
// directed links crosses at least one of k uniformly-chosen failed directed
// links on an n-cube: 1 - (1 - k/L)^hops with L = n·2^n total directed
// links. k >= L means every link is down.
func PathBlockProb(n, hops, k int) float64 {
	if k <= 0 || hops <= 0 {
		return 0
	}
	L := float64(n) * nodesOf(n)
	if float64(k) >= L {
		return 1
	}
	return 1 - math.Pow(1-float64(k)/L, float64(hops))
}

// DegradedPipelinedPaths returns the expected pipelined path-transpose time
// under k random directed-link failures with reroute failover: the
// PipelinedPaths estimate averaged over the surviving-route length
// (probability 1-pb of `hops` hops, pb of the hops+2 detour).
func DegradedPipelinedPaths(M float64, n, hops, k, paths int, B float64, p machine.Params) float64 {
	pb := PathBlockProb(n, hops, k)
	return (1-pb)*PipelinedPaths(M, n, hops, paths, B, p) +
		pb*PipelinedPaths(M, n, hops+2, paths, B, p)
}
