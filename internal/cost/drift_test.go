package cost_test

import (
	"fmt"
	"testing"

	"boolcube/internal/core"
	"boolcube/internal/field"
	"boolcube/internal/machine"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
	"boolcube/internal/plan/plantest"
)

// driftCase runs one compiled plan over the 2^p x 2^q iota matrix and returns
// simulated/predicted.
func driftCase(t *testing.T, alg plan.Algorithm, mach machine.Params,
	before, after field.Layout, p, q int, transposes bool) float64 {
	t.Helper()
	pl, err := plan.Compile(alg, before, after, plan.Config{Machine: mach})
	if err != nil {
		t.Fatal(err)
	}
	predicted := pl.PredictedCost()
	if predicted <= 0 {
		t.Fatalf("predicted cost %v, want > 0", predicted)
	}
	m := matrix.NewIota(p, q)
	res, err := core.Execute(pl, matrix.Scatter(m, before), nil)
	if err != nil {
		t.Fatal(err)
	}
	if verr := res.Dist.Verify(plantest.Want(m, transposes)); verr != nil {
		t.Fatal(verr)
	}
	ratio := res.Stats.Time / predicted
	t.Logf("simulated %.1f µs, predicted %.1f µs, ratio %.3f",
		res.Stats.Time, predicted, ratio)
	return ratio
}

// On the one-dimensional row-block all-to-all the paper analyzes (the
// AllToAllExchange estimate) the price of the exchange is its step sum, which
// the simulation realizes essentially exactly, so any drift here means the
// price and the executor have diverged from the shared plan IR.
func TestExchangePredictionExactOneDim(t *testing.T) {
	const factor = 1.1
	mach := machine.IPSC()
	for _, sh := range []struct{ p, q, n int }{
		{4, 4, 4}, {5, 5, 4}, {6, 6, 6}, {7, 7, 6},
	} {
		t.Run(fmt.Sprintf("p%dq%dn%d", sh.p, sh.q, sh.n), func(t *testing.T) {
			before := field.OneDimConsecutiveRows(sh.p, sh.q, sh.n, field.Binary)
			after := field.OneDimConsecutiveRows(sh.q, sh.p, sh.n, field.Binary)
			ratio := driftCase(t, plan.Exchange, mach, before, after, sh.p, sh.q, true)
			if ratio > factor || ratio < 1/factor {
				t.Errorf("simulated/predicted ratio %.3f outside [%.2f, %.2f]",
					ratio, 1/factor, factor)
			}
		})
	}
}

// The price walks what the plan compiled, so it tracks the simulation on
// every registry row: each row on its plantest.Pair layouts, on the one-port
// iPSC, the n-port iPSC and the Connection Machine, within factor either
// way. The factor is the worst ratio over these cells, rounded up to 0.05:
// the one-port path systems, whose hop schedule holds a node's port for a
// whole flow where the router interleaves packets of different flows, price
// up to 1.5x over their simulated time (DPT at p = q = n = 6 sits on the
// bound); the n-port and CM cells price within a few percent.
func TestPredictionTracksSimulation(t *testing.T) {
	const factor = 1.5
	shapes := []struct{ p, q, n int }{
		{4, 4, 4}, {5, 5, 4}, {6, 6, 4}, {6, 6, 6},
	}
	worst := 1.0
	for _, alg := range plan.Algorithms() {
		for _, mach := range []machine.Params{machine.IPSC(), machine.IPSCNPort(), machine.ConnectionMachine()} {
			for _, sh := range shapes {
				name := fmt.Sprintf("%s/%s/p%dq%dn%d", alg, mach.Name, sh.p, sh.q, sh.n)
				t.Run(name, func(t *testing.T) {
					before, after, transposes := plantest.Pair(alg, sh.p, sh.q, sh.n)
					ratio := driftCase(t, alg, mach, before, after, sh.p, sh.q, transposes)
					worst = max(worst, ratio, 1/ratio)
					if ratio > factor || ratio < 1/factor {
						t.Errorf("simulated/predicted ratio %.3f outside [%.2f, %.2f]",
							ratio, 1/factor, factor)
					}
				})
			}
		}
	}
	t.Logf("worst ratio either way %.3f", worst)
}

// Section 6.2's comparison: algorithm 1 takes 2n exchange steps where
// algorithm 3 takes n, and the predictor — which prices the compiled phases —
// must order them that way wherever start-ups cost anything.
func TestConvertPredictionOrder(t *testing.T) {
	for _, mach := range []machine.Params{machine.IPSC(), machine.IPSCNPort()} {
		for _, n := range []int{4, 6} {
			cost := func(alg plan.Algorithm) float64 {
				before, after, _ := plantest.Pair(alg, n, n, n)
				pl, err := plan.Compile(alg, before, after, plan.Config{Machine: mach})
				if err != nil {
					t.Fatal(err)
				}
				return pl.PredictedCost()
			}
			if c1, c3 := cost(plan.Convert1), cost(plan.Convert3); c1 <= c3 {
				t.Errorf("%s n=%d: convert-1 predicted %v, not above convert-3's %v", mach.Name, n, c1, c3)
			}
		}
	}
}
