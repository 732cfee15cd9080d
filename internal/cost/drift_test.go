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

// The paper's AllToAllExchange estimate is written for the one-dimensional
// row-block all-to-all it analyzes; on that layout the simulation realizes
// the formula essentially exactly, so any drift here means the predictor
// and the executor have diverged from the shared plan IR.
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

// Across two-dimensional consecutive layouts the closed forms are
// approximations (the 2-D exchange moves different volumes, and the SBnT
// executor pays per-hop start-ups the bundled pseudocode amortizes), but
// the paper's models still track the simulation within a factor of 2 on
// these small shapes. That bound is all the test checks: it says nothing
// about whether AlgorithmAuto ranks the candidates right, and a factor of
// 2 is loose enough for it not to (ROADMAP item 2 measured Choose picking
// the slowest plan on every n-port cell at 512x512). The conversions (each on its own layout pair, plantest.Pair) are priced from
// their compiled phases and held to the same factor on both port models.
func TestPredictionTracksSimulation(t *testing.T) {
	const factor = 2.0
	type row struct {
		alg  plan.Algorithm
		mach machine.Params
	}
	cases := []row{
		{plan.Exchange, machine.IPSC()},
		{plan.SBnT, machine.IPSC()},
		{plan.SBnT, machine.IPSCNPort()},
	}
	for _, alg := range []plan.Algorithm{plan.Convert1, plan.Convert2, plan.Convert3, plan.ConvertEncoding} {
		cases = append(cases, row{alg, machine.IPSC()}, row{alg, machine.IPSCNPort()})
	}
	shapes := []struct{ p, q, n int }{
		{4, 4, 4}, {5, 5, 4}, {6, 6, 4}, {6, 6, 6},
	}
	for _, c := range cases {
		for _, sh := range shapes {
			name := fmt.Sprintf("%s/%s/p%dq%dn%d", c.alg, c.mach.Name, sh.p, sh.q, sh.n)
			t.Run(name, func(t *testing.T) {
				before, after, transposes := plantest.Pair(c.alg, sh.p, sh.q, sh.n)
				ratio := driftCase(t, c.alg, c.mach, before, after, sh.p, sh.q, transposes)
				if ratio > factor || ratio < 1/factor {
					t.Errorf("simulated/predicted ratio %.3f outside [%.2f, %.2f]",
						ratio, 1/factor, factor)
				}
			})
		}
	}
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
