package plan_test

import (
	"fmt"
	"slices"
	"testing"

	"boolcube/internal/core"
	"boolcube/internal/field"
	"boolcube/internal/machine"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
)

// Auto's pick is the simulated winner: on every cell of the grid — square
// 2^p x 2^p matrices, p = 6 and 9, on 4-, 6- and 8-cubes of the one-port
// iPSC, the n-port iPSC and the Connection Machine — the plan Compile(Auto)
// returns simulates within 5% of the fastest of its candidates. Two-
// dimensional consecutive storage makes every candidate eligible; one-
// dimensional consecutive rows (where they fit the cube) leave the exchange
// and SBnT. An external test package because core imports plan.
func TestAutoPicksSimulatedWinner(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every candidate on 36 cells")
	}
	for _, p := range []int{6, 9} {
		for _, n := range []int{4, 6, 8} {
			h := n / 2
			twoDim := field.TwoDimConsecutive(p, p, h, h, field.Binary)
			rows := field.OneDimConsecutiveRows(p, p, n, field.Binary)
			for _, c := range []struct {
				name   string
				layout field.Layout
				cands  []plan.Algorithm
			}{
				{"2d", twoDim, []plan.Algorithm{plan.Exchange, plan.SBnT, plan.SPT, plan.DPT, plan.MPT}},
				{"1d-rows", rows, []plan.Algorithm{plan.Exchange, plan.SBnT}},
			} {
				if c.layout.Validate() != nil {
					continue // more processors than rows
				}
				for _, mach := range []machine.Params{machine.IPSC(), machine.IPSCNPort(), machine.ConnectionMachine()} {
					t.Run(fmt.Sprintf("%s/p%d/n%d/%s", c.name, p, n, mach.Name), func(t *testing.T) {
						pickCell(t, c.layout, p, c.cands, mach)
					})
				}
			}
		}
	}
}

func pickCell(t *testing.T, layout field.Layout, p int, cands []plan.Algorithm, mach machine.Params) {
	cfg := plan.Config{Machine: mach}
	auto, err := plan.Compile(plan.Auto, layout, layout, cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := matrix.Scatter(matrix.NewIota(p, p), layout)
	sim := make([]float64, len(cands))
	for i, alg := range cands {
		pl, err := plan.Compile(alg, layout, layout, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Execute(pl, src, nil)
		if err != nil {
			t.Fatal(err)
		}
		sim[i] = res.Stats.Time
	}
	i := slices.Index(cands, auto.Algorithm())
	if i < 0 {
		t.Fatalf("Auto picked %v, not a candidate", auto.Algorithm())
	}
	if best := slices.Min(sim); sim[i] > 1.05*best {
		t.Errorf("Auto picked %v, simulating %.1f µs; the fastest candidate takes %.1f µs (simulated %v = %.1f)",
			auto.Algorithm(), sim[i], best, cands, sim)
	}
}
