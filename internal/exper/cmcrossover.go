package exper

import (
	"fmt"

	"boolcube/internal/core"
	"boolcube/internal/cost"
	"boolcube/internal/machine"
	"boolcube/internal/plan"
)

func init() {
	register("cm-crossover", cmCrossover)
}

// cmCrossover reproduces the Section 9 comparison on the Connection Machine
// model at full machine scale: a fixed-size matrix transposed on cubes from
// n=6 up to the CM's n=16, comparing the one-dimensional SBnT all-to-all
// against the two-dimensional MPT. On a start-up-dominated machine the paper
// predicts 2-D wins inside the window sqrt(M t_c/(2N τ)) < n <
// sqrt(M t_c/(N τ)); on the CM the pipelined router charges τ once per
// message, which closes that window — the asymptotic models pick 1-D at
// every size. The simulated rows (even n <= 10) capture what the SBnT bound
// ignores, congestion on the shared tree paths, and show where the 2-D path
// system actually wins; the break-even between the two verdicts is the
// reported result.
func cmCrossover() (*Table, error) {
	const logElems = 20 // 2^20 32-bit elements: a fixed 4 MB matrix
	mach := machine.ConnectionMachine()
	M := float64(int64(1)<<uint(logElems)) * float64(mach.ElemBytes)
	t := &Table{
		ID:    "cm-crossover",
		Title: "Section 9 on the CM: 1-D (SBnT) vs 2-D (MPT) for a fixed 4 MB matrix vs machine size",
		Columns: []string{"cube dims n", "processors", "elems/proc",
			"1-D model (ms)", "2-D model (ms)", "1-D sim (ms)", "2-D sim (ms)",
			"winner(model)", "winner(sim)"},
		Notes: []string{
			"fixed matrix: 2^20 32-bit elements; pipelining charges τ once per message, closing the §9 2-D window in the models",
			"simulated confirmation at even n <= 10; n=16 is the full 65,536-processor CM (model only)",
			"the SBnT bound assumes perfectly balanced edge-disjoint paths; the simulation charges actual tree-path congestion",
		},
	}
	firstTwoD, lastTwoD := 0, 0
	simTwoD := []int{}
	for n := 6; n <= 16; n++ {
		m1 := cost.OneDimNPortMin(M, n, mach)
		m2, _ := cost.MPT(M, n, mach)
		winner := "1-D"
		if m2 < m1 {
			winner = "2-D"
			if firstTwoD == 0 {
				firstTwoD = n
			}
			lastTwoD = n
		}
		s1c, s2c, simWinner := "-", "-", "-"
		if _, _, _, _, ok := twoDimLayouts(logElems, n); ok && n <= 10 {
			s1, err := runTranspose(plan.SBnT, logElems, n,
				core.Options{Machine: mach, Packets: 1})
			if err != nil {
				return nil, err
			}
			s2, err := runTranspose(plan.MPT, logElems, n,
				core.Options{Machine: mach, Packets: 2})
			if err != nil {
				return nil, err
			}
			s1c, s2c = formatFloat(s1.Time/1000), formatFloat(s2.Time/1000)
			simWinner = "1-D"
			if s2.Time < s1.Time {
				simWinner = "2-D"
				simTwoD = append(simTwoD, n)
			}
		}
		t.AddRow(n, 1<<uint(n), 1<<uint(logElems-n), m1/1000, m2/1000, s1c, s2c, winner, simWinner)
	}
	switch {
	case firstTwoD != 0:
		t.Notes = append(t.Notes,
			fmt.Sprintf("model break-even: 2-D wins for n in [%d, %d], 1-D outside", firstTwoD, lastTwoD))
	default:
		t.Notes = append(t.Notes, "model break-even: 1-D wins at every swept size (pipelining removes the start-up window)")
	}
	if len(simTwoD) > 0 {
		t.Notes = append(t.Notes,
			fmt.Sprintf("simulated: congestion makes 2-D win at n=%v; the models and the router agree only once start-ups dominate", simTwoD))
	}
	return t, nil
}
