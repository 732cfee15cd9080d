package plan_test

import (
	"testing"

	"boolcube/internal/core"
	"boolcube/internal/machine"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
	"boolcube/internal/plan/plantest"
)

// FuzzCompileRuns compiles every registry row and Auto on a layout pair
// built from raw bytes (plan.PairFromBytes, the corpus format of
// FuzzNewMovesMatchesOracle). A compile must return an error or a plan,
// never panic, and a plan on up to 4 cube dimensions must run element-exact.
func FuzzCompileRuns(f *testing.F) {
	f.Fuzz(func(t *testing.T, ps, qs uint8, transpose bool, before, after []byte) {
		b, a := plan.PairFromBytes(ps, qs, transpose, before, after)
		for _, alg := range append(plan.Algorithms(), plan.Auto) {
			pl, err := plan.Compile(alg, b, a, plan.Config{Machine: machine.IPSC()})
			if err != nil || pl.NDims() > 4 {
				continue
			}
			m := matrix.NewIota(b.P, b.Q)
			res, err := core.Execute(pl, matrix.Scatter(m, b), nil)
			if err != nil {
				t.Fatalf("%v: %s -> %s: %v", alg, b, a, err)
			}
			if err := res.Dist.Verify(plantest.Want(m, alg.Transposes())); err != nil {
				t.Fatalf("%v: %s -> %s: %v", alg, b, a, err)
			}
		}
	})
}
