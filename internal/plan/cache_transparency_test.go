package plan_test

import (
	"fmt"
	"reflect"
	"testing"

	"boolcube/internal/core"
	"boolcube/internal/machine"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
	"boolcube/internal/plan/plantest"
)

// Cache transparency: the plan plan.Default hands out is the plan a fresh
// plan.Compile of the same key builds — same description, schedule and
// predicted cost — and executing either yields identical Stats and an
// element-exact Dist. Every transpose entry point compiles through the
// cache, so this is the one place a cached plan is compared with an
// uncached one. An external test package because core imports plan.
func TestCacheTransparency(t *testing.T) {
	const p, q, n = 4, 4, 4
	m := matrix.NewIota(p, q)
	for _, mach := range []machine.Params{machine.IPSC(), machine.IPSCNPort()} {
		for _, alg := range plan.Algorithms() {
			t.Run(fmt.Sprintf("%s/%s", mach.Name, alg), func(t *testing.T) {
				before, after, transposes := plantest.Pair(alg, p, q, n)
				want := plantest.Want(m, transposes)
				cfg := plan.Config{Machine: mach, LocalCopies: true}
				cached, err := plan.Default.Compile(alg, before, after, cfg)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := plan.Compile(alg, before, after, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if cached == fresh {
					t.Fatal("plan.Compile returned the cached plan; nothing is being compared")
				}
				if c, f := cached.Describe(), fresh.Describe(); c != f {
					t.Errorf("Describe: cached %q, fresh %q", c, f)
				}
				if !reflect.DeepEqual(cached.Flows(), fresh.Flows()) {
					t.Error("Flows differ between the cached and the fresh plan")
				}
				if !reflect.DeepEqual(cached.Phases(), fresh.Phases()) {
					t.Error("Phases differ between the cached and the fresh plan")
				}
				if c, f := cached.PredictedCost(), fresh.PredictedCost(); c != f {
					t.Errorf("PredictedCost: cached %v, fresh %v", c, f)
				}
				rc, err := core.Execute(cached, matrix.Scatter(m, before), nil)
				if err != nil {
					t.Fatal(err)
				}
				rf, err := core.Execute(fresh, matrix.Scatter(m, before), nil)
				if err != nil {
					t.Fatal(err)
				}
				if rc.Stats != rf.Stats {
					t.Errorf("Stats diverge:\ncached %+v\nfresh  %+v", rc.Stats, rf.Stats)
				}
				for name, r := range map[string]*core.Result{"cached": rc, "fresh": rf} {
					if err := r.Dist.Verify(want); err != nil {
						t.Errorf("%s plan: %v", name, err)
					}
				}
			})
		}
	}
}
