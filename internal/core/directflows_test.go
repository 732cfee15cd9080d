package core

import (
	"fmt"
	"reflect"
	"testing"

	"boolcube/internal/machine"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
	"boolcube/internal/plan/plantest"
)

// TestDirectFlowsIsFreshResidual: the spans a plan memoizes for a fresh
// run are exactly what a fresh checkpoint's ResidualSpans derives — same
// pairs, ranges, routes and packet grain, same order — for every
// exchange-kind registry row on its plantest pair, at the machine's packet
// default and at an explicit packet count. A second call returns the same
// memoized slice.
func TestDirectFlowsIsFreshResidual(t *testing.T) {
	rows := 0
	for _, n := range []int{2, 3, 4} {
		m := matrix.NewIota(n, n)
		for _, alg := range plan.Algorithms() {
			before, after, _ := plantest.Pair(alg, n, n, n)
			for _, packets := range []int{0, 2} {
				cfg := opts(machine.IPSCNPort()).PlanConfig()
				cfg.Packets = packets
				name := fmt.Sprintf("n%d/%s/packets%d", n, alg, packets)
				pl, err := plan.Default.Compile(alg, before, after, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if pl.Kind() != plan.KindExchange {
					continue
				}
				rows++
				got := pl.DirectFlows()
				want := NewCheckpoint(pl, matrix.Scatter(m, before)).ResidualSpans()
				if len(want) == 0 {
					t.Fatalf("%s: fresh checkpoint owes no network span", name)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: DirectFlows differs from a fresh checkpoint's residual spans:\n got %v\nwant %v", name, got, want)
				}
				if again := pl.DirectFlows(); &again[0] != &got[0] {
					t.Fatalf("%s: DirectFlows rebuilt its spans", name)
				}
			}
		}
	}
	if rows == 0 {
		t.Fatal("no exchange-kind row compiled")
	}
}
