package plan_test

import (
	"slices"
	"testing"

	"boolcube/internal/comm"
	"boolcube/internal/core"
	"boolcube/internal/field"
	"boolcube/internal/machine"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
)

// Price and every execution share one lowering: pricing a fresh exchange
// plan lowers its phases, an execution runs those same schedules, and a
// second price reads them again to the same figure.
func TestPriceAndRunsShareOneLowering(t *testing.T) {
	l := field.TwoDimConsecutive(5, 5, 2, 2, field.Binary)
	pl, err := plan.Compile(plan.Convert2, l, field.TwoDimCyclic(5, 5, 2, 2, field.Binary),
		plan.Config{Machine: machine.IPSC(), Strategy: comm.Buffered})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Lowered(pl)) != 0 {
		t.Fatal("a fresh plan is already lowered")
	}
	first := pl.Price()
	lowered := slices.Clone(plan.Lowered(pl))
	if len(lowered) != len(pl.Phases()) || len(lowered) < 2 {
		t.Fatalf("Price lowered %d schedules for %d phases", len(lowered), len(pl.Phases()))
	}
	if !slices.Equal(pl.Schedules(), lowered) {
		t.Fatal("Schedules lowered again after Price")
	}
	if _, err := core.Execute(pl, matrix.Scatter(matrix.NewIota(5, 5), l), nil); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(pl.Schedules(), lowered) {
		t.Fatal("an execution lowered the plan again")
	}
	if again := pl.Price(); again != first {
		t.Errorf("second Price %+v, first %+v", again, first)
	}
}
