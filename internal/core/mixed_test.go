package core

import (
	"testing"

	"boolcube/internal/field"
	"boolcube/internal/machine"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
)

// The combined algorithm must use at most n routing steps per payload; the
// naive one up to 2n-2. On a start-up-dominated machine the combined
// algorithm therefore wins (Figure 15).
func TestMixedCombinedBeatsNaive(t *testing.T) {
	p, q, n := 5, 5, 6
	mach := machine.IPSC() // τ-dominated for small blocks
	before := field.TwoDimEncoded(p, q, n/2, n/2, field.Binary, field.Gray)
	after := field.TwoDimEncoded(q, p, n/2, n/2, field.Binary, field.Gray)
	m := matrix.NewIota(p, q)

	d1 := matrix.Scatter(m, before)
	naive, err := Transpose(plan.MixedNaive, d1, after, opts(mach))
	if err != nil {
		t.Fatal(err)
	}
	d2 := matrix.Scatter(m, before)
	combined, err := Transpose(plan.MixedCombined, d2, after, opts(mach))
	if err != nil {
		t.Fatal(err)
	}
	if combined.Stats.Time >= naive.Stats.Time {
		t.Errorf("combined (%v) not faster than naive (%v)",
			combined.Stats.Time, naive.Stats.Time)
	}
}

func TestMixedRejectsNonPermutation(t *testing.T) {
	// A 1-D layout pair is all-to-all, not a node permutation.
	before := field.OneDimConsecutiveRows(4, 4, 2, field.Binary)
	after := field.OneDimConsecutiveRows(4, 4, 2, field.Binary)
	d := matrix.Scatter(matrix.NewIota(4, 4), before)
	if _, err := Transpose(plan.MixedCombined, d, after, opts(machine.IPSC())); err == nil {
		t.Error("non-permutation accepted")
	}
}
