package core

import (
	"fmt"
	"testing"

	"boolcube/internal/field"
	"boolcube/internal/machine"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
)

// All four encoding combinations of Section 6.3, both algorithms, verified
// element-exactly.
func TestTransposeMixed(t *testing.T) {
	p, q, n := 4, 4, 4
	encs := []struct{ br, bc, ar, ac field.Encoding }{
		{field.Binary, field.Gray, field.Binary, field.Gray},     // §6.3 main case
		{field.Gray, field.Binary, field.Gray, field.Binary},     // symmetric
		{field.Binary, field.Binary, field.Gray, field.Gray},     // bin -> transposed gray
		{field.Gray, field.Gray, field.Binary, field.Binary},     // gray -> transposed bin
		{field.Binary, field.Binary, field.Binary, field.Binary}, // degenerate: pure transpose
	}
	algos := []struct {
		name string
		alg  plan.Algorithm
	}{
		{"naive", plan.MixedNaive},
		{"combined", plan.MixedCombined},
	}
	for _, ec := range encs {
		for _, a := range algos {
			name := fmt.Sprintf("%s %v%v->%v%v", a.name, ec.br, ec.bc, ec.ar, ec.ac)
			before := field.TwoDimEncoded(p, q, n/2, n/2, ec.br, ec.bc)
			after := field.TwoDimEncoded(q, p, n/2, n/2, ec.ar, ec.ac)
			m := matrix.NewIota(p, q)
			d := matrix.Scatter(m, before)
			res, err := Transpose(a.alg, d, after, opts(machine.IPSC()))
			verifyTranspose(t, name, m, res, err)
		}
	}
}

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
