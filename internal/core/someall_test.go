package core

import (
	"fmt"
	"testing"

	"boolcube/internal/field"
	"boolcube/internal/machine"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
)

// Some-to-all matrix transposition (Section 5): fewer processors hold data
// before the transpose than after. The generic exchange handles it because
// nodes without data still relay.
func TestTransposeSomeToAll(t *testing.T) {
	// Before: 3x5 matrix partitioned over 2^2 processors by columns...
	// use p=2, q=4: before n=2 (by rows, only 4 procs), after n=4.
	before := field.OneDimConsecutiveRows(2, 4, 2, field.Binary)
	after := field.OneDimConsecutiveRows(4, 2, 4, field.Binary)
	cls := field.Classify(before, after)
	if cls.Pattern != field.SomeToAll {
		t.Fatalf("classification = %v, want some-to-all", cls.Pattern)
	}
	m := matrix.NewIota(2, 4)
	d := matrix.Scatter(m, before)
	res, err := Transpose(plan.Exchange, d, after, opts(machine.IPSC()))
	if err != nil {
		t.Fatal(err)
	}
	if verr := res.Dist.Verify(m.Transposed()); verr != nil {
		t.Fatal(verr)
	}
}

// All-to-some: more processors before than after.
func TestTransposeAllToSome(t *testing.T) {
	before := field.OneDimConsecutiveRows(4, 2, 4, field.Binary)
	after := field.OneDimConsecutiveRows(2, 4, 2, field.Binary)
	cls := field.Classify(before, after)
	if cls.Pattern != field.AllToSome {
		t.Fatalf("classification = %v, want all-to-some", cls.Pattern)
	}
	m := matrix.NewIota(4, 2)
	d := matrix.Scatter(m, before)
	res, err := Transpose(plan.Exchange, d, after, opts(machine.IPSC()))
	if err != nil {
		t.Fatal(err)
	}
	if verr := res.Dist.Verify(m.Transposed()); verr != nil {
		t.Fatal(verr)
	}
}

// The extreme cases: transposing a one-column matrix (a vector spread over
// one processor column) to all processors and back.
func TestTransposeVectorExtremes(t *testing.T) {
	// 16x1 matrix on 4 procs by rows -> 1x16 on 4 procs by cols: after
	// transposition every proc holds a column block; before, rows.
	before := field.OneDimConsecutiveRows(4, 0, 2, field.Binary)
	after := field.OneDimConsecutiveCols(0, 4, 2, field.Binary)
	m := matrix.NewIota(4, 0)
	d := matrix.Scatter(m, before)
	res, err := Transpose(plan.Exchange, d, after, opts(machine.Ideal(machine.OnePort)))
	if err != nil {
		t.Fatal(err)
	}
	if verr := res.Dist.Verify(m.Transposed()); verr != nil {
		t.Fatal(verr)
	}
}

// The banded combined layout of Section 2 transposes correctly through the
// generic exchange, and classification reports a non-trivial pattern.
func TestTransposeBandedCombined(t *testing.T) {
	p, q, nc, s := 6, 4, 2, 1
	before := field.BandedCombined(p, q, nc, s, field.Binary)
	// Transposed: a 2^q x 2^p matrix stored the same way requires q-s >= p,
	// which fails; instead store the transpose two-dimensionally over the
	// same number of processors (s + 2nc = 5 dims).
	after := field.Layout{P: q, Q: p, Name: "banded-target",
		Fields: []field.Field{
			{Lo: p + q - 1, Hi: p + q},     // top row bit of the transposed matrix
			{Lo: p - 2, Hi: p},             // column bits
			{Lo: p + q - 4, Hi: p + q - 2}, // more row bits
		}}
	if err := after.Validate(); err != nil {
		t.Fatal(err)
	}
	if before.NBits() != after.NBits() {
		t.Fatalf("processor counts differ: %d vs %d", before.NBits(), after.NBits())
	}
	m := matrix.NewIota(p, q)
	d := matrix.Scatter(m, before)
	res, err := Transpose(plan.Exchange, d, after, opts(machine.IPSC()))
	if err != nil {
		t.Fatal(err)
	}
	if verr := res.Dist.Verify(m.Transposed()); verr != nil {
		t.Fatal(verr)
	}
}

// Exchange transposes handle every General-pattern layout pair (partial
// field overlap), which Section 6.2 delegates to the companion paper.
func TestTransposeGeneralPattern(t *testing.T) {
	p, q := 4, 4
	// Mixed assignment with small fields: consecutive rows, cyclic cols.
	before := field.TwoDimMixed(p, q, 2, 2, field.Binary)
	// After: same policy on the transposed matrix but with a twist: gray
	// encoded, which shuffles processors within fields.
	after := field.TwoDimMixed(q, p, 2, 2, field.Gray)
	cls := field.Classify(before, after)
	t.Logf("pattern: %v (RB=%v RA=%v I=%v)", cls.Pattern, cls.RB, cls.RA, cls.I)
	m := matrix.NewIota(p, q)
	d := matrix.Scatter(m, before)
	res, err := Transpose(plan.Exchange, d, after, opts(machine.IPSC()))
	if err != nil {
		t.Fatal(err)
	}
	if verr := res.Dist.Verify(m.Transposed()); verr != nil {
		t.Fatal(verr)
	}
}

// Corollary 4: with one element per processor (N = PQ = 2^m) the transpose
// via paired exchanges takes m/2 exchange rounds, each between processors
// at distance two.
func TestTransposeOneElementPerProcessor(t *testing.T) {
	p, q := 3, 3
	n := p + q
	before := field.TwoDimConsecutive(p, q, p, q, field.Binary)
	after := field.TwoDimConsecutive(q, p, q, p, field.Binary)
	if before.LocalSize() != 1 {
		t.Fatalf("local size %d, want 1", before.LocalSize())
	}
	m := matrix.NewIota(p, q)
	d := matrix.Scatter(m, before)
	res, err := Transpose(plan.ExchangeSPTOrder, d, after, opts(machine.Ideal(machine.OnePort)))
	if err != nil {
		t.Fatal(err)
	}
	if verr := res.Dist.Verify(m.Transposed()); verr != nil {
		t.Fatal(verr)
	}
	// Every element traverses at most n dims; anti-diagonal elements
	// traverse exactly n (Lemma 8).
	_ = fmt.Sprintf("%d", n)
}
