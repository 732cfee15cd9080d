package core

import (
	"testing"

	"boolcube/internal/field"
	"boolcube/internal/machine"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
)

// The Section 5 standard-exchange program with its local shuffles delivers
// the transpose for square and rectangular matrices on several cube sizes.
func TestTransposeExchangePseudocode(t *testing.T) {
	cases := []struct{ p, q, n int }{
		{2, 2, 2}, {3, 3, 3}, {4, 4, 4}, {5, 3, 3}, {3, 5, 3}, {4, 4, 1},
	}
	for _, c := range cases {
		before := field.OneDimConsecutiveRows(c.p, c.q, c.n, field.Binary)
		after := field.OneDimConsecutiveRows(c.q, c.p, c.n, field.Binary)
		m := matrix.NewIota(c.p, c.q)
		d := matrix.Scatter(m, before)
		res, err := TransposeExchangePseudocode(d, after, opts(machine.IPSC()))
		if err != nil {
			t.Fatalf("p=%d q=%d n=%d: %v", c.p, c.q, c.n, err)
		}
		if verr := res.Dist.Verify(m.Transposed()); verr != nil {
			t.Fatalf("p=%d q=%d n=%d: %v", c.p, c.q, c.n, verr)
		}
	}
}

// The literal program must cost the same as the analytical single-message
// exchange transpose, plus nothing: same start-up count, same volume.
func TestExchangePseudocodeCostMatches(t *testing.T) {
	p, q, n := 5, 5, 4
	before := field.OneDimConsecutiveRows(p, q, n, field.Binary)
	after := field.OneDimConsecutiveRows(q, p, n, field.Binary)
	m := matrix.NewIota(p, q)

	d1 := matrix.Scatter(m, before)
	lit, err := TransposeExchangePseudocode(d1, after, opts(machine.Ideal(machine.OnePort)))
	if err != nil {
		t.Fatal(err)
	}
	d2 := matrix.Scatter(m, before)
	ana, err := Transpose(plan.Exchange, d2, after, opts(machine.Ideal(machine.OnePort)))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := lit.Stats.Logical(), ana.Stats.Logical(); got != want {
		t.Errorf("logical stats: literal %+v vs analytical %+v", got, want)
	}
	if lit.Stats.Time != ana.Stats.Time {
		t.Errorf("time: literal %v vs analytical %v", lit.Stats.Time, ana.Stats.Time)
	}
}

// The Section 5 SBnT program (per-port buffers, base routing, nearest-1-bit
// forwarding, n synchronized rounds) delivers the transpose.
func TestTransposeSBnTPseudocode(t *testing.T) {
	cases := []struct{ p, q, n int }{
		{2, 2, 2}, {3, 3, 3}, {4, 4, 4}, {5, 3, 3}, {5, 5, 5},
	}
	for _, c := range cases {
		before := field.OneDimConsecutiveRows(c.p, c.q, c.n, field.Binary)
		after := field.OneDimConsecutiveRows(c.q, c.p, c.n, field.Binary)
		m := matrix.NewIota(c.p, c.q)
		d := matrix.Scatter(m, before)
		res, err := TransposeSBnTPseudocode(d, after, opts(machine.IPSCNPort()))
		if err != nil {
			t.Fatalf("p=%d q=%d n=%d: %v", c.p, c.q, c.n, err)
		}
		if verr := res.Dist.Verify(m.Transposed()); verr != nil {
			t.Fatalf("p=%d q=%d n=%d: %v", c.p, c.q, c.n, verr)
		}
	}
}

// With n-port communication the SBnT program must beat the one-port
// exchange program on transfer-dominated problems (Section 5's point).
func TestSBnTPseudocodeNPortAdvantage(t *testing.T) {
	p, q, n := 6, 6, 4
	mach := machine.Ideal(machine.NPort)
	mach.Tau = 0.001
	before := field.OneDimConsecutiveRows(p, q, n, field.Binary)
	after := field.OneDimConsecutiveRows(q, p, n, field.Binary)
	m := matrix.NewIota(p, q)

	d1 := matrix.Scatter(m, before)
	sbnt, err := TransposeSBnTPseudocode(d1, after, opts(mach))
	if err != nil {
		t.Fatal(err)
	}
	machOne := machine.Ideal(machine.OnePort)
	machOne.Tau = 0.001
	d2 := matrix.Scatter(m, before)
	exch, err := TransposeExchangePseudocode(d2, after, opts(machOne))
	if err != nil {
		t.Fatal(err)
	}
	if sbnt.Stats.Time >= exch.Stats.Time {
		t.Errorf("SBnT n-port (%v) not faster than one-port exchange (%v)",
			sbnt.Stats.Time, exch.Stats.Time)
	}
}

func TestPseudocode5RejectsBadLayouts(t *testing.T) {
	before := field.TwoDimConsecutive(4, 4, 2, 2, field.Binary)
	after := field.TwoDimConsecutive(4, 4, 2, 2, field.Binary)
	d := matrix.Scatter(matrix.NewIota(4, 4), before)
	if _, err := TransposeExchangePseudocode(d, after, opts(machine.IPSC())); err == nil {
		t.Error("2-D layouts accepted by the 1-D exchange pseudocode")
	}
	if _, err := TransposeSBnTPseudocode(d, after, opts(machine.IPSC())); err == nil {
		t.Error("2-D layouts accepted by the SBnT pseudocode")
	}
}
