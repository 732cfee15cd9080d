package core

import (
	"testing"

	"boolcube/internal/field"
	"boolcube/internal/machine"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
)

// The literal Section 6.3 pseudocode must produce the same transposed
// placement as the route-based combined algorithm, on several cube sizes.
func TestTransposeMixedPseudocode(t *testing.T) {
	for _, n := range []int{2, 4, 6, 8} {
		h := n / 2
		p, q := h+1, h+1 // a couple of elements per block
		if n == 8 {
			p, q = h, h // one element per processor
		}
		before := field.TwoDimEncoded(p, q, h, h, field.Binary, field.Gray)
		after := field.TwoDimEncoded(q, p, h, h, field.Binary, field.Gray)
		m := matrix.NewIota(p, q)
		d := matrix.Scatter(m, before)
		res, err := Transpose(plan.MixedPseudocode, d, after, opts(machine.IPSC()))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if verr := res.Dist.Verify(m.Transposed()); verr != nil {
			t.Fatalf("n=%d: %v", n, verr)
		}
	}
}

// The pseudocode and the route-based algorithm should cost about the same
// (both are n routing steps of full blocks).
func TestPseudocodeMatchesCombinedCost(t *testing.T) {
	h := 3
	p, q := 5, 5
	before := field.TwoDimEncoded(p, q, h, h, field.Binary, field.Gray)
	after := field.TwoDimEncoded(q, p, h, h, field.Binary, field.Gray)
	m := matrix.NewIota(p, q)

	d1 := matrix.Scatter(m, before)
	pseudo, err := Transpose(plan.MixedPseudocode, d1, after, opts(machine.IPSC()))
	if err != nil {
		t.Fatal(err)
	}
	d2 := matrix.Scatter(m, before)
	combined, err := Transpose(plan.MixedCombined, d2, after, opts(machine.IPSC()))
	if err != nil {
		t.Fatal(err)
	}
	ratio := pseudo.Stats.Time / combined.Stats.Time
	if ratio < 0.5 || ratio > 2.5 {
		t.Errorf("pseudocode time %v vs combined %v (ratio %.2f)",
			pseudo.Stats.Time, combined.Stats.Time, ratio)
	}
}

func TestPseudocodeRejectsWrongEncodings(t *testing.T) {
	before := field.TwoDimConsecutive(4, 4, 2, 2, field.Binary)
	after := field.TwoDimConsecutive(4, 4, 2, 2, field.Binary)
	d := matrix.Scatter(matrix.NewIota(4, 4), before)
	if _, err := Transpose(plan.MixedPseudocode, d, after, opts(machine.IPSC())); err == nil {
		t.Error("pure binary layouts accepted")
	}
}

// The Section 6.3 closing variants: pure binary to transposed pure Gray
// (columns switch to even-block control) and pure Gray to transposed pure
// binary (rows switch to even-parity control).
func TestPseudocodeEncodingVariants(t *testing.T) {
	cases := []struct {
		name           string
		br, bc, ar, ac field.Encoding
	}{
		{"bin/bin -> gray/gray", field.Binary, field.Binary, field.Gray, field.Gray},
		{"gray/gray -> bin/bin", field.Gray, field.Gray, field.Binary, field.Binary},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, n := range []int{2, 4, 6, 8} {
				h := n / 2
				p, q := h+1, h+1
				before := field.TwoDimEncoded(p, q, h, h, c.br, c.bc)
				after := field.TwoDimEncoded(q, p, h, h, c.ar, c.ac)
				m := matrix.NewIota(p, q)
				d := matrix.Scatter(m, before)
				res, err := Transpose(plan.MixedPseudocode, d, after, opts(machine.IPSC()))
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				if verr := res.Dist.Verify(m.Transposed()); verr != nil {
					t.Fatalf("n=%d: %v", n, verr)
				}
			}
		})
	}
}

// The paper's 16-entry case table must agree with the crossing derivation:
// crossRow = bitRow^bitCol^!evenRow, crossCol = bitRow^bitCol^!evenCol;
// no crossing -> forward role, column-only -> column first, else row first.
func TestCaseTableMatchesDerivation(t *testing.T) {
	for _, evenRow := range []bool{true, false} {
		for _, evenCol := range []bool{true, false} {
			for _, bitRow := range []uint64{0, 1} {
				for _, bitCol := range []uint64{0, 1} {
					a := bitRow ^ bitCol
					xr, xc := uint64(1), uint64(1)
					if evenRow {
						xr = 0
					}
					if evenCol {
						xc = 0
					}
					crossRow := a^xr == 1
					crossCol := a^xc == 1
					var want mixedCaseAction
					switch {
					case !crossRow && !crossCol:
						want = actForward
					case !crossRow && crossCol:
						want = actColFirst
					default:
						want = actRowFirst
					}
					got := mixedCase(evenRow, evenCol, bitRow, bitCol)
					if got != want {
						t.Errorf("key (%v,%v,%d,%d): table %v, derivation %v",
							evenRow, evenCol, bitRow, bitCol, got, want)
					}
				}
			}
		}
	}
}
