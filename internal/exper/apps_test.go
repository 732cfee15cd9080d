package exper

import (
	"math"
	"testing"
)

// heatImplicit inverts (I - lam/2 d2): reapplying that operator to its
// solution recovers the right-hand side. A zero pivot is reported, not
// divided through.
func TestHeatOperatorsInverse(t *testing.T) {
	n := 32
	lam := 0.8
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(math.Pi * float64(i+1) / float64(n+1))
	}
	y := append([]float64(nil), x...)
	if err := heatImplicit(lam, y, make([]float64, n)); err != nil {
		t.Fatal(err)
	}
	// Reapply the operator: (1+lam) y_i - lam/2 (y_{i-1}+y_{i+1}).
	for i := 0; i < n; i++ {
		left, right := 0.0, 0.0
		if i > 0 {
			left = y[i-1]
		}
		if i < n-1 {
			right = y[i+1]
		}
		got := (1+lam)*y[i] - lam/2*(left+right)
		if math.Abs(got-x[i]) > 1e-10 {
			t.Fatalf("implicit inverse broken at %d: %v vs %v", i, got, x[i])
		}
	}
	if err := heatImplicit(-1, []float64{1, 2}, make([]float64, 2)); err == nil {
		t.Error("zero pivot accepted")
	}
}

func TestHeatExplicitBoundaries(t *testing.T) {
	row := []float64{1, 2, 3}
	out := make([]float64, 3)
	heatExplicit(1.0, row, out)
	// out[0] = 1 + 0.5*(0 - 2 + 2) = 1; out[1] = 2 + 0.5*(1-4+3) = 2;
	// out[2] = 3 + 0.5*(2-6+0) = 1.
	want := []float64{1, 2, 1}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
}
