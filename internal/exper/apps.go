package exper

import (
	"fmt"

	"boolcube/internal/comm"
	"boolcube/internal/core"
	"boolcube/internal/field"
	"boolcube/internal/machine"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
)

func init() {
	register("apps", apps)
}

// apps answers the paper's Section 1 motivation quantitatively: for an
// Alternating-Direction-Method sweep (explicit half step, transpose,
// implicit solves, and back), which transposition algorithm minimizes the
// per-step communication time? One ADM step needs two transposes; the local
// tridiagonal work is identical across algorithms, so the comparison is
// pure communication.
func apps() (*Table, error) {
	t := &Table{
		ID:    "apps",
		Title: "ADM (heat equation) step: transpose-algorithm choice (per full step, 2 transposes)",
		Columns: []string{"grid", "cube dims n", "exchange 1-port (ms)", "SBnT n-port (ms)",
			"MPT 2-D n-port (ms)", "best"},
		Notes: []string{
			"exchange and SBnT use row blocks, keeping every tridiagonal solve local",
			"(the Section 1 ADM pattern); the MPT column is the 2-D transpose cost",
			"alone — its layout would make the solves non-local, so it bounds what a",
			"2-D formulation could gain on communication",
		},
	}
	type cand struct {
		name string
		run  func(p, q, n int) (float64, error)
	}
	oneDim := func(alg plan.Algorithm, mach machine.Params) func(p, q, n int) (float64, error) {
		return func(p, q, n int) (float64, error) {
			return admStepOneDim(p, q, n, alg, mach)
		}
	}
	cands := []cand{
		{"exchange", oneDim(plan.Exchange, machine.IPSC())},
		{"sbnt", oneDim(plan.SBnT, machine.IPSCNPort())},
		{"mpt", admStepTwoDimMPT},
	}
	for _, shape := range []struct{ p, q, n int }{{7, 7, 4}, {8, 8, 4}, {9, 9, 6}} {
		row := []interface{}{
			fmt.Sprintf("%dx%d", 1<<uint(shape.p), 1<<uint(shape.q)),
			shape.n,
		}
		best, bestT := "", 0.0
		for _, c := range cands {
			tm, err := c.run(shape.p, shape.q, shape.n)
			if err != nil {
				return nil, err
			}
			row = append(row, tm/1000)
			if best == "" || tm < bestT {
				best, bestT = c.name, tm
			}
		}
		row = append(row, best)
		t.AddRow(row...)
	}
	return t, nil
}

// admStepOneDim runs one full verified ADM step with row-block layouts and
// a 1-D transpose algorithm, returning the total simulated comm time.
func admStepOneDim(p, q, n int, alg plan.Algorithm, mach machine.Params) (float64, error) {
	if p < 1 || q < 1 || p+q > 26 {
		return 0, fmt.Errorf("exper: bad ADM shape p=%d q=%d", p, q)
	}
	const lam = 0.4
	rows := field.OneDimConsecutiveRows(p, q, n, field.Binary)
	rowsT := field.OneDimConsecutiveRows(q, p, n, field.Binary)
	m := matrix.NewIota(p, q)
	d := matrix.Scatter(m, rows)
	total := 0.0

	step := func(dst field.Layout, width int) error {
		applyADMHalf(d, width, lam)
		res, err := core.Transpose(alg, d, dst, core.Options{Machine: mach, Strategy: comm.Buffered})
		if err != nil {
			return err
		}
		total += res.Stats.Time
		d = res.Dist
		return solveADMHalf(d, 1<<uint(dst.P+dst.Q)/(1<<uint(dst.P)), lam)
	}
	if err := step(rowsT, 1<<uint(q)); err != nil {
		return 0, err
	}
	if err := step(rows, 1<<uint(p)); err != nil {
		return 0, err
	}
	return total, nil
}

// admStepTwoDimMPT performs the ADM step with a square 2-D layout and MPT
// transposes. The tridiagonal sweeps are not local under 2-D partitioning,
// so this candidate measures the transpose cost alone (the application
// would pair it with a 1-D-per-direction pipeline; Section 9's comparison).
func admStepTwoDimMPT(p, q, n int) (float64, error) {
	before := field.TwoDimConsecutive(p, q, n/2, n/2, field.Binary)
	after := field.TwoDimConsecutive(q, p, n/2, n/2, field.Binary)
	m := matrix.NewIota(p, q)
	total := 0.0
	d := matrix.Scatter(m, before)
	for i := 0; i < 2; i++ {
		dst := after
		if i == 1 {
			dst = before
		}
		res, err := core.Transpose(plan.MPT, d, dst, core.Options{Machine: machine.IPSCNPort()})
		if err != nil {
			return 0, err
		}
		total += res.Stats.Time
		d = res.Dist
	}
	return total, nil
}

// applyADMHalf applies the explicit operator along local rows of width w.
func applyADMHalf(d *matrix.Dist, w int, lam float64) {
	tmp := make([]float64, w)
	for proc := range d.Local {
		local := d.Local[proc]
		for off := 0; off+w <= len(local); off += w {
			heatExplicit(lam, local[off:off+w], tmp)
			copy(local[off:off+w], tmp)
		}
	}
}

// solveADMHalf runs the implicit tridiagonal solves along local rows.
func solveADMHalf(d *matrix.Dist, w int, lam float64) error {
	scratch := make([]float64, w)
	for proc := range d.Local {
		local := d.Local[proc]
		for off := 0; off+w <= len(local); off += w {
			if err := heatImplicit(lam, local[off:off+w], scratch); err != nil {
				return fmt.Errorf("exper: implicit ADM solve at proc %d offset %d: %w", proc, off, err)
			}
		}
	}
	return nil
}

// heatExplicit applies (I + lam/2 * d2) along row into out (out may not
// alias row), with zero Dirichlet boundaries.
func heatExplicit(lam float64, row, out []float64) {
	n := len(row)
	for j := 0; j < n; j++ {
		left, right := 0.0, 0.0
		if j > 0 {
			left = row[j-1]
		}
		if j < n-1 {
			right = row[j+1]
		}
		out[j] = row[j] + lam/2*(left-2*row[j]+right)
	}
}

// heatImplicit solves (I - lam/2 * d2) x = rhs in place for the
// Peaceman-Rachford half step: the constant-coefficient Thomas algorithm
// with diagonal 1+lam, off-diagonals -lam/2 and zero Dirichlet ends.
// scratch must hold len(rhs) values.
func heatImplicit(lam float64, rhs, scratch []float64) error {
	a, b := -lam/2, 1+lam
	n := len(rhs)
	if n == 0 {
		return nil
	}
	beta := b
	if beta == 0 {
		return fmt.Errorf("exper: zero pivot at row 0")
	}
	rhs[0] /= beta
	for i := 1; i < n; i++ {
		scratch[i-1] = a / beta
		beta = b - a*scratch[i-1]
		if beta == 0 {
			return fmt.Errorf("exper: zero pivot at row %d", i)
		}
		rhs[i] = (rhs[i] - a*rhs[i-1]) / beta
	}
	for i := n - 2; i >= 0; i-- {
		rhs[i] -= scratch[i] * rhs[i+1]
	}
	return nil
}
