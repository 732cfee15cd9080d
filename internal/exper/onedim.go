package exper

import (
	"fmt"

	"boolcube/internal/comm"
	"boolcube/internal/core"
	"boolcube/internal/cost"
	"boolcube/internal/field"
	"boolcube/internal/machine"
	"boolcube/internal/plan"
)

func init() {
	register("fig9", fig9)
	register("fig10", fig10)
	register("fig11", fig11)
	register("fig12", fig12)
}

// fig9 reproduces Figure 9: time for local copies of various sizes on the
// iPSC, from the affine copy model fitted to the paper's measurements.
func fig9() (*Table, error) {
	p := machine.IPSC()
	t := &Table{
		ID:      "fig9",
		Title:   "local copy time vs data size (iPSC copy model)",
		Columns: []string{"bytes", "elements (4B)", "copy time (ms)"},
		Notes: []string{
			"model: c0 + bytes*t_copy fitted to 37 ms / 4 KB (Fig. 9) and 5 ms / 256 B (Sec. 8.1)",
		},
	}
	for b := 64; b <= 1<<15; b *= 2 {
		t.AddRow(b, b/4, p.CopyTime(b)/1000)
	}
	return t, nil
}

// oneDimTranspose runs the one-dimensional consecutive-rows transpose with
// the given buffering strategy on the iPSC and returns the simulated time.
func oneDimTranspose(p, q, n int, strat comm.Strategy, mach machine.Params) (float64, error) {
	before := field.OneDimConsecutiveRows(p, q, n, field.Binary)
	after := field.OneDimConsecutiveRows(q, p, n, field.Binary)
	st, err := verified(plan.Exchange, before, after, core.Options{Machine: mach, Strategy: strat})
	return st.Time, err
}

// shapeFor splits total element count 2^(p+q) with p = q when possible.
func shapeFor(logElems int) (p, q int) {
	p = logElems / 2
	return p, logElems - p
}

// fig10 reproduces Figure 10: one-dimensional transpose time, unbuffered vs
// optimally buffered, across cube sizes and matrix sizes on the iPSC.
func fig10() (*Table, error) {
	t := &Table{
		ID:    "fig10",
		Title: "1-D transpose on the iPSC: unbuffered vs buffered communication",
		Columns: []string{"cube dims n", "matrix KB", "unbuffered sim (ms)", "buffered sim (ms)",
			"unbuffered model (ms)", "buffered model (ms)"},
		Notes: []string{
			"unbuffered start-ups double each step (2^k messages at step k): time grows ~linearly in N",
			"buffered copies runs below B_copy=256B into one message per step",
		},
	}
	mach := machine.IPSC()
	for _, n := range []int{2, 3, 4, 5, 6, 7} {
		for _, logBytes := range []int{12, 14, 16, 18} {
			logElems := logBytes - 2 // 4-byte elements
			p, q := shapeFor(logElems)
			if n > p || n > q {
				continue
			}
			un, err := oneDimTranspose(p, q, n, comm.Unbuffered, mach)
			if err != nil {
				return nil, err
			}
			bu, err := oneDimTranspose(p, q, n, comm.Buffered, mach)
			if err != nil {
				return nil, err
			}
			M := float64(int64(1) << uint(logBytes))
			t.AddRow(n, 1<<uint(logBytes-10), un/1000, bu/1000,
				cost.IPSCOneDimUnbuffered(M, n, mach)/1000,
				cost.IPSCOneDimBuffered(M, n, mach)/1000)
		}
	}
	return t, nil
}

// fig11 reproduces Figure 11: sensitivity of the buffered transpose to the
// minimum unbuffered message size B_copy.
func fig11() (*Table, error) {
	t := &Table{
		ID:      "fig11",
		Title:   "buffered 1-D transpose vs minimum unbuffered message size (iPSC, n=6, 256 KB)",
		Columns: []string{"B_copy (bytes)", "sim time (ms)"},
		Notes: []string{
			"optimum near 256 B, where copying a block costs about one start-up",
		},
	}
	p, q, n := 9, 9, 6
	for _, bc := range []int{16, 64, 128, 256, 512, 1024, 4096, 16384} {
		mach := machine.IPSC()
		mach.BCopy = bc
		tm, err := oneDimTranspose(p, q, n, comm.Buffered, mach)
		if err != nil {
			return nil, err
		}
		t.AddRow(bc, tm/1000)
	}
	return t, nil
}

// fig12 reproduces Figure 12: the effect of optimum buffering — the ratio
// of unbuffered to buffered time as a function of cube size.
func fig12() (*Table, error) {
	t := &Table{
		ID:      "fig12",
		Title:   "effect of optimum buffering on the 1-D transpose (iPSC)",
		Columns: []string{"cube dims n", "matrix KB", "unbuffered/buffered speedup"},
		Notes: []string{
			"for small cubes (or large matrices) the schemes coincide; the gap opens with n",
		},
	}
	mach := machine.IPSC()
	for _, n := range []int{2, 4, 6, 7} {
		for _, logBytes := range []int{12, 16, 18} {
			logElems := logBytes - 2
			p, q := shapeFor(logElems)
			if n > p || n > q {
				continue
			}
			un, err := oneDimTranspose(p, q, n, comm.Unbuffered, mach)
			if err != nil {
				return nil, err
			}
			bu, err := oneDimTranspose(p, q, n, comm.Buffered, mach)
			if err != nil {
				return nil, err
			}
			t.AddRow(n, 1<<uint(logBytes-10), fmt.Sprintf("%.2f", un/bu))
		}
	}
	return t, nil
}
