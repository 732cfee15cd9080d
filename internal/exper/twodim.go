package exper

import (
	"fmt"

	"boolcube/internal/comm"
	"boolcube/internal/core"
	"boolcube/internal/cost"
	"boolcube/internal/fabric"
	"boolcube/internal/field"
	"boolcube/internal/machine"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
)

func init() {
	register("fig13", fig13)
	register("fig14a", fig14a)
	register("fig14b", fig14b)
	register("fig15", fig15)
	register("theorem2", theorem2)
	register("theorem3", theorem3)
	register("sptdpt", sptdpt)
}

// twoDimLayouts builds the square 2-D consecutive layout pair for a matrix
// of 2^logElems elements on an n-cube.
func twoDimLayouts(logElems, n int) (before, after field.Layout, p, q int, ok bool) {
	p, q = shapeFor(logElems)
	if n%2 != 0 || n/2 > p || n/2 > q {
		return before, after, p, q, false
	}
	before = field.TwoDimConsecutive(p, q, n/2, n/2, field.Binary)
	after = field.TwoDimConsecutive(q, p, n/2, n/2, field.Binary)
	return before, after, p, q, true
}

// verified runs the registry row alg on an iota matrix stored under before
// into after and verifies the result element-exact: against the transpose,
// or against the matrix itself when the row does not transpose
// (Algorithm.Transposes). Plans are compiled once per (algorithm, layout,
// machine) configuration through the shared cache, so sweeps that revisit
// a configuration only pay execution.
func verified(alg plan.Algorithm, before, after field.Layout, opt core.Options) (fabric.Stats, error) {
	m := matrix.NewIota(before.P, before.Q)
	res, err := core.Transpose(alg, matrix.Scatter(m, before), after, opt)
	if err != nil {
		return fabric.Stats{}, err
	}
	want := m
	if alg.Transposes() {
		want = m.Transposed()
	}
	if verr := res.Dist.Verify(want); verr != nil {
		return fabric.Stats{}, verr
	}
	return res.Stats, nil
}

// runTranspose is verified on the square two-dimensional consecutive pair
// of 2^logElems elements over an n-cube.
func runTranspose(alg plan.Algorithm, logElems, n int, opt core.Options) (fabric.Stats, error) {
	before, after, _, _, ok := twoDimLayouts(logElems, n)
	if !ok {
		return fabric.Stats{}, fmt.Errorf("exper: shape %d elems on %d-cube invalid", logElems, n)
	}
	return verified(alg, before, after, opt)
}

// fig13 reproduces Figure 13: copy, communication and total time of the
// two-dimensional (SPT) transpose on a 2-cube and a 6-cube vs matrix size.
func fig13() (*Table, error) {
	t := &Table{
		ID:      "fig13",
		Title:   "2-D SPT transpose on the iPSC: copy vs communication vs total",
		Columns: []string{"cube dims n", "matrix KB", "copy (ms)", "comm (ms)", "total (ms)", "model total (ms)"},
		Notes: []string{
			"copy time decreases with cube size (less data per node); comm dominated by start-ups for small matrices",
		},
	}
	mach := machine.IPSC()
	for _, n := range []int{2, 6} {
		for _, logBytes := range []int{12, 14, 16, 18, 20} {
			logElems := logBytes - 2
			opt := core.Options{Machine: mach, Strategy: comm.SingleMessage, LocalCopies: true}
			st, err := runTranspose(plan.SPT, logElems, n, opt)
			if err != nil {
				return nil, err
			}
			perNodeCopy := 2 * mach.CopyTime((1<<uint(logBytes))/(1<<uint(n)))
			comm := st.Time - perNodeCopy
			M := float64(int64(1) << uint(logBytes))
			t.AddRow(n, 1<<uint(logBytes-10), perNodeCopy/1000, comm/1000, st.Time/1000,
				cost.IPSCTwoDim(M, n, mach)/1000)
		}
	}
	return t, nil
}

// fig14a reproduces Figure 14a: total SPT transpose time vs cube dimension
// and matrix size on the iPSC.
func fig14a() (*Table, error) {
	t := &Table{
		ID:      "fig14a",
		Title:   "2-D SPT transpose time vs cube dimension and matrix size (iPSC)",
		Columns: []string{"matrix KB", "n=2 (ms)", "n=4 (ms)", "n=6 (ms)", "n=8 (ms)"},
		Notes: []string{
			"small matrices: start-ups dominate, time grows with n; large matrices: time shrinks with n",
		},
	}
	mach := machine.IPSC()
	for _, logBytes := range []int{10, 12, 14, 16, 18, 20} {
		row := []interface{}{1 << uint(logBytes-10)}
		for _, n := range []int{2, 4, 6, 8} {
			logElems := logBytes - 2
			if _, _, _, _, ok := twoDimLayouts(logElems, n); !ok {
				row = append(row, "-")
				continue
			}
			st, err := runTranspose(plan.SPT, logElems, n,
				core.Options{Machine: mach, LocalCopies: true})
			if err != nil {
				return nil, err
			}
			row = append(row, st.Time/1000)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// fig14b reproduces Figure 14b: the same transposes performed by direct
// sends through the dimension-order routing logic.
func fig14b() (*Table, error) {
	t := &Table{
		ID:      "fig14b",
		Title:   "2-D transpose via routing logic (dimension-order direct sends, iPSC)",
		Columns: []string{"matrix KB", "n=2 (ms)", "n=4 (ms)", "n=6 (ms)", "n=8 (ms)", "SPT n=8 (ms)"},
		Notes: []string{
			"link contention of unscheduled e-cube routing makes this increasingly worse than SPT as the cube grows",
		},
	}
	mach := machine.IPSC()
	for _, logBytes := range []int{10, 12, 14, 16, 18, 20} {
		row := []interface{}{1 << uint(logBytes-10)}
		for _, n := range []int{2, 4, 6, 8} {
			logElems := logBytes - 2
			if _, _, _, _, ok := twoDimLayouts(logElems, n); !ok {
				row = append(row, "-")
				continue
			}
			st, err := runTranspose(plan.RoutingLogic, logElems, n,
				core.Options{Machine: mach, LocalCopies: true})
			if err != nil {
				return nil, err
			}
			row = append(row, st.Time/1000)
		}
		if _, _, _, _, ok := twoDimLayouts(logBytes-2, 8); ok {
			st, err := runTranspose(plan.SPT, logBytes-2, 8,
				core.Options{Machine: mach, LocalCopies: true})
			if err != nil {
				return nil, err
			}
			row = append(row, st.Time/1000)
		} else {
			row = append(row, "-")
		}
		t.AddRow(row...)
	}
	return t, nil
}

// fig15 reproduces Figure 15: mixed binary/Gray encoding transpose, naive
// (2n-2 steps) vs combined (n steps) algorithm.
func fig15() (*Table, error) {
	t := &Table{
		ID:      "fig15",
		Title:   "mixed-encoding transpose: naive (2n-2 steps) vs combined (n steps), iPSC",
		Columns: []string{"cube dims n", "matrix KB", "naive (ms)", "combined (ms)", "speedup"},
	}
	mach := machine.IPSC()
	for _, n := range []int{2, 4, 6, 8} {
		for _, logBytes := range []int{12, 16, 20} {
			logElems := logBytes - 2
			p, q := shapeFor(logElems)
			if n/2 > p || n/2 > q {
				continue
			}
			before := field.TwoDimEncoded(p, q, n/2, n/2, field.Binary, field.Gray)
			after := field.TwoDimEncoded(q, p, n/2, n/2, field.Binary, field.Gray)
			run := func(alg plan.Algorithm) (float64, error) {
				st, err := verified(alg, before, after, core.Options{Machine: mach})
				return st.Time, err
			}
			naive, err := run(plan.MixedNaive)
			if err != nil {
				return nil, err
			}
			combined, err := run(plan.MixedCombined)
			if err != nil {
				return nil, err
			}
			t.AddRow(n, 1<<uint(logBytes-10), naive/1000, combined/1000,
				fmt.Sprintf("%.2f", naive/combined))
		}
	}
	return t, nil
}

// theorem2 compares the simulated MPT against the four-regime T_min formula
// of Theorem 2 across matrix sizes and cube dimensions.
func theorem2() (*Table, error) {
	t := &Table{
		ID:      "theorem2",
		Title:   "MPT simulated time vs Theorem 2 T_min (n-port iPSC costs)",
		Columns: []string{"cube dims n", "matrix KB", "regime", "model (ms)", "sim (ms)", "sim/model"},
		Notes: []string{
			"simulation packetizes at the machine B_m grain; store-and-forward pipelining approaches T_min",
		},
	}
	mach := machine.IPSCNPort()
	for _, n := range []int{4, 6, 8} {
		for _, logBytes := range []int{12, 16, 20} {
			logElems := logBytes - 2
			if _, _, _, _, ok := twoDimLayouts(logElems, n); !ok {
				continue
			}
			st, err := runTranspose(plan.MPT, logElems, n,
				core.Options{Machine: mach})
			if err != nil {
				return nil, err
			}
			M := float64(int64(1) << uint(logBytes))
			model, regime := cost.MPT(M, n, mach)
			t.AddRow(n, 1<<uint(logBytes-10), fmt.Sprint(regime),
				model/1000, st.Time/1000, fmt.Sprintf("%.2f", st.Time/model))
		}
	}
	return t, nil
}

// theorem3 checks every algorithm against the lower bound
// max(nτ, PQ/(2N)·t_c).
func theorem3() (*Table, error) {
	t := &Table{
		ID:      "theorem3",
		Title:   "algorithms vs the Theorem 3 lower bound (iPSC, 1 MB matrix, 6-cube)",
		Columns: []string{"algorithm", "ports", "sim (ms)", "bound (ms)", "ratio"},
	}
	logBytes, n := 20, 6
	logElems := logBytes - 2
	M := float64(int64(1) << uint(logBytes))
	algos := []struct {
		name string
		alg  plan.Algorithm
		mach machine.Params
	}{
		{"exchange", plan.Exchange, machine.IPSC()},
		{"SPT", plan.SPT, machine.IPSC()},
		{"DPT", plan.DPT, machine.IPSCNPort()},
		{"MPT", plan.MPT, machine.IPSCNPort()},
		{"SBnT", plan.SBnT, machine.IPSCNPort()},
	}
	for _, a := range algos {
		st, err := runTranspose(a.alg, logElems, n, core.Options{Machine: a.mach, Packets: 4})
		if err != nil {
			return nil, err
		}
		lb := cost.TransposeLowerBound(M, n, a.mach)
		t.AddRow(a.name, a.mach.Ports.String(), st.Time/1000, lb/1000,
			fmt.Sprintf("%.2f", st.Time/lb))
	}
	return t, nil
}

// sptdpt compares SPT, DPT and MPT with their analytic optima across sizes.
func sptdpt() (*Table, error) {
	t := &Table{
		ID:      "sptdpt",
		Title:   "SPT vs DPT vs MPT (n-port iPSC costs, 6-cube)",
		Columns: []string{"matrix KB", "SPT sim (ms)", "DPT sim (ms)", "MPT sim (ms)", "SPT model (ms)", "DPT model (ms)", "MPT model (ms)"},
	}
	mach := machine.IPSCNPort()
	n := 6
	for _, logBytes := range []int{12, 14, 16, 18, 20} {
		logElems := logBytes - 2
		M := float64(int64(1) << uint(logBytes))
		var sims []float64
		for _, alg := range []plan.Algorithm{plan.SPT, plan.DPT, plan.MPT} {
			st, err := runTranspose(alg, logElems, n, core.Options{Machine: mach, Packets: 4})
			if err != nil {
				return nil, err
			}
			sims = append(sims, st.Time)
		}
		_, sptMin := cost.SPTOpt(M, n, mach)
		_, dptMin := cost.DPTOpt(M, n, mach)
		mptMin, _ := cost.MPT(M, n, mach)
		t.AddRow(1<<uint(logBytes-10), sims[0]/1000, sims[1]/1000, sims[2]/1000,
			sptMin/1000, dptMin/1000, mptMin/1000)
	}
	return t, nil
}
