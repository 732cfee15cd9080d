package exper

import (
	"fmt"

	"boolcube/internal/core"
	"boolcube/internal/cost"
	"boolcube/internal/fabric"
	"boolcube/internal/fault"
	"boolcube/internal/machine"
	"boolcube/internal/plan"
)

func init() {
	register("fault-sweep", faultSweep)
}

// faultSeeds is the fixed seed set every (algorithm, k) cell is swept over,
// so the table is deterministic run to run.
var faultSeeds = []int64{1, 2, 3, 4}

// faultSweep measures robustness rather than speed: each path system
// transposes the same matrix on a 6-cube while k random directed links are
// permanently down, failing over blocked flows to unused disjoint-path
// alternatives. Survival is completing with the exact transpose; slowdown
// is simulated time over the fault-free run of the same algorithm. The
// multi-path systems ride the cube's redundancy (Section 6.1 path lemmas);
// the exchange algorithm has a fixed dimension schedule and no alternative
// routes, so any fault on its schedule is fatal by construction.
func faultSweep() (*Table, error) {
	const (
		n        = 6
		logElems = 12
	)
	t := &Table{
		ID:    "fault-sweep",
		Title: fmt.Sprintf("fault sweep: survival and slowdown under k random link failures (%d-cube, n-port iPSC)", n),
		Columns: []string{"algorithm", "k links down", "survived", "mean slowdown",
			"mean reroutes", "mean extra hops", "model slowdown"},
		Notes: []string{
			"survival = exact transpose delivered despite the faults (reroute failover);",
			"slowdown and reroutes average over the surviving seeds; model slowdown is",
			"the DegradedPipelinedPaths expectation for the algorithm's shortest route",
		},
	}
	mach := machine.IPSCNPort()
	algos := []struct {
		name  string
		alg   plan.Algorithm
		paths int // path multiplicity for the degraded-cost model (0 = no model)
	}{
		{"SPT", plan.SPT, 1},
		{"DPT", plan.DPT, 2},
		{"MPT", plan.MPT, 2 * (n / 2)},
		{"exchange", plan.Exchange, 0},
	}
	ks := []int{0, 1, 2, 4}

	// Every (algorithm, k, seed) point is an independent simulation, so the
	// whole sweep fans out over one flat job list; the rows are assembled
	// serially afterwards in the canonical (algorithm, k, seed) order, so
	// the table is byte-identical to a serial sweep for any worker count.
	bases, err := Par(len(algos), 0, func(i int) (fabric.Stats, error) {
		return runTranspose(algos[i].alg, logElems, n, core.Options{Machine: mach})
	})
	if err != nil {
		return nil, err
	}
	type cell struct {
		st fabric.Stats
		ok bool
	}
	nseeds := len(faultSeeds)
	cells, err := Par(len(algos)*len(ks)*nseeds, 0, func(j int) (cell, error) {
		a := algos[j/(len(ks)*nseeds)]
		k := ks[j/nseeds%len(ks)]
		seed := faultSeeds[j%nseeds]
		fp, err := fault.Compile(fault.RandomLinkFailures(seed, k), n)
		if err != nil {
			return cell{}, err
		}
		st, ok, err := runFaulted(a.alg, logElems, n, core.Options{Machine: mach, Faults: fp})
		return cell{st: st, ok: ok}, err
	})
	if err != nil {
		return nil, err
	}

	for ai, a := range algos {
		base := bases[ai]
		for ki, k := range ks {
			survived := 0
			var slow, reroutes, extra float64
			for si := range faultSeeds {
				c := cells[(ai*len(ks)+ki)*nseeds+si]
				if !c.ok {
					continue
				}
				survived++
				slow += c.st.Time / base.Time
				reroutes += float64(c.st.Rerouted)
				extra += float64(c.st.ExtraHops)
			}
			row := []interface{}{a.name, k, fmt.Sprintf("%d/%d", survived, len(faultSeeds))}
			if survived > 0 {
				s := float64(survived)
				row = append(row, slow/s, reroutes/s, extra/s)
			} else {
				row = append(row, "-", "-", "-")
			}
			if a.paths > 0 {
				degraded := degradedModel(logElems, n, k, a.paths, mach)
				row = append(row, degraded)
			} else {
				row = append(row, "-")
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// runFaulted is runTranspose, but an injected-fault outcome (typed route or
// send error) is reported as ok=false instead of failing the sweep.
func runFaulted(alg plan.Algorithm, logElems, n int, opt core.Options) (fabric.Stats, bool, error) {
	st, err := runTranspose(alg, logElems, n, opt)
	if err == nil {
		return st, true, nil
	}
	if isFaultOutcome(err) {
		return fabric.Stats{}, false, nil
	}
	return fabric.Stats{}, false, err
}

// degradedModel evaluates the DegradedPipelinedPaths expectation over the
// fault-free estimate, as a slowdown factor.
func degradedModel(logElems, n, k, paths int, mach machine.Params) float64 {
	if n < 1 || n > 20 || logElems < 0 || logElems > 40 {
		return 0
	}
	M := float64(int64(1) << uint(logElems) * int64(mach.ElemBytes))
	B := M / float64(int64(paths)<<uint(n)) // one packet per path
	free := cost.PipelinedPaths(M, n, n, paths, B, mach)
	deg := cost.DegradedPipelinedPaths(M, n, n, k, paths, B, mach)
	if free <= 0 {
		return 0
	}
	return deg / free
}
