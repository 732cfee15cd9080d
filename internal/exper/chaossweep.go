package exper

import (
	"fmt"

	"boolcube/internal/core"
	"boolcube/internal/fabric"
	"boolcube/internal/fault"
	"boolcube/internal/machine"
	"boolcube/internal/plan"
)

func init() {
	register("chaos-sweep", chaosSweep)
}

// chaosSeeds select which nodes the random kills land on (deterministic
// table on the simulated backend, run to run).
var chaosSeeds = []int64{1, 2}

// chaosEpochsSim are the kill instants on the simulated backend, as
// fractions of each algorithm's fault-free makespan: one early (most of the
// payload still in flight) and one late kill.
var chaosEpochsSim = []float64{0.35, 0.7}

// chaosEpochsLive are the kill instants on the live backend, in wall µs
// since Run: an immediate kill (always fires) and one a short way into the
// run. Wall timing makes the direct/recovered split vary run to run; what
// the sweep pins is that every interrupted run recovers element-exact.
var chaosEpochsLive = []float64{0, 800}

// chaosSweep is the crash-stop acceptance table: k random nodes are killed
// mid-transpose on both backends, the failed run surfaces a typed
// *fabric.NodeDownError with a checkpoint, and core.Recover relabels the
// cube onto the survivors (spare substitution or Gray-preserving fold) and
// finishes — verified element-exact against the unfaulted transpose on
// every recovered cell. The cost column is the recovery traffic as a
// fraction of a full restart's: the quantitative case for remapped recovery
// over resubmission.
func chaosSweep() (*Table, error) {
	const (
		n        = 6
		logElems = 12
	)
	t := &Table{
		ID: "chaos-sweep",
		Title: fmt.Sprintf("chaos sweep: recover after k node crash-stops mid-run (%d-cube, n-port iPSC, both backends)",
			n),
		Columns: []string{"algorithm", "backend", "k nodes killed", "direct", "recovered", "failed",
			"mean recovery bytes", "mean recovery/restart"},
		Notes: []string{
			"direct = every kill missed (node finished before its crash time); recovered = the run died",
			"with a typed node-down checkpoint and core.Recover finished it on the survivors, verified",
			"element-exact; recovery/restart = recovery-run traffic over a full restart's bytes.",
			"simnet kills fire at fixed fractions of the fault-free makespan (deterministic);",
			"livenet kills fire on the wall clock, so its direct/recovered split varies run to run.",
		},
	}
	mach := machine.IPSCNPort()
	algos := []struct {
		name string
		alg  plan.Algorithm
	}{
		{"SPT", plan.SPT},
		{"DPT", plan.DPT},
		{"MPT", plan.MPT},
	}
	backends := []string{"simnet", "livenet"}
	ks := []int{1, 2}

	bases, err := Par(len(algos), 0, func(i int) (fabric.Stats, error) {
		return runTranspose(algos[i].alg, logElems, n, core.Options{Machine: mach})
	})
	if err != nil {
		return nil, err
	}

	type cell struct {
		out      outcome
		recBytes int64   // recovery traffic (final bytes - bytes sunk at failure)
		recFrac  float64 // recovery traffic / full-restart bytes
	}
	nseeds, nepochs := len(chaosSeeds), len(chaosEpochsSim)
	perCell := nseeds * nepochs
	nk, nb := len(ks), len(backends)
	// One goroutine per cell, not one per CPU: a livenet cell spends its life
	// blocked on the failure detector's wall-clock suspicion timeout, so at
	// pool width the sweep would sit those waits out GOMAXPROCS at a time.
	// The simnet cells are a few ms of CPU each and ride along.
	ncells := len(algos) * nb * nk * perCell
	cells, err := Par(ncells, ncells, func(j int) (cell, error) {
		ai := j / (nb * nk * perCell)
		backend := backends[j/(nk*perCell)%nb]
		k := ks[j/perCell%nk]
		seed := chaosSeeds[j%perCell/nepochs]
		var epoch float64
		if backend == "livenet" {
			epoch = chaosEpochsLive[j%nepochs]
		} else {
			epoch = chaosEpochsSim[j%nepochs] * bases[ai].Time
		}
		fp, err := fault.Compile(fault.RandomNodeCrashes(seed, k, epoch), n)
		if err != nil {
			return cell{}, err
		}
		// A crash schedule must fail by node-down detection.
		out, st, sunk, err := runRecovered(algos[ai].alg, logElems, n,
			core.Options{Machine: mach, Faults: fp, Backend: backend},
			maxRecoverAttempts, fabric.ErrNodeDown)
		if err != nil {
			return cell{}, err
		}
		c := cell{out: out}
		if out == outRecovered {
			c.recBytes = st.Bytes - sunk
			c.recFrac = float64(c.recBytes) / float64(bases[ai].Bytes)
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}

	for ai, a := range algos {
		for bi, backend := range backends {
			for ki, k := range ks {
				direct, recovered, failed := 0, 0, 0
				var bytes int64
				var frac float64
				for s := 0; s < perCell; s++ {
					c := cells[((ai*nb+bi)*nk+ki)*perCell+s]
					switch c.out {
					case outDirect:
						direct++
					case outRecovered:
						recovered++
						bytes += c.recBytes
						frac += c.recFrac
					default:
						failed++
					}
				}
				row := []interface{}{a.name, backend, k, direct, recovered, failed}
				if recovered > 0 {
					r := float64(recovered)
					row = append(row, fmt.Sprintf("%.0f", float64(bytes)/r), fmt.Sprintf("%.2f", frac/r))
				} else {
					row = append(row, "-", "-")
				}
				t.AddRow(row...)
			}
		}
	}
	return t, nil
}

// maxRecoverAttempts bounds the recovery loop: a second kill during a
// recovery run folds into the checkpoint's dead set and the next attempt
// continues on the remaining survivors.
const maxRecoverAttempts = 4
