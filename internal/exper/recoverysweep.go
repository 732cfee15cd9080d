package exper

import (
	"errors"
	"fmt"

	"boolcube/internal/core"
	"boolcube/internal/fabric"
	"boolcube/internal/fault"
	"boolcube/internal/machine"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
)

func init() {
	register("recovery-sweep", recoverySweep)
}

// recoverySeeds is the fixed seed set of the recovery sweep (deterministic
// table, run to run).
var recoverySeeds = []int64{1, 2, 3}

// recoveryEpochs are the kill instants, as fractions of each algorithm's
// fault-free makespan: one early kill (much of the payload still in flight)
// and one late kill (most of it already delivered).
var recoveryEpochs = []float64{0.35, 0.7}

// outcome classifies one faulted run of the recovery and chaos sweeps.
type outcome int

const (
	outDirect    outcome = iota // completed despite the kill
	outRecovered                // failed mid-run, finished from its checkpoint
	outFailed                   // neither direct nor recoverable
)

// recoverySweep measures checkpoint/resume rather than raw robustness: k
// random directed links are killed permanently at a mid-run epoch, the
// failed execution returns its typed checkpoint, and Recover finishes the
// residual move-set over the surviving links. Unlike the fault-sweep (links
// down from time zero, where the exchange algorithm is fatal by
// construction), a mid-run kill leaves every algorithm resumable: the
// checkpoint's delivered spans shrink the residual, and the resumed run
// reroutes around the dead links on disjoint-path alternatives. The cost
// column is the resumed traffic as a fraction of what a full restart would
// move — the quantitative case for checkpointing.
func recoverySweep() (*Table, error) {
	const (
		n        = 6
		logElems = 12
	)
	t := &Table{
		ID: "recovery-sweep",
		Title: fmt.Sprintf("recovery sweep: resume after k links killed mid-run (%d-cube, n-port iPSC, epochs %.0f%%/%.0f%% of makespan)",
			n, recoveryEpochs[0]*100, recoveryEpochs[1]*100),
		Columns: []string{"algorithm", "k links killed", "direct", "resumed", "failed",
			"mean resume/restart bytes", "mean time overhead"},
		Notes: []string{
			"direct = the kill missed all remaining traffic; resumed = mid-run failure finished by",
			"checkpoint resume (result verified element-exact); resume/restart bytes = traffic of the",
			"resumed run over a full restart's; time overhead = total makespan over the fault-free run",
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
		{"exchange", plan.Exchange},
	}
	ks := []int{1, 2, 4}

	bases, err := Par(len(algos), 0, func(i int) (fabric.Stats, error) {
		return runTranspose(algos[i].alg, logElems, n, core.Options{Machine: mach})
	})
	if err != nil {
		return nil, err
	}

	type cell struct {
		out        outcome
		resumeFrac float64 // resumed-run bytes / fault-free run bytes
		slow       float64 // total makespan / fault-free makespan
	}
	nseeds, nepochs := len(recoverySeeds), len(recoveryEpochs)
	perCell := nseeds * nepochs
	cells, err := Par(len(algos)*len(ks)*perCell, 0, func(j int) (cell, error) {
		a := algos[j/(len(ks)*perCell)]
		k := ks[j/perCell%len(ks)]
		seed := recoverySeeds[j%perCell/nepochs]
		epoch := recoveryEpochs[j%nepochs] * bases[j/(len(ks)*perCell)].Time
		fp, err := fault.Compile(fault.Spec{
			Seed:  seed,
			Rules: []fault.Rule{{Kind: fault.RandomLinks, Count: k, Start: epoch}},
		}, n)
		if err != nil {
			return cell{}, err
		}
		out, st, sunk, err := runRecovered(a.alg, logElems, n, core.Options{Machine: mach, Faults: fp},
			maxResumeAttempts, nil)
		if err != nil {
			return cell{}, err
		}
		c := cell{out: out}
		if out == outRecovered {
			base := bases[j/(len(ks)*perCell)]
			c.resumeFrac = float64(st.Bytes-sunk) / float64(base.Bytes)
			c.slow = st.Time / base.Time
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}

	for ai, a := range algos {
		for ki, k := range ks {
			direct, resumed, failed := 0, 0, 0
			var frac, slow float64
			for s := 0; s < perCell; s++ {
				c := cells[(ai*len(ks)+ki)*perCell+s]
				switch c.out {
				case outDirect:
					direct++
				case outRecovered:
					resumed++
					frac += c.resumeFrac
					slow += c.slow
				default:
					failed++
				}
			}
			row := []interface{}{a.name, k, direct, resumed, failed}
			if resumed > 0 {
				r := float64(resumed)
				row = append(row, fmt.Sprintf("%.2f", frac/r), fmt.Sprintf("%.2f", slow/r))
			} else {
				row = append(row, "-", "-")
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// maxResumeAttempts bounds the resume loop: each attempt only shrinks the
// residual, but a schedule that keeps killing links could in principle fail
// every retry.
const maxResumeAttempts = 3

// runRecovered runs one transposition under a mid-run fault schedule and,
// on failure, hands the checkpoint to core.Recover (on the run's backend) up
// to attempts times. cause, when non-nil, is the sentinel the failure must
// carry; a run that still fails with it, or with any injected-fault outcome,
// counts as failed. It returns the outcome class, the final cumulative
// Stats, and the cost already sunk at the first checkpoint (so finishing
// traffic is st.Bytes - sunk). The result is verified element-exact in
// every successful outcome.
func runRecovered(alg plan.Algorithm, logElems, n int, opt core.Options, attempts int, cause error) (outcome, fabric.Stats, int64, error) {
	before, after, p, q, ok := twoDimLayouts(logElems, n)
	if !ok {
		return outFailed, fabric.Stats{}, 0, fmt.Errorf("exper: shape %d elems on %d-cube invalid", logElems, n)
	}
	m := matrix.NewIota(p, q)
	res, err := core.Transpose(alg, matrix.Scatter(m, before), after, opt)
	out, sunk := outDirect, int64(0)
	var xe *core.ExecError
	if errors.As(err, &xe) {
		if cause != nil && !errors.Is(err, cause) {
			return outFailed, fabric.Stats{}, 0, fmt.Errorf("exper: fault schedule failed without %v: %w", cause, err)
		}
		out, sunk = outRecovered, xe.Checkpoint.Stats.Bytes
		for attempt := 0; attempt < attempts; attempt++ {
			if res, err = core.Recover(xe.Checkpoint, core.ExecOptions{Backend: opt.Backend}); !errors.As(err, &xe) {
				break
			}
		}
	}
	if err == nil {
		if verr := res.Dist.Verify(m.Transposed()); verr != nil {
			return outFailed, fabric.Stats{}, 0, verr
		}
		return out, res.Stats, sunk, nil
	}
	if isFaultOutcome(err) || cause != nil && errors.Is(err, cause) {
		return outFailed, fabric.Stats{}, 0, nil
	}
	return outFailed, fabric.Stats{}, 0, err
}

// isFaultOutcome reports whether err is one of the typed injected-fault
// outcomes a sweep counts as "failed" rather than an experiment error.
func isFaultOutcome(err error) bool {
	return errors.Is(err, fabric.ErrLinkDown) || errors.Is(err, fabric.ErrRetryBudget) ||
		errors.Is(err, core.ErrInfeasible)
}
