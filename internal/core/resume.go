package core

import (
	"boolcube/internal/fabric"
)

// Resume finishes a checkpointed execution: it derives the residual move-set
// (plan.Plan.Remaining against the checkpoint's delivery record), recompiles
// it as direct flows, and runs them against the post-failure fault state —
// by default the checkpoint's own fault schedule shifted to the failure
// instant (fault.Plan.After), under which every link that failed mid-run is
// permanently down and the failover pass routes around it on disjoint-path
// alternatives. The residuals finish into the checkpoint's own
// destination arrays, so the Result's Dist is bit-identical to what an
// uninterrupted run would have produced, and its Stats fold the resumed
// run's cost on top of the cost already sunk (so resume cost is
// Stats.Bytes - cp.Stats.Bytes, directly comparable to a full restart).
//
// xo configures the resumed run. A nil xo.Faults means "inherit": the
// checkpoint's schedule shifted by cp.At. Tracer and Retry also default to
// the checkpoint's when unset.
//
// If the resumed run fails in turn, Resume returns a new *ExecError whose
// Checkpoint has absorbed this attempt's deliveries, cost and fault view —
// resuming is idempotent-in-the-limit: each attempt only shrinks the
// residual, and calling Resume on the new checkpoint continues from there.
func Resume(cp *Checkpoint, xo ExecOptions) (*Result, error) {
	return resumeMapped(cp, xo, nil)
}

// resumeMapped is Resume over a relabeled physical embedding: phys maps
// each logical node to the live physical node hosting it (nil means
// identity). It is RunTransfers over the checkpoint's residual spans; phys
// only decides where the transport injects and ejects them. A spare
// substitution leaves the rest of the cube in place, so the e-cube route
// between two live hosts may still cross a dead node: the failover pass
// moves such a span off, because the post-failure fault view reports every
// link of a crashed node as permanently down.
func resumeMapped(cp *Checkpoint, xo ExecOptions, phys func(uint64) uint64) (*Result, error) {
	p := cp.Plan
	if xo.Faults == nil && cp.Opts.Faults != nil {
		xo.Faults = cp.Opts.Faults.After(cp.At)
	}
	if xo.Tracer == nil {
		xo.Tracer = cp.Opts.Tracer
	}
	if xo.Retry == (fabric.RetryPolicy{}) {
		xo.Retry = cp.Opts.Retry
	}
	if err := xo.checkFaults(p.NDims()); err != nil {
		return nil, err
	}
	spans := cp.ResidualSpans()
	if len(spans) == 0 {
		return &Result{Dist: finishDist(p.After(), cp.Loc), Stats: cp.Stats}, nil
	}
	e, err := newEngine(p, xo)
	if err != nil {
		return nil, err
	}
	st, err := RunTransfers(e, []Transfer{{Checkpoint: cp, Spans: spans, Phys: phys}}, xo.failoverDown())
	total := cp.Stats.Merge(st)
	if err != nil {
		// Hand the checkpoint back with this attempt folded in: Opts/At
		// describe the just-failed attempt (its fault view and how far it
		// got), Stats the cumulative cost.
		cp.Stats = total
		cp.At = st.Time
		cp.Opts = xo
		return nil, &ExecError{Checkpoint: cp, Err: err}
	}
	return &Result{Dist: finishDist(p.After(), cp.Loc), Stats: total}, nil
}
