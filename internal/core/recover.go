package core

import (
	"slices"

	"boolcube/internal/fabric"
	"boolcube/internal/remap"
)

// Recover finishes a checkpointed execution, whatever stopped it — a link
// fault, a deadline, an audit failure or crash-stop node failures. It
// determines which nodes are dead (the checkpoint's accumulated Dead set
// unioned with every kill its fault model reports as fired by the failure
// instant), builds the finishing transfer (Relabel: the residual move-set as
// direct dimension-order spans, relabeled onto the survivors when a span
// endpoint is dead) and runs it against the post-failure fault state — by
// default the checkpoint's own fault schedule shifted to the failure instant
// (fault.Plan.After), under which every link that failed mid-run, and every
// link of a crashed node, is permanently down and the failover pass routes
// around it on disjoint-path alternatives. A spare substitution leaves the
// rest of the cube in place, so the e-cube route between two live hosts may
// still cross a dead node: that same failover pass moves such a span off.
//
// Payloads are gathered and scattered host-side by logical id into the
// checkpoint's own destination arrays, so the Result's Dist is bit-identical
// to what an uninterrupted run would have produced, and its Stats fold the
// finishing run's cost on top of the cost already sunk (so recovery cost is
// Stats.Bytes - cp.Stats.Bytes, directly comparable to a full restart).
//
// xo configures the finishing run. A nil xo.Faults means "inherit": the
// checkpoint's schedule shifted by cp.At. Tracer and Retry also default to
// the checkpoint's when unset.
//
// If the finishing run fails in turn (a second kill, say), Recover returns a
// new *ExecError whose Checkpoint has absorbed this attempt's deliveries,
// cost, fault view and casualties: each attempt only shrinks the residual,
// and calling Recover on the new checkpoint folds the new failure in and
// continues on the remaining survivors.
func Recover(cp *Checkpoint, xo ExecOptions) (*Result, error) {
	cp.Dead = deadNodes(cp)
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
	t, err := Relabel(cp, p.NDims(), cp.Dead)
	if err != nil {
		return nil, err // pre-flight: no engine ran, the checkpoint is still recoverable
	}
	if len(t.Spans) == 0 {
		return &Result{Dist: finishDist(p.After(), cp.Loc), Stats: cp.Stats}, nil
	}
	e, err := newEngine(p, xo)
	if err != nil {
		return nil, err
	}
	st, err := RunTransfers(e, []Transfer{t}, xo.failoverDown())
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

// Relabel builds the transfer that finishes cp on an n-cube with the given
// nodes dead (ascending) — n is the plan's own dimension for Recover, the
// machine's for a service round, which may run a plan on a subcube. Its
// Spans are cp.ResidualSpans (self-pair residuals replay host-side on the
// spot). Phys relabels the cube onto the survivors (internal/remap: spare
// substitution when idle live nodes exist, a Gray-code-preserving fold onto
// a dead-free subcube otherwise) only when a span starts or ends on a dead
// node; self pairs and fold-coincident pairs need no live host. With no
// dead node Phys stays nil, so the spans run between their own endpoints.
// Relabel fails only when no node survives.
func Relabel(cp *Checkpoint, n int, dead []uint64) (Transfer, error) {
	t := Transfer{Checkpoint: cp, Spans: cp.ResidualSpans()}
	if len(dead) == 0 {
		return t, nil
	}
	active := make([]uint64, 0, 2*len(t.Spans))
	for _, sp := range t.Spans {
		active = append(active, sp.Src, sp.Dst)
	}
	asg, err := remap.Plan(n, dead, active)
	if err != nil {
		return Transfer{}, err
	}
	if asg.Degraded() {
		t.Phys = asg.Phys
	}
	return t, nil
}

// deadNodes unions the checkpoint's accumulated dead set with the crashes
// its fault model reports as fired by the failure instant. The fired-crash
// query also covers kills the run outlived (a node that finished its
// program before its crash time is still dead for the recovery run) and
// runs that aborted on a link fault after a kill had already landed.
func deadNodes(cp *Checkpoint) []uint64 {
	var fired []uint64
	if fp := cp.Opts.Faults; fp != nil {
		for _, nd := range fp.CrashedNodes() {
			if ct, ok := fp.CrashAt(nd); ok && ct <= cp.At {
				fired = append(fired, nd)
			}
		}
	}
	return UnionNodes(cp.Dead, fired)
}

// UnionNodes returns the union of two node lists, ascending and
// duplicate-free, in a fresh slice. When both are empty it returns nil
// without allocating: a fault-free service round asks once per unit.
func UnionNodes(a, b []uint64) []uint64 {
	if len(a)+len(b) == 0 {
		return nil
	}
	out := slices.Concat(a, b)
	slices.Sort(out)
	return slices.Compact(out)
}
