package core

import (
	"fmt"
	"slices"

	"boolcube/internal/fabric"
	"boolcube/internal/fault"
	"boolcube/internal/plan"
)

// ExecOptions carries the per-run (as opposed to per-plan) knobs of an
// execution: the tracer, and the fault scenario with its retry policy. The
// zero value is a plain fault-free run.
type ExecOptions struct {
	// Tracer, when non-nil, receives every timed operation of the run.
	Tracer fabric.Tracer
	// Faults, when non-nil, is the compiled fault schedule to inject. It
	// must have been compiled for the plan's cube dimension. A flow plan
	// moves each flow whose route crosses a permanently-down link onto the
	// first unused cube.DisjointPaths alternative before injection (counted
	// in Stats.Rerouted and Stats.ExtraHops); a flow with no usable
	// alternative refuses the run with a *router.RouteError wrapping
	// router.ErrNoRoute.
	Faults *fault.Plan
	// Retry bounds the engine's per-transmission retry/backoff loop; zero
	// fields take the simnet defaults (3 attempts, backoff τ).
	Retry fabric.RetryPolicy
	// Deadline, when positive, aborts the run before any operation would
	// start past this virtual time (µs). The abort is clean and typed
	// (fabric.ErrDeadline) and — like every mid-run failure — carries a
	// Checkpoint, so a deadline-hit run can be resumed.
	Deadline float64
	// Backend names the fabric backend the plan executes on; empty selects
	// fabric.DefaultBackend (the deterministic simulation). Plans are
	// backend-neutral — the same compiled plan replays on any registered
	// backend.
	Backend string
}

// failoverDown is the failover predicate of the run — the fault schedule's
// permanently-down links — or nil when there is nothing to fail over from
// (no faults).
func (xo ExecOptions) failoverDown() func(from uint64, dim int) bool {
	if xo.Faults == nil {
		return nil
	}
	return xo.Faults.PermanentlyDown
}

// checkFaults validates the fault plan against the n-cube the run executes
// on.
func (xo ExecOptions) checkFaults(n int) error {
	if xo.Faults != nil && xo.Faults.Dims() != n {
		return fmt.Errorf("core: fault plan compiled for a %d-cube, run executes on a %d-cube",
			xo.Faults.Dims(), n)
	}
	return nil
}

// checkFeasible is the pre-flight feasibility check: when the fault schedule
// permanently severs every path the plan needs, the run is refused with a
// typed *InfeasibleError before any traffic moves, instead of burning the
// doomed run and failing mid-flight. Exchange plans have a fixed dimension
// schedule with no alternative routes, so any permanently-down link on a
// dimension some phase exchanges over is fatal (every node transmits on every
// dimension of every phase). Flow plans need no pre-flight: the failover pass
// does its own feasibility analysis against the disjoint-path alternatives.
func (xo ExecOptions) checkFeasible(p *plan.Plan) error {
	if xo.Faults == nil || p.Kind() != plan.KindExchange {
		return nil
	}
	for _, l := range xo.Faults.DownLinks() {
		if !xo.Faults.PermanentlyDown(l.From, l.Dim) {
			continue
		}
		for _, ph := range p.Phases() {
			if slices.Contains(ph.Dims, l.Dim) {
				return &InfeasibleError{
					Plan:   p.Describe(),
					Detail: fmt.Sprintf("%v permanently down severs exchange dimension %d", l, l.Dim),
				}
			}
		}
	}
	return nil
}
