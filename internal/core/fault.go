package core

import (
	"errors"
	"fmt"
	"slices"

	"boolcube/internal/fabric"
	"boolcube/internal/fault"
	"boolcube/internal/plan"
	"boolcube/internal/router"
)

// FailoverPolicy selects how a flow-based execution responds to routes
// blocked by permanently-failed links. (Exchange-based algorithms have a
// fixed dimension schedule with no alternative routes, so they always
// surface a blocked link as a typed error regardless of policy.)
type FailoverPolicy int

const (
	// FailoverReroute (the default) moves each blocked flow onto the first
	// unused cube.DisjointPaths alternative before injection, recording the
	// degradation in Stats (Rerouted, ExtraHops). A flow with no usable
	// alternative fails the run with a typed *router.RouteError.
	FailoverReroute FailoverPolicy = iota
	// FailoverNone injects without rerouting: the first transmission to
	// exhaust its retry budget on a failed link aborts the run with a
	// typed, deterministic *fabric.FaultError.
	FailoverNone
	// FailoverAbandon reroutes like FailoverReroute, but a flow with no
	// usable alternative is dropped from the run (its destination block
	// stays zero) and counted in Stats.Abandoned instead of failing.
	FailoverAbandon
)

func (p FailoverPolicy) String() string {
	switch p {
	case FailoverReroute:
		return "reroute"
	case FailoverNone:
		return "none"
	case FailoverAbandon:
		return "abandon"
	}
	return fmt.Sprintf("failover(%d)", int(p))
}

// ExecOptions carries the per-run (as opposed to per-plan) knobs of an
// execution: the tracer, and the fault scenario with its failover and retry
// policies. The zero value is a plain fault-free run.
type ExecOptions struct {
	// Tracer, when non-nil, receives every timed operation of the run.
	Tracer fabric.Tracer
	// Faults, when non-nil, is the compiled fault schedule to inject. It
	// must have been compiled for the plan's cube dimension.
	Faults *fault.Plan
	// Failover selects the response to routes blocked by permanent link
	// failures; the zero value is FailoverReroute.
	Failover FailoverPolicy
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
// (no faults) or the policy forbids it.
func (xo ExecOptions) failoverDown() func(from uint64, dim int) bool {
	if xo.Faults == nil || xo.Failover == FailoverNone {
		return nil
	}
	return xo.Faults.PermanentlyDown
}

// checkFaults validates the failover policy, and the fault plan against the
// n-cube the run executes on.
func (xo ExecOptions) checkFaults(n int) error {
	if xo.Failover < FailoverReroute || xo.Failover > FailoverAbandon {
		return fmt.Errorf("core: unknown failover policy %v", xo.Failover)
	}
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
// dimension of every phase).
// Flow plans are checked route by route, but only with failover disabled —
// the reroute policies do their own feasibility analysis against the
// disjoint-path alternatives.
func (xo ExecOptions) checkFeasible(p *plan.Plan) error {
	if xo.Faults == nil {
		return nil
	}
	switch p.Kind() {
	case plan.KindExchange:
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
	case plan.KindFlow:
		if xo.Failover != FailoverNone {
			return nil
		}
		pf := p.Flows()
		flows := make([]router.Flow, len(pf))
		for i, f := range pf {
			flows[i] = router.Flow{Src: f.Src, Dst: f.Dst, Dims: f.Dims}
		}
		if err := router.CheckRoutes(flows, xo.Faults.PermanentlyDown); err != nil {
			var re *router.RouteError
			if errors.As(err, &re) {
				return &InfeasibleError{
					Plan: p.Describe(),
					Detail: fmt.Sprintf("flow %d (%d -> %d) crosses a permanently down link with failover disabled",
						re.Flow, re.Src, re.Dst),
					Cause: re,
				}
			}
			return err
		}
	}
	return nil
}
