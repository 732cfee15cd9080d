package core

import (
	"errors"
	"fmt"

	"boolcube/internal/fabric"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
)

// Checkpoint is the durable progress record of a failed execution: the
// partially filled destination arrays, the span-set of canonical payloads
// already placed in them, the cost accrued so far, and everything needed to
// recompile the residual move-set (the plan, the source distribution, and
// the options in force). Recover finishes a checkpoint into the same
// matrix.Dist an uninterrupted run would have produced, bit for bit.
type Checkpoint struct {
	Plan *plan.Plan
	// Src is the input distribution, still needed to gather the residual
	// payloads; it is read-only throughout.
	Src *matrix.Dist
	// Loc holds the after-side local arrays as far as the failed run filled
	// them; Recover completes them in place.
	Loc [][]float64
	// Delivered records which canonical payload spans are already in Loc.
	// A multi-phase exchange plan, which has no fine-grained progress
	// tracking, records only the self pairs; nil means nothing at all, and
	// Recover re-executes the full move-set.
	Delivered *plan.Delivered
	// Stats is the cost accrued across the failed attempt(s) so far; a
	// successful Recover folds its own cost on top (counters add, makespans
	// add, per-link maxima take the max).
	Stats fabric.Stats
	// At is the virtual time the run had reached when it stopped. Recover
	// shifts the fault schedule by it (fault.Plan.After), so a link that
	// failed mid-run is permanently down from the finishing run's time zero.
	At float64
	// Opts are the exec options of the failed run. Recover reuses the
	// tracer and retry policy and derives its fault view from Faults.
	Opts ExecOptions
	// Dead accumulates the crash-stopped nodes across every failed attempt,
	// ascending. Recover unions it with the crashes its fault model reports
	// as fired by At, so a second kill during a recovery run folds in on the
	// next Recover call.
	Dead []uint64
}

// NewCheckpoint starts the progress record of a fresh execution of p over
// d: zeroed after-side arrays with the src == dst self pairs already placed.
// Self pairs never cross a link, so placing them up front makes them durable
// from the run's first instant — even a run that fails immediately
// checkpoints with them delivered.
func NewCheckpoint(p *plan.Plan, d *matrix.Dist) *Checkpoint {
	mv, after := p.Moves(), p.After()
	cp := &Checkpoint{Plan: p, Src: d, Loc: newLocal(after, 1<<uint(p.NDims())), Delivered: plan.NewDelivered()}
	for dp := 0; dp < after.N() && dp < d.Layout.N(); dp++ {
		id := uint64(dp)
		self := mv.Gather(id, d.Local[dp], id)
		mv.Scatter(id, cp.Loc[dp], id, self)
		cp.Delivered.Add(id, id, 0, len(self))
	}
	return cp
}

// ResidualSpans turns the residual move-set into executable form: self-pair
// residuals are replayed host-side on the spot, and every network residual
// becomes one direct span, dimension-order routed at the plan's packet
// grain (plan.DirectSpans). Ecube routes are shortest paths, so resume
// traffic is bounded by the residual volume times the pair distance (plus
// two hops for each span failover reroutes). That is not a restart's cost:
// a plan whose own schedule moves less per element, or a reroute, can make
// finishing move more bytes than running the whole plan again. Empty exactly
// when nothing is left to transport. On a fresh checkpoint it equals
// Plan.DirectFlows, which a fresh execution can share instead.
func (cp *Checkpoint) ResidualSpans() []plan.Flow {
	if cp.Delivered == nil {
		cp.Delivered = plan.NewDelivered()
	}
	p := cp.Plan
	mv := p.Moves()
	res := cp.Remaining()
	for _, r := range res {
		if r.Src != r.Dst {
			continue
		}
		id := r.Src
		if id < uint64(len(cp.Src.Local)) && cp.Loc[id] != nil {
			data := mv.GatherRange(id, cp.Src.Local[id], id, r.Off, r.Len)
			mv.ScatterRange(id, cp.Loc[id], id, r.Off, data)
		}
		cp.Delivered.Add(id, id, r.Off, r.Len)
	}
	return plan.DirectSpans(res, p.NDims(), p.Config().Packets)
}

// Remaining derives the residual move-set still to be transported.
func (cp *Checkpoint) Remaining() []plan.Residual {
	return cp.Plan.Remaining(cp.Delivered)
}

// DeliveredElems returns how many canonical payload elements the failed run
// had already placed.
func (cp *Checkpoint) DeliveredElems() int {
	if cp.Delivered == nil {
		return 0
	}
	return cp.Delivered.Elems()
}

// ExecError is the typed error a checkpointed execution returns on any
// mid-run failure (fault injection, deadline, deadlock, audit mismatch): the
// underlying cause plus the Checkpoint to hand to Recover. It unwraps to the
// cause, so errors.Is against the fault/deadline/audit sentinels keeps
// working through it.
type ExecError struct {
	Checkpoint *Checkpoint
	Err        error
}

func (e *ExecError) Error() string {
	return fmt.Sprintf("core: execution stopped at t=%g with %d element(s) delivered: %v",
		e.Checkpoint.At, e.Checkpoint.DeliveredElems(), e.Err)
}

func (e *ExecError) Unwrap() error { return e.Err }

// ErrInfeasible is the sentinel a pre-flight feasibility check wraps when
// the fault schedule permanently severs every path a plan needs — the run
// is refused before any traffic moves, instead of failing mid-flight.
var ErrInfeasible = errors.New("plan infeasible under fault schedule")

// InfeasibleError reports a plan that cannot complete under its fault
// schedule, detected before the run starts. It unwraps to ErrInfeasible and
// to fabric.ErrLinkDown — the sentinel the doomed run would have surfaced —
// so callers classifying fault outcomes see the same type either way.
type InfeasibleError struct {
	Plan   string // plan description
	Detail string // deterministic description of the severed resource
}

func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("core: %s infeasible under fault schedule: %s", e.Plan, e.Detail)
}

func (e *InfeasibleError) Unwrap() []error { return []error{ErrInfeasible, fabric.ErrLinkDown} }
