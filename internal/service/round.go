package service

import (
	"errors"
	"fmt"
	"math"

	"boolcube/internal/core"
	"boolcube/internal/fabric"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
	"boolcube/internal/router"
)

// unit is one execution unit of a round: a batch of jobs sharing a compiled
// plan and a source distribution. The embedded checkpoint is the unit's
// shared progress — plan, source, destination arrays, delivery record, cost
// accrued across its rounds, crash casualties (ascending) — and is exactly
// what a failing unit hands its tenants. jobs[0] is the leader — it receives
// the real arrays; followers receive deep copies.
type unit struct {
	core.Checkpoint
	jobs     []*Job
	attempts int
	budget   float64     // remaining deadline budget, µs (+Inf = none)
	spans    []plan.Flow // residual network transfers
}

// budgetOf maps a job's deadline to a budget (+Inf when unset).
func budgetOf(j *Job) float64 {
	if j.spec.Deadline > 0 {
		return j.spec.Deadline
	}
	return math.Inf(1)
}

// newUnit builds a fresh execution unit for one job: a new checkpoint (self
// pairs placed, so even a failed first round leaves them durable) and the
// network spans. Flow plans keep their compiled path-system routes and
// packetization; exchange plans execute their canonical move-set over
// dimension-order direct routes, exactly as checkpoint resume replays
// residuals — the plan's DirectFlows, built once per plan and shared.
func newUnit(j *Job) *unit {
	u := &unit{
		Checkpoint: *core.NewCheckpoint(j.plan, j.spec.Src),
		jobs:       []*Job{j},
		budget:     budgetOf(j),
	}
	if j.plan.Kind() == plan.KindFlow {
		u.spans = j.plan.Flows()
	} else {
		u.spans = j.plan.DirectFlows()
	}
	return u
}

// runRound executes one round: every unit's spans as one core.RunTransfers
// call on one fresh engine. This is where multi-tenancy becomes physical —
// co-scheduled units' packets contend for the same links, and the round's
// deadline is the tightest remaining budget among its jobs. On success every
// unit completes; on a deadline abort the binding units fail with per-job
// checkpoints while the others keep the round's partial progress, shrink
// their budgets by the round's makespan, and re-queue for an automatic
// residual resume.
//
// Under the service's fault view, rounds survive dead hardware: a unit
// whose transfers start or end on a dead or quarantined node is relabeled
// onto survivors by core.Relabel (spare substitution or a Gray-preserving
// fold), residual payloads staying addressed by logical id so results are
// element-exact; flows that merely route through a casualty fail over to
// disjoint-path alternatives. A round that still dies on a node crash
// surfaces a *fabric.NodeDownError; its units absorb the casualties into
// their dead sets and re-queue at once for a remapped recovery round.
func (s *Service) runRound(units []*unit) {
	// Build one transfer per unit, relabeling degraded units first. A unit
	// needs a remap only when a span endpoint is dead; its compiled routes
	// are otherwise kept and the failover pass handles dead intermediates.
	eb := s.cfg.Machine.ElemBytes
	if eb <= 0 {
		eb = 8
	}
	avoid := s.QuarantinedNodes()
	roundDead := make(map[uint64]bool)
	var recoveryBytes int64
	nflows := 0
	roundBudget := math.Inf(1)
	live := units[:0:0]
	transfers := make([]core.Transfer, 0, len(units))
	for _, u := range units {
		t := core.Transfer{Checkpoint: &u.Checkpoint, Spans: u.spans}
		deadU := core.UnionNodes(u.Dead, avoid)
		for _, nd := range deadU {
			roundDead[nd] = true
		}
		if len(deadU) > 0 && u.touchesDead(deadU) {
			// Degrade to dimension-order residual spans (replaying any
			// self pairs host-side), embedded on the survivors.
			var err error
			if t, err = core.Relabel(&u.Checkpoint, s.cfg.Dims, deadU); err != nil {
				s.failUnit(u, err)
				continue
			}
			u.spans = t.Spans
		}
		live = append(live, u)
		transfers = append(transfers, t)
		roundBudget = min(roundBudget, u.budget)
		nflows += len(u.spans)
		if len(u.Dead) > 0 {
			for _, sp := range u.spans {
				recoveryBytes += int64(sp.Len * eb)
			}
		}
	}
	units = live
	if nflows == 0 {
		// Everything was local (self pairs only) — no engine needed.
		for _, u := range units {
			s.completeUnit(u)
		}
		return
	}

	// Route around links the fault view has already condemned and around
	// every node this round treats as dead (a remapped unit's own route
	// may otherwise thread a spare substitution through the corpse).
	var down func(from uint64, dim int) bool
	if s.faults != nil || len(roundDead) > 0 {
		down = func(from uint64, dim int) bool {
			if s.faults != nil && s.faults.PermanentlyDown(from, dim) {
				return true
			}
			return roundDead[from] || roundDead[from^(1<<uint(dim))]
		}
	}

	e, err := fabric.New(s.cfg.Backend, s.cfg.Dims, s.cfg.Machine)
	if err != nil {
		// The backend was validated at New; treat a late failure as fatal
		// for this round's jobs.
		for _, u := range units {
			s.failUnit(u, err)
		}
		return
	}
	if s.faults != nil {
		e.SetFaults(s.faults, fabric.RetryPolicy{})
	}
	if !math.IsInf(roundBudget, 1) {
		e.SetDeadline(roundBudget)
	}
	st, runErr := core.RunTransfers(e, transfers, down)
	var re *router.RouteError
	if errors.As(runErr, &re) {
		// Refused before the engine ran: one flow has no fault-free route.
		// That condemns the unit owning it, not its co-tenants — fail the
		// owner and run the round with the rest.
		i, fi := 0, re.Flow
		for fi >= len(units[i].spans) {
			fi -= len(units[i].spans)
			i++
		}
		s.failUnit(units[i], runErr)
		s.runRound(append(units[:i:i], units[i+1:]...))
		return
	}
	if s.faults != nil {
		// The machine's clock accumulates across rounds: advance the fault
		// view by this round's makespan, so fired kills become permanent
		// history and future windows shift closer.
		s.faults = s.faults.After(st.Time)
	}
	s.mu.Lock()
	s.metrics.Rounds++
	s.metrics.Fabric = s.metrics.Fabric.Merge(st)
	s.metrics.RecoveryBytes += recoveryBytes
	s.mu.Unlock()

	// The kernel has scattered every completed flow into its unit (and, on
	// failure, recorded it); what remains is to classify each unit:
	// complete, fail with checkpoints, or re-queue its residual.
	//
	// A node-down abort is recoverable hardware loss, not a job failure:
	// feed the circuit breaker, fold the casualties into every unit's dead
	// set, and re-queue survivors of the attempt budget for a remapped
	// recovery round.
	var nde *fabric.NodeDownError
	crashed := errors.As(runErr, &nde)
	if crashed {
		s.noteSuspects(nde.Nodes)
	}
	deadline := !crashed && errors.Is(runErr, fabric.ErrDeadline)
	for _, u := range units {
		u.Stats = u.Stats.Merge(st)
		if runErr == nil {
			s.completeUnit(u)
			continue
		}
		u.attempts++
		if crashed {
			u.Dead = core.UnionNodes(u.Dead, nde.Nodes)
		}
		binding := deadline && u.budget <= roundBudget
		switch {
		case !deadline && !crashed, binding:
			s.failUnit(u, runErr)
			continue
		case u.attempts >= maxAttempts:
			s.failUnit(u, fmt.Errorf("%w (%d attempt(s)): %w", ErrAttempts, u.attempts, runErr))
			continue
		}
		u.budget -= st.Time
		if u.budget <= 0 {
			s.failUnit(u, runErr)
			continue
		}
		u.spans = u.ResidualSpans()
		if len(u.spans) == 0 {
			s.completeUnit(u)
			continue
		}
		s.mu.Lock()
		s.resume = append(s.resume, u)
		if crashed {
			s.metrics.Recoveries++
		} else {
			s.metrics.Resumed++
		}
		s.cond.Signal()
		s.mu.Unlock()
	}
}

// completeUnit publishes a finished unit to its tenants. The leader gets
// the unit's own arrays; every follower gets an independent deep copy —
// batched tenants must each own their result. Followers go first: once the
// leader's job is finished its tenant owns (and may write) the arrays the
// copies are taken from.
func (s *Service) completeUnit(u *unit) {
	after := u.Plan.After()
	for i := len(u.jobs) - 1; i >= 0; i-- {
		j := u.jobs[i]
		loc := u.Loc
		if i > 0 {
			loc = copyLoc(u.Loc)
		}
		res := &core.Result{
			Dist:  &matrix.Dist{Layout: after, Local: loc[:after.N()]},
			Stats: u.Stats,
		}
		j.finish(res, nil, func(lat float64) {
			s.mu.Lock()
			s.metrics.Completed++
			if i > 0 {
				s.metrics.Batched++
			}
			s.metrics.lat.add(lat)
			s.mu.Unlock()
		})
	}
}

// failUnit fails every tenant of a unit with its own resumable checkpoint:
// the leader is handed the unit's checkpoint itself, followers get copies
// with their own arrays and delivery record — each tenant can hand its
// *core.ExecError checkpoint to core.Recover independently and finish
// element-exact on a private engine. Followers go first, for the same
// reason as in completeUnit: a finished leader may Recover at once, writing
// the very checkpoint the copies are taken from.
func (s *Service) failUnit(u *unit, cause error) {
	u.At = u.Stats.Time
	u.Opts = core.ExecOptions{Backend: s.cfg.Backend}
	for i := len(u.jobs) - 1; i >= 0; i-- {
		j := u.jobs[i]
		cp := &u.Checkpoint
		if i > 0 {
			c := u.Checkpoint
			c.Loc, c.Delivered = copyLoc(u.Loc), u.Delivered.Clone()
			cp = &c
		}
		j.finish(nil, &core.ExecError{Checkpoint: cp, Err: cause}, func(lat float64) {
			s.mu.Lock()
			s.metrics.Failed++
			s.metrics.lat.add(lat)
			s.mu.Unlock()
		})
	}
}

// copyLoc deep-copies a set of local arrays.
func copyLoc(loc [][]float64) [][]float64 {
	out := make([][]float64, len(loc))
	for i, a := range loc {
		if a != nil {
			out[i] = append([]float64(nil), a...)
		}
	}
	return out
}
