// Package service is the multi-tenant transpose service: a long-lived
// scheduler that admits many concurrent transpose jobs onto one shared
// cube fabric. Everything below it executes one run on a dedicated engine;
// this package is the heavy-traffic layer on top — admission control with
// typed refusals, priority scheduling with aging, batching of identical
// requests, per-job deadline budgets, and per-job checkpoints whenever a
// shared round fails.
//
// Execution happens in rounds. The scheduler drains the pending queue (by
// effective priority — submitted priority plus aging), groups identical
// (plan, source) requests into one execution unit each — a core.Checkpoint
// plus the spans it still owes: compiled path systems (SPT/DPT/MPT/SBnT
// routes) for flow plans, dimension-order direct routes otherwise, exactly
// as checkpoint resume does — and runs all units' spans as one
// core.RunTransfers call on a single engine. Link bandwidth is
// genuinely contended: co-scheduled jobs' packets interleave on the same
// links, the round's makespan reflects the interference, and per-link
// maxima grow where tenants overlap. The additive Stats counters (sends,
// bytes, start-ups) are unaffected by sharing, which is what the
// service-level differential tests pin: N jobs through the service equal
// the same N jobs on private engines, element-exactly and in additive
// stats.
//
// What the service does and does not promise: per-job results are
// element-exact and deterministic (each job's flow set and scatter targets
// are pure functions of its spec), but round composition, timing,
// latencies and per-link maxima depend on arrival interleaving and are not
// reproducible run to run. Plans come from the process-wide plan cache, so
// a thousand tenants of one shape pay one compilation.
package service

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"boolcube/internal/fabric"
	"boolcube/internal/fault"
	"boolcube/internal/machine"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
)

// Config shapes a Service: the machine it deploys and the queue bound.
// Dims is required; every other zero value picks a default.
type Config struct {
	// Dims is the cube dimension n of the shared fabric (2^n nodes). Every
	// job's layouts must fit it.
	Dims int
	// Machine is the cost model of the shared ensemble; the zero value
	// defaults to the n-port iPSC.
	Machine machine.Params
	// Backend names the fabric backend rounds execute on (empty selects
	// fabric.DefaultBackend, the deterministic simulation).
	Backend string
	// MaxQueue bounds the pending queue; Submit past it is refused with a
	// typed *AdmissionError (ErrQueueFull). Default 1024.
	MaxQueue int
	// Faults, when set, is the fault schedule of the shared fabric. The
	// service owns one physical machine whose clock accumulates across
	// rounds, so it keeps a single evolving view of the schedule: each
	// round runs under the current view and then advances it by the
	// round's makespan (fault.Plan.After). A node crash scheduled at t
	// therefore fires in whichever round crosses t, and every later round
	// sees that node as already dead — its links permanently down.
	Faults *fault.Plan
}

// The scheduler's fixed bounds.
const (
	// aging is the effective-priority boost a queued job gains per round it
	// waits, bounding every job's wait under adversarial priorities: every
	// queued rival ages at the same rate, so a rival's lead over a waiting
	// job never grows, and with gap the highest submitted priority minus
	// its own, only rivals arriving within the first gap/aging rounds of
	// its wait can ever outrank it.
	aging = 1
	// maxRound bounds how many jobs one round admits.
	maxRound = 32
	// maxAttempts bounds a job's executions: the initial round plus the
	// automatic residual resumes after shared-round aborts.
	maxAttempts = 3
	// quarantineAfter is the circuit-breaker threshold: a node named in
	// that many node-down failures is quarantined, and every later round
	// relabels work around it up front — remapping units whose transfers
	// would touch it and routing the rest clear of its links — instead of
	// rediscovering the corpse by failing again. Two, so a single
	// (possibly spurious, on a live backend) suspicion does not retire
	// hardware.
	quarantineAfter = 2
)

// withDefaults fills the zero-valued knobs.
func (c Config) withDefaults() Config {
	if c.Machine.Name == "" {
		c.Machine = machine.IPSCNPort()
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 1024
	}
	return c
}

// Metrics is a snapshot of the service's counters. Fabric folds every
// round's engine statistics with Stats.Merge (counters add, per-link
// maxima take the max); its Additive() projection is what the
// concurrent-vs-serial differential tests compare.
type Metrics struct {
	Submitted int64 // jobs admitted
	Completed int64 // jobs finished with a result
	Failed    int64 // jobs finished with an error
	Canceled  int64 // jobs withdrawn while queued
	Rejected  int64 // Submit refusals (admission control)
	Batched   int64 // completed jobs served as batch followers
	Rounds    int64 // shared engine runs executed
	Resumed   int64 // units automatically re-queued after a shared-round abort
	Fabric    fabric.Stats

	// Crash-recovery counters (all zero without node kills).
	Recoveries    int64 // units re-queued for recovery after a node-down round
	RecoveryBytes int64 // bytes moved by recovery attempts of crashed units
	Quarantined   int64 // nodes retired by the circuit breaker

	lat latencyHist // finished-job wall latencies
}

// Latency histogram layout: latOctaves powers of two starting at 1 µs (so up
// to 2^36 µs, about 19 hours; anything outside clamps to the end buckets),
// each split into latSub equal-width buckets — a bucket is never wider than
// 1/latSub of its lower bound. Fixed size, so a service's latency record
// does not grow with its lifetime and a Metrics snapshot is a plain copy.
const (
	latSub     = 8
	latOctaves = 36
)

// latencyHist counts finished jobs per latency bucket.
type latencyHist [latOctaves * latSub]int64

// add records one latency in µs.
func (h *latencyHist) add(us float64) {
	i := 0
	switch {
	case us >= 1<<latOctaves: // +Inf included
		i = len(h) - 1
	case us >= 1:
		frac, exp := math.Frexp(us) // us = frac·2^exp, frac in [0.5, 1)
		i = (exp-1)*latSub + int((frac-0.5)*2*latSub)
	}
	h[i]++
}

// latUpper is the exclusive upper bound of bucket i in µs.
func latUpper(i int) float64 {
	base := math.Ldexp(1, i/latSub)
	return base + float64(i%latSub+1)*base/latSub
}

// LatencyPercentile returns the q-th percentile (0 < q <= 100) of the
// finished jobs' wall latencies in µs — the upper bound of the bucket
// holding the nearest-rank sample, so at most one bucket width above the
// exact value — and 0 when nothing finished yet.
func (m *Metrics) LatencyPercentile(q float64) float64 {
	var total int64
	for _, c := range m.lat {
		total += c
	}
	rank := min(max(int64(q/100*float64(total)+0.5), 1), total)
	var seen int64
	for i, c := range m.lat {
		if seen += c; c > 0 && seen >= rank {
			return latUpper(i)
		}
	}
	return 0
}

// Service is a long-lived multi-tenant transpose scheduler. Construct with
// New, Submit jobs from any goroutine, Close to drain and stop.
type Service struct {
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond
	pending []*Job  // admitted, waiting for a round
	resume  []*unit // aborted units owed an automatic residual resume
	closed  bool
	seq     int64
	metrics Metrics

	// Crash-recovery state. faults is the service's evolving view of the
	// fault schedule, advanced by each round's makespan; it is touched only
	// by the scheduler goroutine. suspect and quarantined are the circuit
	// breaker's ledger, guarded by mu (Metrics readers snapshot them).
	faults      *fault.Plan
	suspect     map[uint64]int
	quarantined map[uint64]bool

	done chan struct{} // closed when the scheduler has drained and exited
}

// New validates the configuration, starts the scheduler, and returns the
// service. Unknown backends are refused up front with the registry's typed
// *fabric.UnknownBackendError.
func New(cfg Config) (*Service, error) {
	if cfg.Dims < 1 || cfg.Dims > 20 {
		return nil, fmt.Errorf("service: cube dimension %d out of range [1, 20]", cfg.Dims)
	}
	if _, ok := fabric.Caps(cfg.Backend); !ok {
		return nil, &fabric.UnknownBackendError{Backend: cfg.Backend, Known: fabric.Backends()}
	}
	s := &Service{cfg: cfg.withDefaults(), done: make(chan struct{})}
	s.faults = s.cfg.Faults
	s.cond = sync.NewCond(&s.mu)
	go s.run()
	return s, nil
}

// Submit validates and admits one job, returning its handle. Malformed
// specs fail with a typed *SpecError (including planner refusals — the
// plan is compiled here, through the shared cache, so the batch key and
// the first typed error are both immediate); admission-control refusals
// fail with a typed *AdmissionError.
func (s *Service) Submit(spec JobSpec) (*Job, error) {
	if spec.Src == nil {
		return nil, &SpecError{Field: "src", Value: "<nil>"}
	}
	if got, want := spec.Src.Layout.String(), spec.Before.String(); got != want {
		return nil, &SpecError{Field: "src", Value: got,
			Err: fmt.Errorf("distribution layout does not match before layout %s", want)}
	}
	if b := spec.Before.NBits(); b > s.cfg.Dims {
		return nil, &SpecError{Field: "before", Value: spec.Before.String(),
			Err: fmt.Errorf("needs a %d-cube, service runs a %d-cube", b, s.cfg.Dims)}
	}
	if a := spec.After.NBits(); a > s.cfg.Dims {
		return nil, &SpecError{Field: "after", Value: spec.After.String(),
			Err: fmt.Errorf("needs a %d-cube, service runs a %d-cube", a, s.cfg.Dims)}
	}
	if spec.Deadline < 0 || spec.Deadline != spec.Deadline {
		return nil, &SpecError{Field: "deadline", Value: fmt.Sprintf("%g", spec.Deadline)}
	}
	// Jobs compile at the default grain: direct flows travel as one packet
	// per transfer, flow plans keep their compiled packetization.
	p, err := plan.Default.Compile(spec.Alg, spec.Before, spec.After, plan.Config{Machine: s.cfg.Machine})
	if err != nil {
		return nil, &SpecError{Field: "alg", Value: spec.Alg.String(), Err: err}
	}

	s.mu.Lock()
	if s.closed {
		s.metrics.Rejected++
		s.mu.Unlock()
		return nil, &AdmissionError{Reason: ErrClosed}
	}
	if len(s.pending) >= s.cfg.MaxQueue {
		s.metrics.Rejected++
		queued := len(s.pending)
		s.mu.Unlock()
		return nil, &AdmissionError{Reason: ErrQueueFull, Queued: queued, Limit: s.cfg.MaxQueue}
	}
	s.seq++
	j := &Job{
		spec: spec, plan: p, seq: s.seq, svc: s,
		submitted: time.Now(), //cubevet:ignore detbreak -- service latency metric is wall-clock by design; results stay deterministic
		done:      make(chan struct{}),
	}
	s.pending = append(s.pending, j)
	s.metrics.Submitted++
	s.cond.Signal()
	s.mu.Unlock()
	return j, nil
}

// Close stops admission, drains every queued and resuming job, and waits
// for the scheduler to exit. Safe to call more than once.
func (s *Service) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	<-s.done
}

// Metrics returns a snapshot of the service counters.
func (s *Service) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.metrics
}

// run is the scheduler: wait for work, form a round, execute it, repeat.
// One round executes at a time — the fabric is the contended resource, and
// jobs arriving while a round executes batch into the next one.
func (s *Service) run() {
	for {
		s.mu.Lock()
		for len(s.pending) == 0 && len(s.resume) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.pending) == 0 && len(s.resume) == 0 {
			s.mu.Unlock()
			close(s.done)
			return
		}
		units := s.formRoundLocked()
		s.mu.Unlock()
		s.runRound(units)
	}
}

// formRoundLocked assembles the next round: aborted units owed a resume go
// first (they are the oldest work in the system), then pending jobs by
// effective priority, grouped into batched execution units. Caller holds
// s.mu.
func (s *Service) formRoundLocked() []*unit {
	units := make([]*unit, 0, maxRound)
	for len(s.resume) > 0 && len(units) < maxRound {
		units = append(units, s.resume[0])
		s.resume = s.resume[1:]
	}
	free := maxRound
	for _, u := range units {
		free -= len(u.jobs)
	}
	// With no room left pickJobs selects nothing but still ages the queue:
	// every queued job waits this round either way.
	selected, rest := pickJobs(s.pending, max(free, 0), aging)
	s.pending = rest
	return append(units, groupUnits(selected)...)
}

// pickJobs selects up to k jobs from pending by effective priority —
// submitted priority plus aging per round already waited, descending, FIFO
// (ascending submit sequence) among equals — and returns the selection
// (in that order) plus the remaining queue in its original order, each
// remainer one round older. Pure function of its inputs; the scheduler-
// invariant property tests drive it directly.
func pickJobs(pending []*Job, k, aging int) (selected, rest []*Job) {
	if k <= 0 || len(pending) == 0 {
		for _, j := range pending {
			j.waited++
		}
		return nil, pending
	}
	order := make([]*Job, len(pending))
	copy(order, pending)
	sort.SliceStable(order, func(a, b int) bool {
		ea := order[a].spec.Priority + aging*order[a].waited
		eb := order[b].spec.Priority + aging*order[b].waited
		if ea != eb {
			return ea > eb
		}
		return order[a].seq < order[b].seq
	})
	if k > len(order) {
		k = len(order)
	}
	selected = order[:k]
	taken := make(map[*Job]bool, k)
	for _, j := range selected {
		taken[j] = true
	}
	rest = pending[:0:0]
	for _, j := range pending {
		if !taken[j] {
			j.waited++
			rest = append(rest, j)
		}
	}
	return selected, rest
}

// groupUnits folds the selected jobs into execution units: jobs sharing
// both the compiled plan (same shape, algorithm and config — one pointer,
// thanks to the plan cache) and the same source distribution collapse into
// one unit. The payload moves once and every tenant receives its own copy
// of the result.
func groupUnits(jobs []*Job) []*unit {
	var units []*unit
	type key struct {
		p   *plan.Plan
		src *matrix.Dist
	}
	byKey := make(map[key]*unit)
	for _, j := range jobs {
		k := key{j.plan, j.spec.Src}
		if u := byKey[k]; u != nil {
			u.jobs = append(u.jobs, j)
			u.budget = min(u.budget, budgetOf(j))
			continue
		}
		u := newUnit(j)
		byKey[k] = u
		units = append(units, u)
	}
	return units
}
