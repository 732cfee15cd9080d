package service

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"boolcube/internal/core"
	"boolcube/internal/fabric"
	"boolcube/internal/field"
	"boolcube/internal/machine"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
	"boolcube/internal/plan/plantest"
)

// mkSpec builds a ready-to-submit spec: an iota matrix of shape 2^p x 2^q
// scattered under the before layout. The returned matrix is the ground
// truth (its Transposed() is what every result must verify against).
func mkSpec(alg plan.Algorithm, p, q, n int, enc field.Encoding) (JobSpec, *matrix.Matrix) {
	before := field.OneDimConsecutiveRows(p, q, n, enc)
	after := field.OneDimConsecutiveRows(q, p, n, enc)
	m := matrix.NewIota(p, q)
	return JobSpec{
		Alg: alg, Before: before, After: after,
		Src: matrix.Scatter(m, before),
	}, m
}

// mkSpec2D is mkSpec over square two-dimensional layouts (n even) — the
// shape the pairwise path algorithms (SPT/DPT/MPT) require.
func mkSpec2D(alg plan.Algorithm, p, q, n int, enc field.Encoding) (JobSpec, *matrix.Matrix) {
	before := field.TwoDimConsecutive(p, q, n/2, n/2, enc)
	after := field.TwoDimConsecutive(q, p, n/2, n/2, enc)
	m := matrix.NewIota(p, q)
	return JobSpec{
		Alg: alg, Before: before, After: after,
		Src: matrix.Scatter(m, before),
	}, m
}

// bareService builds a Service with no scheduler goroutine, for
// deterministic white-box tests: nothing drains the queue unless the test
// drives rounds itself (drainRounds).
func bareService(cfg Config) *Service {
	s := &Service{cfg: cfg.withDefaults(), done: make(chan struct{})}
	s.faults = s.cfg.Faults
	s.cond = sync.NewCond(&s.mu)
	return s
}

// drainRounds is the scheduler loop run by hand on a bare service: it forms
// and runs rounds until no queued or resumed work is left, so every job
// submitted before the call meets the others in the first round.
func drainRounds(s *Service) {
	for {
		s.mu.Lock()
		units := s.formRoundLocked()
		s.mu.Unlock()
		if len(units) == 0 {
			return
		}
		s.runRound(units)
	}
}

// submitBare submits every spec to a bare service, drives its rounds to
// completion, and returns the results in submission order.
func submitBare(t *testing.T, s *Service, specs []JobSpec) []*core.Result {
	t.Helper()
	jobs := make([]*Job, len(specs))
	for i, spec := range specs {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs[i] = j
	}
	drainRounds(s)
	results := make([]*core.Result, len(jobs))
	for i, j := range jobs {
		res, err := j.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		results[i] = res
	}
	return results
}

// submitAll submits every spec concurrently and waits for all jobs.
func submitAll(t *testing.T, s *Service, specs []JobSpec) []*core.Result {
	t.Helper()
	jobs := make([]*Job, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := s.Submit(specs[i])
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			jobs[i] = j
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.Fatalf("submission failed")
	}
	results := make([]*core.Result, len(jobs))
	for i, j := range jobs {
		res, err := j.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		results[i] = res
	}
	return results
}

// TestServiceDifferential is the service-level differential test: N jobs
// co-scheduled in one round on a shared fabric versus the same jobs run
// serially, each submitted only once the previous one finished, so every
// round runs one job on its own private engine. Per-job arrays must be element-exact in both arms and identical
// across arms, and the additive fabric statistics (sends, bytes,
// start-ups — everything unaffected by how traffic is interleaved) must
// agree exactly, on the simulated backend and on the live goroutine
// transport alike.
func TestServiceDifferential(t *testing.T) {
	mix := []struct {
		alg  plan.Algorithm
		p, q int
		enc  field.Encoding
		two  bool // square two-dimensional layout (pairwise algorithms)
	}{
		{plan.Exchange, 3, 3, field.Binary, false},
		{plan.SPT, 3, 3, field.Binary, true},
		{plan.SBnT, 2, 4, field.Binary, false},
		{plan.Exchange, 4, 2, field.Gray, false},
		{plan.RoutingLogic, 3, 3, field.Binary, false},
		{plan.Exchange, 2, 2, field.Binary, false},
	}
	for _, backend := range []string{"simnet", "livenet"} {
		t.Run(backend, func(t *testing.T) {
			const n = 4
			build := func() ([]JobSpec, []*matrix.Matrix) {
				var specs []JobSpec
				var truth []*matrix.Matrix
				for _, c := range mix {
					mk := mkSpec
					if c.two {
						mk = mkSpec2D
					}
					spec, m := mk(c.alg, c.p, c.q, n, c.enc)
					specs = append(specs, spec)
					truth = append(truth, m)
				}
				return specs, truth
			}

			concSpecs, truth := build()
			// Rounds driven by hand: the jobs meet in one round by
			// construction, so the sharing assertion below tests
			// co-scheduling, not that a round outlasts the next Submit.
			conc := bareService(Config{Dims: n, Backend: backend})
			concRes := submitBare(t, conc, concSpecs)

			serSpecs, _ := build()
			ser, err := New(Config{Dims: n, Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			var serRes []*core.Result
			for _, spec := range serSpecs {
				serRes = append(serRes, submitAll(t, ser, []JobSpec{spec})...)
			}
			ser.Close()

			for i := range concRes {
				if err := concRes[i].Dist.Verify(truth[i].Transposed()); err != nil {
					t.Fatalf("concurrent job %d: %v", i, err)
				}
				if err := serRes[i].Dist.Verify(truth[i].Transposed()); err != nil {
					t.Fatalf("serial job %d: %v", i, err)
				}
				if !reflect.DeepEqual(concRes[i].Dist.Local, serRes[i].Dist.Local) {
					t.Fatalf("job %d: concurrent and serial arrays differ", i)
				}
			}

			cm, sm := conc.Metrics(), ser.Metrics()
			if got, want := cm.Fabric.Additive(), sm.Fabric.Additive(); got != want {
				t.Fatalf("additive stats differ:\nconcurrent %+v\nserial     %+v", got, want)
			}
			if sm.Rounds != int64(len(mix)) {
				t.Fatalf("serial arm rounds = %d, want %d", sm.Rounds, len(mix))
			}
			if cm.Rounds >= sm.Rounds {
				t.Fatalf("concurrent arm did not share rounds: %d rounds for %d jobs", cm.Rounds, len(mix))
			}
			if cm.Completed != int64(len(mix)) || sm.Completed != int64(len(mix)) {
				t.Fatalf("completed = %d / %d, want %d", cm.Completed, sm.Completed, len(mix))
			}
		})
	}
}

// TestServiceBatching: tenants submitting the same (plan, source) are
// served by one execution — one round, payload moved once — and every
// tenant still gets its own element-exact, independently owned arrays.
func TestServiceBatching(t *testing.T) {
	const n, tenants = 4, 8
	spec, m := mkSpec2D(plan.SPT, 3, 3, n, field.Binary)
	// Rounds driven by hand, so all tenants meet in the first one.
	s := bareService(Config{Dims: n})
	specs := make([]JobSpec, tenants)
	for i := range specs {
		specs[i] = spec // same Src pointer, same shape: one unit
	}
	results := submitBare(t, s, specs)

	mt := s.Metrics()
	if mt.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1 (batched)", mt.Rounds)
	}
	if mt.Batched != tenants-1 {
		t.Fatalf("batched = %d, want %d", mt.Batched, tenants-1)
	}
	want := m.Transposed()
	for i, res := range results {
		if err := res.Dist.Verify(want); err != nil {
			t.Fatalf("tenant %d: %v", i, err)
		}
	}
	// Per-tenant ownership: corrupting one tenant's arrays must not leak
	// into any other tenant's.
	results[0].Dist.Local[0][0] = -1
	for i := 1; i < tenants; i++ {
		if results[i].Dist.Local[0][0] == -1 {
			t.Fatalf("tenant %d shares arrays with tenant 0", i)
		}
	}
}

// TestServiceBatchingMovesLessData: the batched arm's additive byte count
// must be that of ONE job, not of all tenants — batching is a traffic
// optimization, not just a latency one. The unbatched control arm scatters
// the matrix once per tenant, so no two jobs share a batch key.
func TestServiceBatchingMovesLessData(t *testing.T) {
	const n, tenants = 4, 6
	spec, m := mkSpec2D(plan.SPT, 3, 3, n, field.Binary)
	shared := make([]JobSpec, tenants)
	private := make([]JobSpec, tenants)
	for i := range shared {
		shared[i] = spec
		private[i] = spec
		private[i].Src = matrix.Scatter(m, spec.Before)
	}

	batched := bareService(Config{Dims: n})
	submitBare(t, batched, shared)
	unbatched := bareService(Config{Dims: n})
	submitBare(t, unbatched, private)

	b, u := batched.Metrics().Fabric, unbatched.Metrics().Fabric
	if b.Bytes == 0 || u.Bytes == 0 {
		t.Fatalf("no traffic recorded: batched=%d unbatched=%d", b.Bytes, u.Bytes)
	}
	if u.Bytes != int64(tenants)*b.Bytes {
		t.Fatalf("unbatched bytes = %d, want %d x batched %d", u.Bytes, tenants, b.Bytes)
	}
}

// TestNoStarvation is the scheduler-invariant property test: under an
// adversarial stream that keeps injecting higher-priority work faster than
// the service can run it, a minimum-priority job is still selected within
// a computable bound. The invariant behind the bound: against an aging
// victim, a rival's effective-priority lead (gap - aging*(rivalArrival-1))
// is constant over time, so only rivals injected in the first
// ceil(gap/aging) rounds ever outrank the victim (ties resolve FIFO, to
// the victim) — and each round retires up to k of them. pickJobs is a pure
// function, so the property is driven directly, overload and all.
func TestNoStarvation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		aging := 1 + rng.Intn(3)
		gap := 1 + rng.Intn(20) // priority distance the victim must close
		k := 1 + rng.Intn(4)    // round capacity
		var pending []*Job
		seq := int64(0)
		mk := func(prio int) *Job {
			seq++
			return &Job{spec: JobSpec{Priority: prio}, seq: seq}
		}
		victim := mk(0)
		pending = append(pending, victim)
		dangerRounds := (gap + aging - 1) / aging // rivals after this never outrank
		dangerous := 0
		rounds := 0
		for {
			rounds++
			// Adversary floods the queue with high-priority work every
			// round, at or above the service's capacity.
			inject := k + rng.Intn(3)
			if rounds <= dangerRounds {
				dangerous += inject
			}
			for i := 0; i < inject; i++ {
				pending = append(pending, mk(gap))
			}
			selected, rest := pickJobs(pending, k, aging)
			picked := false
			for _, j := range selected {
				if j == victim {
					picked = true
				}
			}
			if picked {
				break
			}
			pending = rest
			bound := dangerRounds + (dangerous+k-1)/k + 1
			if rounds > bound {
				t.Fatalf("trial %d: victim not picked after %d rounds (bound %d, aging=%d gap=%d k=%d dangerous=%d)",
					trial, rounds, bound, aging, gap, k, dangerous)
			}
		}
	}
}

// TestPickJobsDeterministic: equal effective priorities resolve FIFO by
// submission sequence, and the remaining queue preserves order.
func TestPickJobsDeterministic(t *testing.T) {
	var pending []*Job
	for i := 0; i < 6; i++ {
		pending = append(pending, &Job{spec: JobSpec{Priority: 5}, seq: int64(i + 1)})
	}
	selected, rest := pickJobs(pending, 3, 1)
	for i, j := range selected {
		if j.seq != int64(i+1) {
			t.Fatalf("selected[%d].seq = %d, want %d (FIFO among equals)", i, j.seq, i+1)
		}
	}
	for i, j := range rest {
		if j.seq != int64(i+4) {
			t.Fatalf("rest[%d].seq = %d, want %d", i, j.seq, i+4)
		}
		if j.waited != 1 {
			t.Fatalf("rest[%d].waited = %d, want 1", i, j.waited)
		}
	}
}

// TestQueuedJobsAgeWhileResumesFillRound: a round that resumed units fill
// completely still ages the queue — a job waits that round like any other,
// so resumes cannot stall the starvation bound pickJobs proves.
func TestQueuedJobsAgeWhileResumesFillRound(t *testing.T) {
	spec, _ := mkSpec2D(plan.SPT, 2, 2, 2, field.Binary)
	s := bareService(Config{Dims: 2})
	for range maxRound + 1 {
		if _, err := s.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// The first round admits maxRound identical jobs, one batched unit; the
	// last job waits.
	first := s.formRoundLocked()
	if len(first) != 1 || len(s.pending) != 1 || s.pending[0].waited != 1 {
		t.Fatalf("first round: %d unit(s), %d queued", len(first), len(s.pending))
	}
	s.resume = first // the first round's unit is owed a resume and fills the next round
	if second := s.formRoundLocked(); len(second) != 1 || second[0] != first[0] {
		t.Fatalf("second round: %d unit(s), want the resumed one", len(second))
	}
	if w := s.pending[0].waited; w != 2 {
		t.Fatalf("queued job has waited %d round(s) after two rounds, want 2", w)
	}
}

// TestServiceDeadlineCheckpointResume: a job whose budget cannot cover its
// transpose fails with a typed *core.ExecError carrying a resumable
// checkpoint, and core.Recover finishes it element-exact on a private
// engine — the service's multi-tenant generalization of engine deadlines
// composes with the existing checkpoint machinery.
func TestServiceDeadlineCheckpointResume(t *testing.T) {
	const n = 4
	spec, m := mkSpec(plan.Exchange, 4, 4, n, field.Binary)
	spec.Deadline = 50 // µs of virtual time: far too tight for a 256-element transpose
	s, err := New(Config{Dims: n})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, werr := j.Wait()
	s.Close()
	if werr == nil {
		t.Fatal("tight-deadline job succeeded; want deadline abort")
	}
	var ee *core.ExecError
	if !errors.As(werr, &ee) {
		t.Fatalf("error %T is not *core.ExecError: %v", werr, werr)
	}
	if !errors.Is(werr, fabric.ErrDeadline) {
		t.Fatalf("error does not unwrap to ErrDeadline: %v", werr)
	}
	if ee.Checkpoint.DeliveredElems() == 0 {
		t.Fatal("checkpoint has no delivered elements; self pairs alone should be durable")
	}
	res, err := core.Recover(ee.Checkpoint, core.ExecOptions{})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if err := res.Dist.Verify(m.Transposed()); err != nil {
		t.Fatalf("resumed result: %v", err)
	}
	if res.Stats.Bytes <= ee.Checkpoint.Stats.Bytes {
		t.Fatalf("resume folded no cost: %d <= %d", res.Stats.Bytes, ee.Checkpoint.Stats.Bytes)
	}
}

// TestServiceDeadlineInnocentBystander: when one tenant's tight budget
// aborts a shared round, co-scheduled tenants with slack budgets are
// automatically resumed in later rounds and still complete element-exact.
func TestServiceDeadlineInnocentBystander(t *testing.T) {
	const n = 4
	tight, _ := mkSpec(plan.Exchange, 4, 4, n, field.Binary)
	tight.Deadline = 50
	slack, m2 := mkSpec2D(plan.SPT, 3, 3, n, field.Binary)

	s, err := New(Config{Dims: n})
	if err != nil {
		t.Fatal(err)
	}
	// Stall the scheduler behind a decoy round so both jobs land in the
	// same pending snapshot and are co-scheduled.
	decoySpec, _ := mkSpec(plan.Exchange, 2, 2, n, field.Binary)
	decoy, err := s.Submit(decoySpec)
	if err != nil {
		t.Fatal(err)
	}
	jt, err := s.Submit(tight)
	if err != nil {
		t.Fatal(err)
	}
	js, err := s.Submit(slack)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decoy.Wait(); err != nil {
		t.Fatalf("decoy: %v", err)
	}
	if _, err := jt.Wait(); err == nil {
		t.Fatal("tight job succeeded; want deadline abort")
	}
	res, err := js.Wait()
	s.Close()
	if err != nil {
		t.Fatalf("innocent bystander failed: %v", err)
	}
	if verr := res.Dist.Verify(m2.Transposed()); verr != nil {
		t.Fatalf("bystander result: %v", verr)
	}
	mt := s.Metrics()
	if mt.Resumed == 0 && mt.Rounds < 2 {
		t.Fatalf("expected the bystander to ride a resume round: %+v", mt)
	}
}

// TestAdmissionControl: queue-full and closed refusals are typed
// *AdmissionError values wrapping the matching sentinel, and carry the
// occupancy that caused them. Uses a bare service (no scheduler) so the
// queue state is exact.
func TestAdmissionControl(t *testing.T) {
	const n = 3
	spec, _ := mkSpec(plan.Exchange, 2, 2, n, field.Binary)
	s := bareService(Config{Dims: n, MaxQueue: 2})
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(spec); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	_, err := s.Submit(spec)
	var ae *AdmissionError
	if !errors.As(err, &ae) {
		t.Fatalf("overflow error %T, want *AdmissionError", err)
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow error does not wrap ErrQueueFull: %v", err)
	}
	if ae.Queued != 2 || ae.Limit != 2 {
		t.Fatalf("admission error occupancy = %d/%d, want 2/2", ae.Queued, ae.Limit)
	}
	if got := s.Metrics().Rejected; got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}

	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	_, err = s.Submit(spec)
	if !errors.As(err, &ae) || !errors.Is(err, ErrClosed) {
		t.Fatalf("closed error = %v, want *AdmissionError wrapping ErrClosed", err)
	}
}

// TestSpecValidation: every malformed spec is a typed *SpecError and is
// refused before admission.
func TestSpecValidation(t *testing.T) {
	const n = 3
	good, _ := mkSpec(plan.Exchange, 2, 2, n, field.Binary)
	s := bareService(Config{Dims: n})
	cases := []struct {
		name   string
		mutate func(JobSpec) JobSpec
	}{
		{"nil src", func(sp JobSpec) JobSpec { sp.Src = nil; return sp }},
		{"layout mismatch", func(sp JobSpec) JobSpec {
			sp.Before = field.OneDimConsecutiveRows(2, 2, n, field.Gray)
			return sp
		}},
		{"cube too small", func(sp JobSpec) JobSpec {
			big := field.OneDimConsecutiveRows(4, 4, 6, field.Binary)
			sp.Before = big
			sp.Src = matrix.Scatter(matrix.NewIota(4, 4), big)
			sp.After = field.OneDimConsecutiveRows(4, 4, 6, field.Binary)
			return sp
		}},
		{"negative deadline", func(sp JobSpec) JobSpec { sp.Deadline = -1; return sp }},
	}
	for _, c := range cases {
		_, err := s.Submit(c.mutate(good))
		var se *SpecError
		if !errors.As(err, &se) {
			t.Fatalf("%s: error %T (%v), want *SpecError", c.name, err, err)
		}
	}
	if got := s.Metrics().Submitted; got != 0 {
		t.Fatalf("malformed specs were admitted: submitted = %d", got)
	}
}

// TestCancel: canceling a queued job fails it with ErrCanceled and removes
// it from the queue; canceling twice (or after it left the queue) reports
// false.
func TestCancel(t *testing.T) {
	const n = 3
	spec, _ := mkSpec(plan.Exchange, 2, 2, n, field.Binary)
	s := bareService(Config{Dims: n})
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !j.Cancel() {
		t.Fatal("cancel of a queued job reported false")
	}
	if _, err := j.Wait(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled job error = %v, want ErrCanceled", err)
	}
	if j.Cancel() {
		t.Fatal("second cancel reported true")
	}
	mt := s.Metrics()
	if mt.Canceled != 1 || len(s.pending) != 0 {
		t.Fatalf("canceled = %d pending = %d, want 1 / 0", mt.Canceled, len(s.pending))
	}
}

// TestUnknownBackend: a bad backend is refused at construction with the
// fabric registry's typed error.
func TestUnknownBackend(t *testing.T) {
	_, err := New(Config{Dims: 3, Backend: "carrier-pigeon"})
	var ue *fabric.UnknownBackendError
	if !errors.As(err, &ue) {
		t.Fatalf("error %T, want *fabric.UnknownBackendError", err)
	}
}

// TestServiceMetricsLatency: percentiles are computed over completed jobs
// and are monotone in q.
func TestServiceMetricsLatency(t *testing.T) {
	var m Metrics
	for _, v := range []float64{5, 1, 9, 3, 7} {
		m.lat.add(v)
	}
	p50, p99 := m.LatencyPercentile(50), m.LatencyPercentile(99)
	if p50 > p99 {
		t.Fatalf("p50 %g > p99 %g", p50, p99)
	}
	if p99 < 9 || p99 > 9*(1+1.0/latSub) {
		t.Fatalf("p99 = %g, want within one bucket above 9", p99)
	}
	var empty Metrics
	if empty.LatencyPercentile(50) != 0 {
		t.Fatal("empty percentile != 0")
	}

	// Seeded sample spanning six decades: every percentile lands in the
	// bucket of the exact nearest-rank value, i.e. at most one bucket width
	// (1/latSub of the value) above it.
	rng := rand.New(rand.NewSource(7))
	var h Metrics
	sample := make([]float64, 5000)
	for i := range sample {
		sample[i] = math.Exp(rng.Float64() * math.Log(1e6))
		h.lat.add(sample[i])
	}
	sort.Float64s(sample)
	for _, q := range []float64{1, 25, 50, 90, 95, 99, 99.9, 100} {
		exact := sample[max(int(q/100*float64(len(sample))+0.5), 1)-1]
		if got := h.LatencyPercentile(q); got < exact || got > exact*(1+1.0/latSub) {
			t.Errorf("p%g = %g, exact %g: not within one bucket width", q, got, exact)
		}
	}
	// Out-of-range latencies clamp to the end buckets instead of indexing
	// outside the histogram.
	h.lat.add(0)
	h.lat.add(math.Inf(1))

	// The record is fixed-size, so a Metrics snapshot costs the same — no
	// allocation at all — after 10 finished jobs and after 10,000.
	s, err := New(Config{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec, _ := mkSpec(plan.Exchange, 2, 2, 2, field.Binary)
	finish := func(n int) {
		t.Helper()
		jobs := make([]*Job, n)
		for i := range jobs {
			if jobs[i], err = s.Submit(spec); err != nil {
				t.Fatal(err)
			}
		}
		for _, j := range jobs {
			if _, err := j.Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	snapshot := func() float64 {
		return testing.AllocsPerRun(100, func() { _ = s.Metrics() })
	}
	finish(10)
	few := snapshot()
	for done := 10; done < 10000; done += 370 {
		finish(370)
	}
	if m := s.Metrics(); m.Completed != 10000 {
		t.Fatalf("completed %d jobs, want 10000", m.Completed)
	}
	if many := snapshot(); few != 0 || many != 0 {
		t.Fatalf("Metrics() allocates %v times after 10 jobs, %v after 10000; want 0 and 0", few, many)
	}
}

// TestServiceMixedEncodings: jobs over mixed binary/Gray and 2D layouts
// coexist in shared rounds with 1D binary jobs; everything stays
// element-exact. Exercises both plan kinds — exchange (one-phase and, with
// the Section 6.2 conversions, three-phase) and flow — through the one
// merged-flow execution path; two conversions and a bit reversal arrive in
// textual form, the code conversion and the bit reversal not transposing.
func TestServiceMixedEncodings(t *testing.T) {
	const n = 4
	s, err := New(Config{Dims: n, Machine: machine.IPSCNPort()})
	if err != nil {
		t.Fatal(err)
	}
	var specs []JobSpec
	var truth []*matrix.Matrix
	add := func(alg plan.Algorithm, before, after field.Layout, p, q int) {
		m := matrix.NewIota(p, q)
		specs = append(specs, JobSpec{Alg: alg, Before: before, After: after, Src: matrix.Scatter(m, before)})
		truth = append(truth, m)
	}
	add(plan.Exchange,
		field.TwoDimConsecutive(3, 3, 2, 2, field.Gray),
		field.TwoDimConsecutive(3, 3, 2, 2, field.Gray), 3, 3)
	add(plan.MixedCombined,
		field.TwoDimEncoded(3, 3, 2, 2, field.Binary, field.Gray),
		field.TwoDimEncoded(3, 3, 2, 2, field.Binary, field.Gray), 3, 3)
	add(plan.SPT,
		field.TwoDimConsecutive(3, 3, 2, 2, field.Binary),
		field.TwoDimConsecutive(3, 3, 2, 2, field.Binary), 3, 3)
	add(plan.Convert3,
		field.TwoDimConsecutive(4, 4, 2, 2, field.Binary),
		field.TwoDimCyclic(4, 4, 2, 2, field.Binary), 4, 4)
	parsed, err := ParseJob("convert-2", "2d-consecutive", "2d-cyclic:binary", "", "", 5, 4, n)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Alg != plan.Convert2 || parsed.After.String() != field.TwoDimCyclic(4, 5, 2, 2, field.Binary).String() {
		t.Fatalf("ParseJob(convert-2) = %v into %s", parsed.Alg, parsed.After)
	}
	add(parsed.Alg, parsed.Before, parsed.After, 5, 4)
	parsed, err = ParseJob("convert-encoding", "2d-consecutive", "2d-consecutive:gray", "", "", 5, 4, n)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Alg != plan.ConvertEncoding || parsed.After.String() != field.TwoDimConsecutive(5, 4, 2, 2, field.Gray).String() {
		t.Fatalf("ParseJob(convert-encoding) = %v into %s", parsed.Alg, parsed.After)
	}
	add(parsed.Alg, parsed.Before, parsed.After, 5, 4)
	parsed, err = ParseJob("permute", "1d-consecutive-rows", "custom([2,3)+[3,4)+[4,5)+[5,6))", "", "", 4, 2, n)
	if err != nil || parsed.Alg != plan.Permute {
		t.Fatalf("ParseJob(permute) = %v, %v", parsed.Alg, err)
	}
	add(parsed.Alg, parsed.Before, parsed.After, 4, 2)
	results := submitAll(t, s, specs)
	s.Close()
	for i, res := range results {
		if err := res.Dist.Verify(plantest.Want(truth[i], specs[i].Alg.Transposes())); err != nil {
			t.Fatalf("job %d (%s): %v", i, specs[i].Alg, err)
		}
	}
}

func ExampleService() {
	before := field.OneDimConsecutiveRows(3, 3, 4, field.Binary)
	after := field.OneDimConsecutiveRows(3, 3, 4, field.Binary)
	m := matrix.NewIota(3, 3)

	s, _ := New(Config{Dims: 4})
	job, _ := s.Submit(JobSpec{
		Alg: plan.Auto, Before: before, After: after,
		Src: matrix.Scatter(m, before),
	})
	res, err := job.Wait()
	s.Close()
	fmt.Println(err == nil && res.Dist.Verify(m.Transposed()) == nil)
	// Output: true
}
