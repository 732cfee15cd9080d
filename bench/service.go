package main

import (
	"fmt"
	"math/rand"
	"time"

	"boolcube"
)

const (
	// satOutstanding is how many jobs the closed-loop client keeps in
	// flight: two full rounds (ServiceConfig.MaxRound defaults to 32), so a
	// full round is always waiting when one ends and the service is never
	// short of work — with one round's worth the rounds run half empty.
	satOutstanding = 64
	// openRate is the open loop's fixed offered rate, jobs/s. One job in
	// four is heavy and occupies the fabric for ~30 ms on the 2-CPU dev host,
	// so the service is busy a little over half the time: queueing delay is
	// visible and the backlog does not grow.
	openRate = 40.0
	// missAfter is the latency limit of the open loop: a job later than this
	// from its due time counts as a miss (and as a failed op).
	missAfter = 500 * time.Millisecond
)

// serviceDims is the cube dimension of the shared fabric.
func serviceDims() int { return sized(6, 4) }

// tenantJob is one catalogue entry: a spec plus the transpose it must yield.
type tenantJob struct {
	name string
	// heavy marks the 64x64 one-dimensional all-to-alls (4,032 flows each);
	// every other entry moves at most a few hundred flows.
	heavy bool
	spec  boolcube.JobSpec
	want  *boolcube.Matrix
}

// catalogue builds the 24 job specs the service workload draws from:
// {Exchange 1-D, SPT 2-D, SBnT 1-D Gray, MPT 2-D} x p=q in {3, 6} x three
// distinct seeded source arrays. Identical draws share a source, so they
// batch; the light jobs expose per-job scheduler overhead, the heavy ones
// per-flow cost (flow count, not bytes, sets the saturation rate).
func catalogue(seed int64) []tenantJob {
	rng := rand.New(rand.NewSource(seed))
	n, lightBits, heavyBits := serviceDims(), sized(3, 2), sized(6, 4)
	oneD := func(enc boolcube.Encoding) func(p int) boolcube.Layout {
		return func(p int) boolcube.Layout { return boolcube.OneDimConsecutiveRows(p, p, n, enc) }
	}
	twoD := func(p int) boolcube.Layout { return boolcube.TwoDimConsecutive(p, p, n/2, n/2, boolcube.Binary) }
	kinds := []struct {
		name   string
		alg    boolcube.Algorithm
		layout func(p int) boolcube.Layout
		oneDim bool
	}{
		{"exch1d", boolcube.Exchange, oneD(boolcube.Binary), true},
		{"spt2d", boolcube.SPT, twoD, false},
		{"sbnt1d", boolcube.SBnT, oneD(boolcube.Gray), true},
		{"mpt2d", boolcube.MPT, twoD, false},
	}
	var out []tenantJob
	for _, k := range kinds {
		for _, p := range []int{lightBits, heavyBits} {
			lay := k.layout(p)
			for src := 0; src < 3; src++ {
				m := seededMatrix(p, p, rng)
				out = append(out, tenantJob{
					name:  fmt.Sprintf("%s.p%d.s%d", k.name, p, src),
					heavy: k.oneDim && p == heavyBits,
					spec:  boolcube.JobSpec{Alg: k.alg, Before: lay, After: lay, Src: boolcube.Scatter(m, lay)},
					want:  m.Transposed(),
				})
			}
		}
	}
	return out
}

// finished is what a waiter reports back to the load generator.
type finished struct {
	id        int
	heavy     bool
	due       time.Duration // when the job was due to be sent
	submitted time.Duration // when Submit returned
	done      time.Duration // when Wait returned
	err       error
}

// client is the state of the single load-generating goroutine. Waiters (one
// goroutine per job in flight) only Wait, Verify and report on done.
type client struct {
	svc      *boolcube.Service
	jobs     []tenantJob
	rng      *rand.Rand
	tr       *tracer
	done     chan finished
	inflight int
	next     int
	submitUs []float64
}

// submit draws a job (independent uniform draws, so identical requests meet
// in a round and batch), submits it and starts its waiter. A refusal is
// reported through done like any other failure.
func (c *client) submit(due time.Duration) {
	tj := c.jobs[c.rng.Intn(len(c.jobs))]
	f := finished{id: c.next, heavy: tj.heavy, due: due}
	c.next++
	c.inflight++
	t0 := now()
	j, err := c.svc.Submit(tj.spec)
	f.submitted = now()
	c.submitUs = append(c.submitUs, float64(f.submitted-t0)/float64(time.Microsecond))
	c.tr.add("service.Submit", f.id, -1, t0, f.submitted)
	go c.await(j, err, tj, f)
}

// await is the waiter of one job: Wait, Verify, report.
func (c *client) await(j *boolcube.Job, err error, tj tenantJob, f finished) {
	if err == nil {
		var res *boolcube.Result
		if res, err = j.Wait(); err == nil {
			f.done = now()
			err = res.Dist.Verify(tj.want)
		}
	}
	if f.done == 0 {
		f.done = now()
	}
	if err != nil {
		f.err = fmt.Errorf("%s: %w", tj.name, err)
	}
	c.done <- f
}

// reap takes one completion off the done channel.
func (c *client) reap() finished { return c.took(<-c.done) }

// took books one completion received from the done channel.
func (c *client) took(f finished) finished {
	c.inflight--
	c.tr.add("service.Wait", f.id, -1, f.submitted, f.done)
	return f
}

// closedLoop keeps satOutstanding jobs in flight for d, handing every
// completion to each, then drains. It returns how many jobs completed inside
// the window and the window's length.
func (c *client) closedLoop(d time.Duration, each func(finished)) (completed int, elapsed time.Duration) {
	start := now()
	for now()-start < d {
		for c.inflight < satOutstanding {
			c.submit(now())
		}
		each(c.reap())
		completed++
	}
	elapsed = now() - start
	for c.inflight > 0 {
		each(c.reap())
	}
	return completed, elapsed
}

// satWindow brackets a closed-loop phase: the service's counters and the
// process's allocation volume before and after, folded into the service
// layer's readings.
type satWindow struct {
	svc    *boolcube.Service
	before boolcube.ServiceMetrics
	alloc  uint64
}

func openWindow(svc *boolcube.Service) satWindow {
	return satWindow{svc: svc, before: svc.Metrics(), alloc: mallocBytes()}
}

// readings reports the window through set; elapsed is the window's length.
func (w satWindow) readings(elapsed time.Duration, set func(name string, v float64, unit string)) {
	after, alloc := w.svc.Metrics(), mallocBytes()
	rounds := float64(after.Rounds - w.before.Rounds)
	done := float64(after.Completed - w.before.Completed)
	if rounds == 0 || done == 0 {
		return
	}
	set("service.jobs_per_round", done/rounds, "count")
	set("service.round_ms", ms(elapsed)/rounds, "ms")
	set("service.batched_ratio", float64(after.Batched-w.before.Batched)/done, "ratio")
	set("service.resumed_ratio", float64(after.Resumed-w.before.Resumed)/done, "ratio")
	set("service.sends_per_job", float64(after.Fabric.Sends-w.before.Fabric.Sends)/done, "count")
	set("service.alloc_kb_per_job", float64(alloc-w.alloc)/1024/done, "KB")
}

// newTenantService starts the service and, as the last step of set-up, runs
// one job of every catalogue entry through it, so every plan is compiled.
func newTenantService(jobs []tenantJob) (*boolcube.Service, error) {
	svc, err := boolcube.NewService(boolcube.ServiceConfig{Dims: serviceDims()})
	if err != nil {
		return nil, err
	}
	for _, tj := range jobs {
		j, err := svc.Submit(tj.spec)
		if err == nil {
			var res *boolcube.Result
			if res, err = j.Wait(); err == nil {
				err = res.Dist.Verify(tj.want)
			}
		}
		if err != nil {
			svc.Close()
			return nil, fmt.Errorf("%s: %w", tj.name, err)
		}
	}
	return svc, nil
}

// runService drives one long-lived 6-cube service through three phases:
//
//	warm  5% of the time, closed loop.
//	sat   25%: closed loop, one client keeping 64 jobs outstanding; verified
//	      jobs per second is ops_per_s.
//	open  70%: open loop at a fixed 40 jobs/s, one arrival every 25 ms
//	      whatever the service does, the job drawn by the seed. A job's
//	      latency runs from the instant it was due to be sent until Wait
//	      returned. The op latencies (op_ms_p50, op_ms_p90) are those of the
//	      heavy jobs; the light ones are the background tenants, reported as
//	      service.light_ms_*.
//
// Arrivals are evenly spaced, not Poisson, and the percentiles are taken
// over one class of job, because the benchmark has to be steady within ten
// seconds: with Poisson arrivals the p90 over all jobs moved by 40% from
// seed to seed (bursts decide how many heavy jobs merge into one round, and
// every job of a round completes when the round does), and a percentile
// taken across the light/heavy mixture sits on the edge between two modes.
func runService(e *env) (*measured, error) {
	m := newMeasured()
	var svc *boolcube.Service
	var jobs []tenantJob
	err := m.setUps(func() {
		if svc != nil {
			svc.Close()
		}
		svc, jobs = nil, nil
	}, func() (err error) {
		jobs = catalogue(e.seed)
		m.attempted += len(jobs)
		svc, err = newTenantService(jobs)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer svc.Close()

	c := &client{
		svc: svc, jobs: jobs,
		rng:  rand.New(rand.NewSource(e.seed)),
		done: make(chan finished),
	}
	total := time.Duration(e.seconds * float64(time.Second))
	if e.traced() {
		total = total * 60 / 100 // the layer probes take the rest
	}
	count := func(f finished) {
		m.attempted++
		if f.err != nil {
			m.fail(f.err)
		}
	}
	c.closedLoop(total*5/100, count)
	win := openWindow(svc)
	completed, elapsed := c.closedLoop(total*25/100, count)
	win.readings(elapsed, m.set)
	m.opsPerSec = float64(completed) / sec(elapsed)

	// Open loop: arrivals follow the schedule whatever the service does.
	rate := openRate
	if small {
		rate *= 10 // the tiny jobs take a tenth of the time
	}
	offered := int(rate * sec(total*70/100))
	if e.traced() {
		offered /= 2 // one half plain, one half traced
	}
	if offered < 24 {
		offered = 24 // the catalogue's size, so that both classes occur
	}
	gap := time.Duration(float64(time.Second) / rate)
	var lagMs, lightMs, allMs []float64
	misses := 0
	record := func(f finished) {
		count(f)
		lat := f.done - f.due
		if f.err != nil {
			misses++
		} else if lat > missAfter {
			misses++
			m.fail(fmt.Errorf("job %d: %v after its due time (limit %v)", f.id, lat, missAfter))
		}
		allMs = append(allMs, ms(lat))
		if f.heavy {
			m.ops = append(m.ops, ms(lat))
		} else {
			lightMs = append(lightMs, ms(lat))
		}
	}
	openLoop := func(offered int) {
		due := now()
		for i := 0; i < offered; i++ {
			due += gap
			for wait := due - now(); wait > 0; wait = due - now() {
				// Completions are taken while waiting for the next due time,
				// so the waiters never back up behind the schedule.
				select {
				case f := <-c.done:
					record(c.took(f))
				case <-time.After(wait):
				}
			}
			lagMs = append(lagMs, ms(now()-due))
			c.submit(due)
		}
		for c.inflight > 0 {
			record(c.reap())
		}
	}
	if !e.traced() {
		openLoop(offered)
	} else {
		// Traced pass: the first half of the open loop runs plain, the
		// second with a span around every Submit and Wait.
		openLoop(offered)
		m.plain, m.ops = m.ops, nil
		c.tr = e.tr
		openLoop(offered)
	}
	m.set("service.op_ms_p99", quantile(m.ops, 0.99), "ms")
	m.set("service.light_ms_p50", median(lightMs), "ms")
	m.set("service.light_ms_p90", quantile(lightMs, 0.9), "ms")
	m.set("service.all_ms_p50", median(allMs), "ms")
	m.set("service.all_ms_p90", quantile(allMs, 0.9), "ms")
	m.set("service.miss_ratio", float64(misses)/float64(offered), "ratio")
	m.set("service.open_offered", float64(offered), "count")
	m.set("service.submit_us", median(c.submitUs), "us")
	m.set("bench.gen_lag_ms_p99", quantile(lagMs, 0.99), "ms")
	m.set("bench.gen_lag_ms_max", quantile(lagMs, 1), "ms")
	fab := svc.Metrics().Fabric
	m.simSends, m.simStartups, m.simTimeUs = fab.Sends, fab.Startups, fab.Time
	return m, nil
}
