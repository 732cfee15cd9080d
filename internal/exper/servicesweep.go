package exper

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"boolcube/internal/field"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
	"boolcube/internal/service"
)

func init() {
	register("service-sweep", serviceSweep)
}

// serviceJobMix is the workload catalogue the open-loop generator draws
// from: mixed shapes, encodings, algorithms and priorities, all fitting a
// 6-cube, weighted so shared rounds mix flow plans with exchange plans and
// batchable tenants with private ones.
type serviceJobMix struct {
	spec service.JobSpec
	m    *matrix.Matrix
}

func serviceMix(n int) []serviceJobMix {
	build := func(alg plan.Algorithm, before, after field.Layout, p, q, prio int) serviceJobMix {
		m := matrix.NewIota(p, q)
		return serviceJobMix{
			spec: service.JobSpec{
				Alg: alg, Before: before, After: after,
				Src: matrix.Scatter(m, before), Priority: prio,
			},
			m: m,
		}
	}
	oneD := func(p, q, nn int, enc field.Encoding) (field.Layout, field.Layout) {
		return field.OneDimConsecutiveRows(p, q, nn, enc), field.OneDimConsecutiveRows(q, p, nn, enc)
	}
	twoD := func(p, q, nn int, enc field.Encoding) (field.Layout, field.Layout) {
		return field.TwoDimConsecutive(p, q, nn/2, nn/2, enc), field.TwoDimConsecutive(q, p, nn/2, nn/2, enc)
	}
	var mix []serviceJobMix
	b1, a1 := oneD(3, 3, n, field.Binary)
	mix = append(mix, build(plan.Exchange, b1, a1, 3, 3, 0))
	b2, a2 := twoD(3, 3, n, field.Binary)
	mix = append(mix, build(plan.SPT, b2, a2, 3, 3, 1))
	b3, a3 := oneD(2, 4, n, field.Gray)
	mix = append(mix, build(plan.SBnT, b3, a3, 2, 4, 2))
	b4, a4 := oneD(3, 2, 4, field.Binary) // subcube tenant
	mix = append(mix, build(plan.Exchange, b4, a4, 3, 2, 0))
	b5 := field.TwoDimConsecutive(4, 2, 4, 2, field.Binary)
	a5 := field.TwoDimConsecutive(2, 4, 2, 4, field.Binary)
	mix = append(mix, build(plan.RoutingLogic, b5, a5, 4, 2, 1))
	return mix
}

// serviceSweep drives the multi-tenant transpose service with an open-loop
// workload: seeded Poisson arrivals at increasing offered rates, drawn
// from a mixed catalogue of shapes, encodings, algorithms and priorities
// (identical draws share a source, so batching engages naturally). Each
// row reports the offered and sustained rates and the p50/p95/p99
// submit-to-finish latencies. The latencies are wall-clock — this table
// characterizes the scheduler implementation under contention, not the
// simulated machine, so absolute values vary run to run; the reproduction
// target is the shape (latency rising with offered load while the
// sustained rate saturates).
func serviceSweep() (*Table, error) {
	const (
		n    = 6
		jobs = 120
	)
	rates := []float64{2000, 8000, 32000} // offered arrivals per second
	t := &Table{
		ID:      "service-sweep",
		Title:   fmt.Sprintf("multi-tenant service under open-loop Poisson load (%d-cube, n-port iPSC, %d jobs/level)", n, jobs),
		Columns: []string{"offered jobs/s", "sustained jobs/s", "p50 µs", "p95 µs", "p99 µs", "rounds", "batched", "rejected"},
		Notes: []string{
			"open-loop generator: seeded Poisson arrivals, mixed shapes/encodings/algorithms/priorities",
			"latencies are wall-clock (scheduler characterization, not simulated-machine time); shape, not absolutes, is the target",
		},
	}
	for _, rate := range rates {
		row, err := serviceLoadLevel(n, jobs, rate) //cubevet:ignore detbreak -- open-loop load level is a wall-clock scheduler measurement by design; table notes say so
		if err != nil {
			return nil, err
		}
		t.AddRow(row...)
	}
	return t, nil
}

// serviceLoadLevel runs one offered-load level against a fresh service and
// returns its table row.
func serviceLoadLevel(n, jobs int, rate float64) ([]interface{}, error) {
	s, err := service.New(service.Config{Dims: n, MaxQueue: jobs})
	if err != nil {
		return nil, err
	}
	mix := serviceMix(n)
	rng := rand.New(rand.NewSource(42))
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	start := time.Now() //cubevet:ignore detbreak -- sustained-rate measurement is wall-clock by design; per-job results stay verified element-exact
	for i := 0; i < jobs; i++ {
		// Open loop: arrivals do not wait for completions.
		time.Sleep(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		c := mix[rng.Intn(len(mix))]
		j, err := s.Submit(c.spec)
		if err != nil {
			// Queue-full refusals are part of the measurement (the
			// "rejected" column); anything else is a real failure.
			var ae *service.AdmissionError
			if !errors.As(err, &ae) {
				return nil, err
			}
			continue
		}
		wg.Add(1)
		go func(c serviceJobMix) {
			defer wg.Done()
			res, err := j.Wait()
			if err == nil {
				err = res.Dist.VerifyTransposeOf(c.m)
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	s.Close()
	if firstErr != nil {
		return nil, firstErr
	}
	m := s.Metrics()
	sustained := float64(m.Completed) / elapsed.Seconds()
	return []interface{}{
		rate, sustained,
		m.LatencyPercentile(50), m.LatencyPercentile(95), m.LatencyPercentile(99),
		m.Rounds, m.Batched, m.Rejected,
	}, nil
}
