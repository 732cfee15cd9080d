package boolcube

import (
	"sync"
	"testing"
)

// Service benchmarks: the multi-tenant scheduler under load, measured two
// ways. BenchmarkServiceSweep pushes a mixed concurrent workload through
// one shared 6-cube service and reports throughput plus latency
// percentiles as custom metrics. The Batched/Unbatched pair submits the
// same identical-request burst with batching on and off — the ns/op ratio
// is the batching speedup (that batching happens at all is asserted
// deterministically in internal/service: Batched == tenants-1).

func benchServiceSpecs(b *testing.B, n int) ([]JobSpec, int) {
	b.Helper()
	var specs []JobSpec
	add := func(alg Algorithm, before, after Layout, p, q int) {
		specs = append(specs, JobSpec{
			Alg: alg, Before: before, After: after,
			Src: Scatter(NewIotaMatrix(p, q), before),
		})
	}
	add(Exchange,
		OneDimConsecutiveRows(3, 3, n, Binary),
		OneDimConsecutiveRows(3, 3, n, Binary), 3, 3)
	add(SPT,
		TwoDimConsecutive(3, 3, n/2, n/2, Binary),
		TwoDimConsecutive(3, 3, n/2, n/2, Binary), 3, 3)
	add(SBnT,
		OneDimConsecutiveRows(2, 4, n, Gray),
		OneDimConsecutiveRows(4, 2, n, Gray), 2, 4)
	add(Exchange,
		OneDimConsecutiveRows(3, 2, 4, Binary),
		OneDimConsecutiveRows(2, 3, 4, Binary), 3, 2)
	const copies = 3 // each spec submitted this many times per op (batchable)
	return specs, copies
}

// BenchmarkServiceSweep: one op = a burst of mixed concurrent jobs through
// a fresh shared service. Custom metrics: sustained jobs/sec and the
// p50/p95/p99 submit-to-finish latencies of the burst.
func BenchmarkServiceSweep(b *testing.B) {
	const n = 6
	specs, copies := benchServiceSpecs(b, n)
	var last *Service
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewService(ServiceConfig{Dims: n})
		if err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		for c := 0; c < copies; c++ {
			for _, spec := range specs {
				j, err := s.Submit(spec)
				if err != nil {
					b.Fatal(err)
				}
				wg.Add(1)
				go func(j *Job) {
					defer wg.Done()
					if _, err := j.Wait(); err != nil {
						b.Error(err)
					}
				}(j)
			}
		}
		wg.Wait()
		s.Close()
		last = s
	}
	b.StopTimer()
	m := last.Metrics()
	jobs := float64(m.Completed)
	elapsed := b.Elapsed().Seconds() / float64(b.N)
	if elapsed > 0 {
		b.ReportMetric(jobs/elapsed, "jobs/s")
	}
	b.ReportMetric(m.LatencyPercentile(50), "p50-us")
	b.ReportMetric(m.LatencyPercentile(95), "p95-us")
	b.ReportMetric(m.LatencyPercentile(99), "p99-us")
}

// benchServiceIdentical: one op = a burst of identical requests (same
// shape) through a fresh service. Batched, the tenants share one source and
// collapse into one execution per round; unbatched, each scatters its own
// copy of the matrix, so no two share a batch key and each runs privately.
func benchServiceIdentical(b *testing.B, batch bool) {
	const (
		n       = 6
		tenants = 16
	)
	spec := JobSpec{
		Alg:    SPT,
		Before: TwoDimConsecutive(4, 4, n/2, n/2, Binary),
		After:  TwoDimConsecutive(4, 4, n/2, n/2, Binary),
	}
	m := NewIotaMatrix(4, 4)
	specs := make([]JobSpec, tenants)
	for t := range specs {
		specs[t] = spec
		if t == 0 || !batch {
			specs[t].Src = Scatter(m, spec.Before)
		} else {
			specs[t].Src = specs[0].Src
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewService(ServiceConfig{Dims: n})
		if err != nil {
			b.Fatal(err)
		}
		jobs := make([]*Job, 0, tenants)
		for _, spec := range specs {
			j, err := s.Submit(spec)
			if err != nil {
				b.Fatal(err)
			}
			jobs = append(jobs, j)
		}
		for _, j := range jobs {
			if _, err := j.Wait(); err != nil {
				b.Fatal(err)
			}
		}
		s.Close()
	}
}

func BenchmarkServiceBatchedIdentical(b *testing.B)   { benchServiceIdentical(b, true) }
func BenchmarkServiceUnbatchedIdentical(b *testing.B) { benchServiceIdentical(b, false) }

// BenchmarkServiceHeavyJob: one op = one heavy job of the bench service
// workload — a 64x64 one-dimensional transpose on the 6-cube, 4,032
// one-element flows — submitted alone to a warm service (plan cached) and
// waited for. Allocations per op are the noise-free signal of the packet
// path: router reassembly, engine queues and the unit's spans.
func BenchmarkServiceHeavyJob(b *testing.B) {
	const n, p = 6, 6
	for _, c := range []struct {
		name string
		alg  Algorithm
		enc  Encoding
	}{
		{"exchange-1d-binary", Exchange, Binary},
		{"sbnt-1d-gray", SBnT, Gray},
	} {
		b.Run(c.name, func(b *testing.B) {
			lay := OneDimConsecutiveRows(p, p, n, c.enc)
			m := NewIotaMatrix(p, p)
			spec := JobSpec{Alg: c.alg, Before: lay, After: lay, Src: Scatter(m, lay)}
			s, err := NewService(ServiceConfig{Dims: n})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			run := func() *Dist {
				j, err := s.Submit(spec)
				if err != nil {
					b.Fatal(err)
				}
				res, err := j.Wait()
				if err != nil {
					b.Fatal(err)
				}
				return res.Dist
			}
			if err := run().Verify(m.Transposed()); err != nil { // warm the plan cache, check once
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}
