package boolcube

import (
	"sync"
	"testing"

	"boolcube/internal/core"
	"boolcube/internal/plan"
)

// Eviction safety, end to end: a plan evicted from a capacity-1 cache while
// other shapes churn through it must keep executing correctly — including
// concurrently with the churn — because plans are immutable and eviction
// only stops the sharing.
func TestEvictedPlanStillExecutes(t *testing.T) {
	p, q, n := 4, 4, 4
	cache := plan.NewCache(1)
	cfg := core.Options{Machine: IPSCNPort()}.PlanConfig()
	before := TwoDimConsecutive(p, q, n/2, n/2, Binary)
	after := TwoDimConsecutive(q, p, n/2, n/2, Binary)
	held, err := cache.Compile(plan.MPT, before, after, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewIotaMatrix(p, q)
	want := m.Transposed()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // churn: evict `held` over and over
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := cache.Compile(plan.SPT, before, after, cfg); err != nil {
				panic(err)
			}
			if _, err := cache.Compile(plan.DPT, before, after, cfg); err != nil {
				panic(err)
			}
		}
	}()
	errCh := make(chan error, 1)
	go func() { // keep executing the held (evicted) plan
		defer wg.Done()
		for i := 0; i < 20; i++ {
			res, err := core.Execute(held, Scatter(m, before), nil)
			if err != nil {
				errCh <- err
				return
			}
			if verr := res.Dist.Verify(want); verr != nil {
				errCh <- verr
				return
			}
		}
		errCh <- nil
	}()
	wg.Wait()
	if err := <-errCh; err != nil {
		t.Fatalf("evicted plan failed mid-execute: %v", err)
	}
}
