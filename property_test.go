package boolcube

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"boolcube/internal/core"
	"boolcube/internal/plan"
	"boolcube/internal/plan/plantest"
)

// oneDimCapable marks the algorithms the randomized property test may pair
// with one-dimensional layouts (the others require pairwise/two-dim shapes
// or specific encodings).
var oneDimCapable = map[Algorithm]bool{
	Exchange:     true,
	SBnT:         true,
	RoutingLogic: true,
}

// randomLayouts draws a random compatible layout pair for the algorithm:
// square two-dimensional splits in random storage (consecutive/cyclic) and
// encoding, or a one-dimensional row partition for the all-to-all
// algorithms; the rows that accept one pair only (the conversions) get it
// from plantest.Pair. transposes is false for the code conversion alone.
func randomLayouts(rng *rand.Rand, alg Algorithm, p, q, n int) (before, after Layout, transposes bool) {
	switch alg {
	case plan.Convert1, plan.Convert2, plan.Convert3, plan.ConvertEncoding:
		return plantest.Pair(alg, p, q, n)
	}
	enc := Binary
	if rng.Intn(2) == 1 {
		enc = Gray
	}
	if oneDimCapable[alg] && p >= n && q >= n && rng.Intn(3) == 0 {
		if rng.Intn(2) == 0 {
			return OneDimConsecutiveRows(p, q, n, enc), OneDimConsecutiveRows(q, p, n, enc), true
		}
		return OneDimCyclicRows(p, q, n, enc), OneDimCyclicRows(q, p, n, enc), true
	}
	if rng.Intn(2) == 0 {
		return TwoDimConsecutive(p, q, n/2, n/2, enc), TwoDimConsecutive(q, p, n/2, n/2, enc), true
	}
	return TwoDimCyclic(p, q, n/2, n/2, enc), TwoDimCyclic(q, p, n/2, n/2, enc), true
}

// Property: for ANY (layout, algorithm, machine, option) combination, the
// two public entry points agree — Transpose and Compile both refuse it, or
// both succeed and two executions of the one cached plan give element-exact
// results and bit-identical Stats. Randomized with a fixed seed, this
// extends the 11-case replay-determinism table of
// TestCompiledReplayMatchesOneShot across the whole configuration space.
func TestCompiledReplayMatchesOneShotRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	algos := Algorithms()
	machines := []Machine{IPSC(), IPSCNPort()}
	strategies := []Strategy{SingleMessage, Shuffled, Unbuffered, Buffered}

	const trials = 60
	executed := 0
	for i := 0; i < trials; i++ {
		alg := algos[rng.Intn(len(algos))]
		n := 2 + 2*rng.Intn(2)     // 2 or 4
		p := n/2 + 1 + rng.Intn(2) // enough rows for the split
		q := n/2 + 1 + rng.Intn(2)
		before, after, transposes := randomLayouts(rng, alg, p, q, n)
		opt := Options{
			Algorithm:   alg,
			Machine:     machines[rng.Intn(len(machines))],
			Strategy:    strategies[rng.Intn(len(strategies))],
			Packets:     rng.Intn(4),
			LocalCopies: rng.Intn(2) == 1,
		}
		name := fmt.Sprintf("trial %d: %v %s->%s on %s", i, alg, before, after, opt.Machine.Name)

		m := NewIotaMatrix(p, q)
		want := plantest.Want(m, transposes)
		oneShot, errOne := Transpose(Scatter(m, before), after, opt)
		ct, errCompile := Compile(before, after, opt)
		if (errOne == nil) != (errCompile == nil) {
			t.Fatalf("%s: one-shot err = %v, compile err = %v", name, errOne, errCompile)
		}
		if errOne != nil {
			continue // invalid combination: both paths agree it is
		}
		if verr := oneShot.Dist.Verify(want); verr != nil {
			t.Fatalf("%s: one-shot result wrong: %v", name, verr)
		}
		res, err := ct.Execute(Scatter(m, before))
		if err != nil {
			t.Fatalf("%s: compiled execute failed where one-shot succeeded: %v", name, err)
		}
		if verr := res.Dist.Verify(want); verr != nil {
			t.Fatalf("%s: compiled result wrong: %v", name, verr)
		}
		if got, want := res.Stats.Logical(), oneShot.Stats.Logical(); got != want {
			t.Fatalf("%s: logical stats diverge:\ncompiled %+v\none-shot %+v", name, got, want)
		}
		if res.Stats != oneShot.Stats {
			t.Fatalf("%s: timing-derived stats diverge:\ncompiled %+v\none-shot %+v", name, res.Stats, oneShot.Stats)
		}
		executed++
	}
	if executed < trials/2 {
		t.Fatalf("only %d of %d random trials produced a valid configuration — generator too narrow", executed, trials)
	}
}

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
