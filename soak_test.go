package boolcube

import (
	"errors"
	"testing"

	"boolcube/internal/fabric"
)

// Large-configuration soak: a 1024-processor cube moving a megabyte-scale
// matrix through the exchange and SBnT transposes, verified element-exactly.
// Exercises the engine's scheduling at scale (not run with -short).
func TestSoakLargeCube(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	p, q, n := 9, 9, 8 // 512x512 matrix, 256 processors
	m := NewIotaMatrix(p, q)
	want := m.Transposed()
	for _, alg := range []Algorithm{Exchange, SBnT} {
		before := OneDimConsecutiveRows(p, q, n, Binary)
		after := OneDimConsecutiveRows(q, p, n, Binary)
		d := Scatter(m, before)
		res, err := Transpose(d, after, Options{Algorithm: alg, Machine: IPSC(), Strategy: Buffered})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if verr := res.Dist.Verify(want); verr != nil {
			t.Fatalf("%v: %v", alg, verr)
		}
	}
}

// Soak the two-dimensional path systems on a 10-cube.
func TestSoakTenCubePaths(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	p, q, n := 9, 9, 10
	m := NewIotaMatrix(p, q)
	want := m.Transposed()
	before := TwoDimConsecutive(p, q, n/2, n/2, Binary)
	after := TwoDimConsecutive(q, p, n/2, n/2, Binary)
	for _, alg := range []Algorithm{SPT, MPT} {
		d := Scatter(m, before)
		res, err := Transpose(d, after, Options{Algorithm: alg, Machine: IPSCNPort()})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if verr := res.Dist.Verify(want); verr != nil {
			t.Fatalf("%v: %v", alg, verr)
		}
	}
}

// Repeated-transpose identity: eight consecutive transposes of the same
// distributed matrix end where they started, with no drift in placement.
func TestSoakRepeatedTransposes(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	p, q, n := 6, 6, 4
	m := NewIotaMatrix(p, q)
	fw := TwoDimCyclic(p, q, n/2, n/2, Gray)
	bw := TwoDimCyclic(q, p, n/2, n/2, Gray)
	d := Scatter(m, fw)
	for i := 0; i < 8; i++ {
		after := bw
		if i%2 == 1 {
			after = fw
		}
		res, err := Transpose(d, after, Options{Algorithm: MPT, Machine: IPSCNPort()})
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		d = res.Dist
	}
	if verr := d.Verify(m); verr != nil {
		t.Fatalf("after 8 transposes: %v", verr)
	}
}

// Faulted soak: the MPT on an 8-cube under combined fault load — several
// random permanent link failures plus a flaky link — must either survive
// with an element-exact result (rerouting over disjoint paths) or fail with
// a typed fault/route error, and each seed's outcome must replay
// identically.
func TestSoakFaultedTranspose(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	p, q, n := 8, 8, 8
	m := NewIotaMatrix(p, q)
	want := m.Transposed()
	before := TwoDimConsecutive(p, q, n/2, n/2, Binary)
	after := TwoDimConsecutive(q, p, n/2, n/2, Binary)
	ct, err := Compile(before, after, Options{Algorithm: MPT, Machine: IPSCNPort()})
	if err != nil {
		t.Fatal(err)
	}
	survived := 0
	for seed := int64(1); seed <= 3; seed++ {
		spec := FaultSpec{Seed: seed, Rules: []FaultRule{
			{Kind: FaultRandomLinks, Count: 4},
			{Kind: FaultLinkFlaky, Link: FaultLink{From: uint64(seed), Dim: 0}, Prob: 0.3},
		}}
		fp, err := CompileFaults(spec, n)
		if err != nil {
			t.Fatal(err)
		}
		run := func() (Stats, error) {
			res, err := ct.ExecuteWith(Scatter(m, before),
				ExecOptions{Faults: fp, Retry: RetryPolicy{Attempts: 32}})
			if err != nil {
				return Stats{}, err
			}
			if verr := res.Dist.Verify(want); verr != nil {
				t.Fatalf("seed %d: %v", seed, verr)
			}
			return res.Stats, nil
		}
		st1, err1 := run()
		st2, err2 := run()
		switch {
		case err1 == nil && err2 == nil:
			if st1 != st2 {
				t.Fatalf("seed %d: stats diverge across identical runs:\n%+v\n%+v", seed, st1, st2)
			}
			survived++
		case err1 != nil && err2 != nil:
			if !errors.Is(err1, fabric.ErrLinkDown) && !errors.Is(err1, fabric.ErrRetryBudget) {
				t.Fatalf("seed %d: untyped fault outcome: %v", seed, err1)
			}
			if err1.Error() != err2.Error() {
				t.Fatalf("seed %d: errors diverge across identical runs:\n%v\n%v", seed, err1, err2)
			}
		default:
			t.Fatalf("seed %d: nondeterministic outcome: %v vs %v", seed, err1, err2)
		}
	}
	if survived == 0 {
		t.Fatal("no faulted seed survived — the disjoint-path failover never engaged")
	}
}
