package boolcube

import (
	"errors"
	"reflect"
	"testing"

	"boolcube/internal/router"
)

// FuzzCheckpointResume drives the recovery invariant over random fault
// scenarios: whatever the algorithm, seed, kill count and mid-run epoch, a
// failed execution must either be refused/fail typed, or checkpoint and
// resume into exactly the distribution an unfaulted run produces.
func FuzzCheckpointResume(f *testing.F) {
	f.Add(int64(1), uint8(0), 0.4, uint8(2))
	f.Add(int64(2), uint8(1), 0.35, uint8(1))
	f.Add(int64(3), uint8(2), 0.7, uint8(3))
	f.Add(int64(4), uint8(3), 0.5, uint8(2))
	f.Add(int64(11), uint8(2), 0.15, uint8(4))

	const pq, n = 4, 6
	algos := []Algorithm{SPT, DPT, MPT, Exchange}
	m := NewIotaMatrix(pq, pq)
	want := m.Transposed()
	before := TwoDimConsecutive(pq, pq, n/2, n/2, Binary)
	after := TwoDimConsecutive(pq, pq, n/2, n/2, Binary)

	f.Fuzz(func(t *testing.T, seed int64, algIdx uint8, frac float64, k uint8) {
		alg := algos[int(algIdx)%len(algos)]
		if !(frac >= 0.05 && frac <= 0.95) { // also rejects NaN
			frac = 0.5
		}
		kills := 1 + int(k%4)
		ct, err := Compile(before, after, Options{Algorithm: alg, Machine: IPSCNPort()})
		if err != nil {
			t.Fatal(err)
		}
		base, err := ct.Execute(Scatter(m, before))
		if err != nil {
			t.Fatal(err)
		}
		fp, err := CompileFaults(FaultSpec{Seed: seed, Rules: []FaultRule{
			{Kind: FaultRandomLinks, Count: kills, Start: frac * base.Stats.Time},
		}}, n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ct.ExecuteWith(Scatter(m, before), ExecOptions{Faults: fp})
		for attempt := 0; err != nil && attempt < 4; attempt++ {
			var xe *ExecError
			if !errors.As(err, &xe) {
				// Pre-run refusals (no checkpoint): a rerouted residual that
				// exhausts its disjoint paths, or an infeasible schedule.
				if errors.Is(err, router.ErrNoRoute) || errors.Is(err, ErrInfeasible) {
					t.Skipf("unroutable scenario: %v", err)
				}
				t.Fatalf("non-resumable failure without checkpoint: %v", err)
			}
			if got := xe.Checkpoint.DeliveredElems(); got > len(m.Data) {
				t.Fatalf("checkpoint claims %d delivered of %d total", got, len(m.Data))
			}
			res, err = Recover(xe.Checkpoint, ExecOptions{})
		}
		if err != nil {
			if errors.Is(err, ErrLinkDown) {
				t.Skipf("scenario unrecoverable in 4 attempts: %v", err)
			}
			t.Fatalf("resume did not converge: %v", err)
		}
		if verr := res.Dist.Verify(want); verr != nil {
			t.Fatalf("alg=%v seed=%d k=%d frac=%v: recovered transpose wrong: %v",
				alg, seed, kills, frac, verr)
		}
		if !reflect.DeepEqual(res.Dist.Local, base.Dist.Local) {
			t.Fatalf("alg=%v seed=%d k=%d frac=%v: recovered distribution not bit-identical",
				alg, seed, kills, frac)
		}
	})
}
