package service

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"boolcube/internal/core"
	"boolcube/internal/fabric"
	"boolcube/internal/field"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
)

// TestServiceRaceSoak hammers one 6-cube service from 32 concurrent
// submitters with mixed shapes, algorithms, priorities, deadlines and
// cancellations — the scheduler, admission control, batching, the
// checkpoint fail path and automatic resume all under simultaneous load.
// Run it under the race detector (scripts/check.sh does, with
// SIMNET_DEBUG=1); it is deliberately short enough for -short.
func TestServiceRaceSoak(t *testing.T) {
	const (
		n          = 6
		submitters = 32
		perWorker  = 3
	)
	s, err := New(Config{Dims: n, MaxQueue: 4 * submitters * perWorker})
	if err != nil {
		t.Fatal(err)
	}

	// A few shared sources so some submitters batch onto the same unit.
	type shared struct {
		spec JobSpec
		m    *matrix.Matrix
	}
	var common []shared
	for _, c := range []struct{ p, q int }{{3, 3}, {2, 4}} {
		spec, m := mkSpec(plan.Exchange, c.p, c.q, n, field.Binary)
		common = append(common, shared{spec, m})
	}

	var completed, failedResumed, canceled atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for i := 0; i < perWorker; i++ {
				var spec JobSpec
				var m *matrix.Matrix
				switch rng.Intn(5) {
				case 0: // batchable: shared source and shape
					c := common[rng.Intn(len(common))]
					spec, m = c.spec, c.m
				case 1: // private square flow-plan job
					spec, m = mkSpec2D(plan.SPT, 3, 3, n, field.Binary)
				case 2: // tight deadline: will abort with a checkpoint
					spec, m = mkSpec(plan.Exchange, 4, 4, n, field.Binary)
					spec.Deadline = 20
				case 3: // cancellation attempt; subcube job inside the 6-cube
					spec, m = mkSpec(plan.Exchange, 2, 3, 4, field.Binary)
				default: // mixed encodings through the same rounds, subcube
					spec, m = mkSpec(plan.SBnT, 3, 2, 4, field.Gray)
				}
				spec.Priority = rng.Intn(5)
				j, err := s.Submit(spec)
				if err != nil {
					var ae *AdmissionError
					if !errors.As(err, &ae) {
						t.Errorf("worker %d: untyped submit error: %v", w, err)
					}
					continue
				}
				if rng.Intn(4) == 0 && j.Cancel() {
					if _, werr := j.Wait(); !errors.Is(werr, ErrCanceled) {
						t.Errorf("worker %d: canceled job error = %v", w, werr)
					}
					canceled.Add(1)
					continue
				}
				res, werr := j.Wait()
				if werr != nil {
					var ee *core.ExecError
					if !errors.As(werr, &ee) || !errors.Is(werr, fabric.ErrDeadline) {
						t.Errorf("worker %d: unexpected job error: %v", w, werr)
						continue
					}
					// The deadline abort hands back a checkpoint; finish it
					// on a private engine and verify element-exactness.
					res, werr = core.Recover(ee.Checkpoint, core.ExecOptions{})
					if werr != nil {
						t.Errorf("worker %d: resume: %v", w, werr)
						continue
					}
					failedResumed.Add(1)
				} else {
					completed.Add(1)
				}
				if err := res.Dist.Verify(m.Transposed()); err != nil {
					t.Errorf("worker %d job %d: %v", w, i, err)
				}
			}
		}(w)
	}
	wg.Wait()
	s.Close()

	mt := s.Metrics()
	finished := mt.Completed + mt.Failed + mt.Canceled
	if finished != mt.Submitted {
		t.Fatalf("accounting: submitted %d != completed %d + failed %d + canceled %d",
			mt.Submitted, mt.Completed, mt.Failed, mt.Canceled)
	}
	if completed.Load() == 0 || failedResumed.Load() == 0 {
		t.Fatalf("soak did not exercise both outcomes: completed=%d resumed=%d",
			completed.Load(), failedResumed.Load())
	}
	t.Logf("soak: %d submitted, %d completed, %d deadline-checkpointed-and-resumed, %d canceled, %d rounds, %d batched",
		mt.Submitted, mt.Completed, mt.Failed, canceled.Load(), mt.Rounds, mt.Batched)
}
