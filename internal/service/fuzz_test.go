package service

import (
	"errors"
	"sync"
	"testing"

	"boolcube/internal/core"
	"boolcube/internal/matrix"
)

// fuzzSvc is one shared 4-cube service all fuzz iterations submit into —
// the fuzz target exercises the whole admission pipeline, not just the
// parser, so it needs a live scheduler behind it.
var (
	fuzzOnce sync.Once
	fuzzSvc  *Service
)

func fuzzService(t *testing.T) *Service {
	fuzzOnce.Do(func() {
		s, err := New(Config{Dims: 4, MaxQueue: 1 << 16})
		if err != nil {
			t.Fatalf("fuzz service: %v", err)
		}
		fuzzSvc = s
	})
	return fuzzSvc
}

// FuzzJobSubmit drives the full job pipeline with arbitrary textual specs:
// ParseJob must never panic and must reject malformed input with typed
// *SpecError values only; every spec it accepts (within a small shape
// bound) is then actually submitted to a live service, where the only
// legal outcomes are a verified result, a typed *SpecError or
// *AdmissionError at admission, or a typed *core.ExecError (deadline
// checkpoints) at completion.
func FuzzJobSubmit(f *testing.F) {
	f.Add("exchange", "1d-consecutive-rows", "1d-consecutive-rows", "0", "", 3, 3, 4)
	f.Add("spt", "2d-consecutive", "2d-consecutive", "5", "1000", 3, 3, 4)
	f.Add("sbnt", "1d-consecutive-rows:gray", "1d-consecutive-rows:gray", "-2", "0.5", 2, 4, 4)
	f.Add("auto", "2d-cyclic", "2d-cyclic", "1", "", 2, 2, 4)
	f.Add("mixed-combined", "2d-mixed-enc", "2d-mixed-enc", "", "25", 3, 3, 4)
	f.Add("exchange", "banded:2,1", "banded:2,1", "0", "", 3, 3, 4)
	f.Add("convert-2", "2d-consecutive", "2d-cyclic", "0", "", 4, 4, 4)
	f.Add("", "", "", "", "", 0, 0, 0)
	f.Add("no-such-alg", "1d-consecutive-rows", "1d-consecutive-rows", "0", "", 3, 3, 4)
	f.Add("exchange", "custom([0,3):binary+[3,5):gray", "1d-consecutive-rows", "x", "y", 3, 2, 4)
	f.Add("exchange", "1d-consecutive-rows", "1d-consecutive-rows", "1", "-5", 3, 3, 4)
	f.Add("exchange", "1d-consecutive-rows", "1d-consecutive-rows", "1", "NaN", 3, 3, 4)
	f.Add("dpt", "2d-consecutive", "2d-consecutive", "99999999999999999999", "", 3, 3, 4)
	f.Fuzz(func(t *testing.T, alg, before, after, priority, deadline string, p, q, n int) {
		spec, err := ParseJob(alg, before, after, priority, deadline, p, q, n)
		if err != nil {
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("ParseJob error %T is not *SpecError: %v", err, err)
			}
			return
		}
		// Bound the shapes actually executed: big parses are legitimate,
		// but scattering and transposing them is not what this fuzz pays
		// for.
		if p+q > 8 || n > 6 || spec.Deadline > 1e6 {
			return
		}
		s := fuzzService(t)
		spec.Src = matrix.Scatter(matrix.NewIota(p, q), spec.Before)
		j, err := s.Submit(spec)
		if err != nil {
			var se *SpecError
			var ae *AdmissionError
			if !errors.As(err, &se) && !errors.As(err, &ae) {
				t.Fatalf("Submit error %T is not typed: %v", err, err)
			}
			return
		}
		if _, err := j.Wait(); err != nil {
			var ee *core.ExecError
			if !errors.As(err, &ee) {
				t.Fatalf("job error %T is not *core.ExecError: %v", err, err)
			}
		}
	})
}
