package service

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"boolcube/internal/core"
	"boolcube/internal/field"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
)

// JobSpec describes one transpose request: what to move (a distributed
// matrix and the target layout), how (the algorithm), and under which
// service contract (priority and deadline budget). The machine model and
// the fabric backend are service-wide — the service owns one ensemble; jobs
// share it.
type JobSpec struct {
	// Alg selects the transposition algorithm (plan.Auto resolves against
	// the service machine).
	Alg plan.Algorithm
	// Before and After are the source and destination layouts; both must
	// fit the service cube (NBits <= Config.Dims).
	Before, After field.Layout
	// Src is the input distribution, laid out under Before. It is read-only
	// for the service; tenants submitting the same *Dist pointer with the
	// same shape and algorithm are batched into one execution.
	Src *matrix.Dist
	// Priority orders round admission: higher runs earlier. Waiting jobs
	// age (one priority step per round skipped), so low priorities cannot starve.
	Priority int
	// Deadline, when positive, is the job's execution budget in µs on the
	// backend's clock (virtual time on simnet, wall time on livenet),
	// generalizing the engine-level SetDeadline to per-job budgets. A round
	// is bounded by the tightest budget among its jobs; when that abort
	// fires, the binding job fails with a resumable checkpoint while
	// co-scheduled jobs are automatically resumed in later rounds.
	Deadline float64
}

// ParseJob builds a JobSpec from the textual form the command-line tools
// and the fuzz harness use: algorithm, layout, priority and deadline
// strings, parameterized by the matrix shape 2^p x 2^q and the cube
// dimension n (see field.Parse for the layout grammar). The returned spec
// has no Src; callers scatter their matrix under the Before layout. Every
// malformed field is a typed *SpecError, never a panic.
func ParseJob(alg, before, after, priority, deadline string, p, q, n int) (JobSpec, error) {
	var spec JobSpec
	if p < 0 || q < 0 || n < 0 || p+q > 62 || n > 30 {
		return spec, &SpecError{Field: "shape", Value: fmt.Sprintf("p=%d q=%d n=%d", p, q, n)}
	}
	a, err := plan.ParseAlgorithm(strings.TrimSpace(alg))
	if err != nil {
		return spec, &SpecError{Field: "alg", Value: alg, Err: err}
	}
	spec.Alg = a
	if spec.Before, err = field.Parse(before, p, q, n); err != nil {
		return spec, &SpecError{Field: "before", Value: before, Err: err}
	}
	// A transposing row's after layout describes the 2^q x 2^p transposed
	// matrix, so it parses against the swapped shape.
	ap, aq := p, q
	if a.Transposes() {
		ap, aq = q, p
	}
	if spec.After, err = field.Parse(after, ap, aq, n); err != nil {
		return spec, &SpecError{Field: "after", Value: after, Err: err}
	}
	if priority != "" {
		if spec.Priority, err = strconv.Atoi(strings.TrimSpace(priority)); err != nil {
			return spec, &SpecError{Field: "priority", Value: priority, Err: err}
		}
	}
	if deadline != "" {
		d, err := strconv.ParseFloat(strings.TrimSpace(deadline), 64)
		if err != nil {
			return spec, &SpecError{Field: "deadline", Value: deadline, Err: err}
		}
		if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return spec, &SpecError{Field: "deadline", Value: deadline}
		}
		spec.Deadline = d
	}
	return spec, nil
}

// Job is the handle Submit returns: a future for one admitted request.
// Wait blocks until the service finishes (or fails) the job; Cancel
// withdraws it while it is still queued.
type Job struct {
	spec JobSpec
	plan *plan.Plan
	seq  int64
	// waited counts the rounds formed while this job sat in the queue; the
	// scheduler adds aging per round to the job's effective
	// priority, which is what bounds every admitted job's wait.
	waited    int
	submitted time.Time
	svc       *Service

	done chan struct{}
	res  *core.Result
	err  error
	lat  float64 // submit-to-finish latency, wall µs
}

// Wait blocks until the job finishes and returns its result. On failure
// the error is typed: a *core.ExecError carries the job's checkpoint
// (hand it to core.Recover to finish the transpose on a private engine),
// ErrCanceled reports a successful Cancel.
func (j *Job) Wait() (*core.Result, error) {
	<-j.done
	return j.res, j.err
}

// Done returns a channel closed when the job has finished (or was
// canceled); Wait and Err are safe to call after it closes.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel withdraws the job if it is still queued, failing it with
// ErrCanceled, and reports whether it did. A job already formed into a
// round is past canceling — Cancel returns false and the job completes
// normally.
func (j *Job) Cancel() bool {
	s := j.svc
	s.mu.Lock()
	for i, q := range s.pending {
		if q == j {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			s.metrics.Canceled++
			s.mu.Unlock()
			j.finish(nil, ErrCanceled, nil)
			return true
		}
	}
	s.mu.Unlock()
	return false
}

// Latency returns the job's submit-to-finish wall latency in µs; it is
// meaningful only after Done.
func (j *Job) Latency() float64 { return j.lat }

// Priority returns the job's submitted priority.
func (j *Job) Priority() int { return j.spec.Priority }

// finish publishes the job's outcome exactly once. book, when non-nil, is
// handed the job's latency and runs before the job's waiters wake, so a
// caller returning from Wait finds its job already counted in Metrics. It
// must be called from the scheduler goroutine (or, for cancellation, after
// the job has been unlinked from the queue under the service lock).
func (j *Job) finish(res *core.Result, err error, book func(lat float64)) {
	j.lat = float64(time.Since(j.submitted)) / float64(time.Microsecond) //cubevet:ignore detbreak -- service latency metric is wall-clock by design; results stay deterministic
	j.res, j.err = res, err
	if book != nil {
		book(j.lat)
	}
	close(j.done)
}
