package boolcube

import (
	"boolcube/internal/service"
)

// The multi-tenant transpose service: a long-lived scheduler admitting many
// concurrent transpose jobs onto one shared cube fabric, with admission
// control, priority scheduling with aging, batching of identical requests,
// per-job deadline budgets and per-job checkpoints. See internal/service
// for the execution model (merged-flow rounds on a genuinely shared
// engine).
type (
	// Service is the long-lived scheduler; construct with NewService,
	// Submit jobs from any goroutine, Close to drain.
	Service = service.Service
	// ServiceConfig shapes a Service: the deployed machine (cube
	// dimension, machine model, backend, fault schedule) and the queue
	// bound. Round size, attempts and the quarantine threshold are fixed.
	ServiceConfig = service.Config
	// ServiceMetrics is a snapshot of the service counters, cumulative
	// fabric statistics and completed-job latencies.
	ServiceMetrics = service.Metrics
	// JobSpec describes one transpose request: shape, encoding, algorithm,
	// source distribution, priority and deadline budget.
	JobSpec = service.JobSpec
	// Job is the handle Submit returns: Wait for the result, Cancel while
	// queued, Done to select on completion.
	Job = service.Job
	// AdmissionError is the typed admission-control refusal (queue full or
	// service closed); the job itself is fine, resubmitting may succeed.
	AdmissionError = service.AdmissionError
	// SpecError is the typed rejection of a malformed job specification.
	SpecError = service.SpecError
)

// Service sentinels for errors.Is.
var (
	// ErrQueueFull marks Submit refusals at the queue bound.
	ErrQueueFull = service.ErrQueueFull
	// ErrServiceClosed marks Submit refusals on a draining service.
	ErrServiceClosed = service.ErrClosed
	// ErrJobCanceled marks jobs withdrawn by a successful Cancel.
	ErrJobCanceled = service.ErrCanceled
	// ErrJobAttempts marks jobs that exhausted their execution attempts.
	ErrJobAttempts = service.ErrAttempts
)

// NewService validates the configuration, starts the scheduler and returns
// the service.
func NewService(cfg ServiceConfig) (*Service, error) { return service.New(cfg) }

// ParseJob builds a JobSpec from textual algorithm/layout/priority/deadline
// fields for a 2^p x 2^q matrix on an n-cube (the grammar of ParseLayout);
// the caller fills Src by scattering the matrix under the Before layout.
func ParseJob(alg, before, after, priority, deadline string, p, q, n int) (JobSpec, error) {
	return service.ParseJob(alg, before, after, priority, deadline, p, q, n)
}
