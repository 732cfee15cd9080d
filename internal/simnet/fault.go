package simnet

import (
	"boolcube/internal/fabric"
)

// SetFaults installs a fault model and retry policy for the next Run (nil
// disables injection). Zero fabric.RetryPolicy fields default to 3 attempts with
// the machine's τ as backoff. A model that also implements
// fabric.CrashModel schedules crash-stop node kills (crash.go). Must be
// called before Run.
func (e *Engine) SetFaults(f fabric.FaultModel, rp fabric.RetryPolicy) {
	e.faults = f
	e.retry = rp.WithDefaults(e.params.Tau)
	if f != nil && e.linkAttempts == nil {
		e.linkAttempts = make([]int64, e.nodesCount*e.n)
	}
	e.setCrashes(f)
}
