package simnet

import (
	"math"

	"boolcube/internal/fabric"
)

// SetDeadline bounds the next Run to virtual time t (µs): the run aborts
// with a typed *fabric.DeadlineError as soon as the operation the scheduler
// would execute next has an action time past t (strictly — an operation
// acting exactly at the deadline is admitted). Action time is a send's start or a
// receive's arrival; an admitted send completes its transmission even if it
// lands after t, and node-program termination is always allowed.
//
// t <= 0 or +Inf disables the deadline (the default). Must be called before
// Run. A finite deadline puts the run in serial mode (one worker, see
// shard.go), so the check applies to the serial next operation and a
// deadline abort is as deterministic and replayable as any other outcome.
func (e *Engine) SetDeadline(t float64) {
	if t <= 0 {
		t = math.Inf(1)
	}
	e.deadline = t
}

// deadlineError builds the typed abort for the operation that overran.
func (e *Engine) deadlineError(nd *Node, at float64) error {
	return &fabric.DeadlineError{Deadline: e.deadline, Node: nd.id, NextAt: at}
}
