package fabric

import (
	"errors"
	"fmt"
)

// FaultModel is what a backend asks about injected faults. It is defined
// here (rather than importing internal/fault) to keep the layering acyclic:
// fault.Plan implements this interface, and the backends stay ignorant of
// how fault schedules are expressed or compiled.
//
// Implementations must be pure functions of their construction inputs —
// the simulated backend consults them on the deterministic scheduling path,
// so any internal nondeterminism would break the replayability promise.
// Live backends consult LinkState with wall-clock µs since Run, so
// window-based scenarios are only as repeatable as the wall clock; Drop is
// attempt-indexed and stays deterministic on every backend (each directed
// link has exactly one sender with a deterministic send sequence).
type FaultModel interface {
	// LinkState reports whether the directed link (from, dim) is usable at
	// time t; when it is down, nextUp is the recovery time (+Inf for a
	// permanent failure).
	LinkState(from uint64, dim int, t float64) (up bool, nextUp float64)
	// Drop reports whether transmission attempt `attempt` (1-based,
	// counted per directed link) is lost in flight.
	Drop(from uint64, dim int, attempt int64) bool
}

// RetryPolicy bounds how a backend responds to injected failures: a
// transmission is attempted at most Attempts times (waiting out transient
// link-down windows counts against the same budget), with Backoff µs
// between attempts. The zero value selects the defaults at SetFaults time.
type RetryPolicy struct {
	Attempts int     // max transmission attempts per hop (default 3)
	Backoff  float64 // µs between attempts (default: the machine's τ)
}

// WithDefaults resolves zero fields against the machine model.
func (r RetryPolicy) WithDefaults(tau float64) RetryPolicy {
	if r.Attempts < 1 {
		r.Attempts = 3
	}
	if r.Backoff <= 0 {
		r.Backoff = tau
	}
	return r
}

// CrashModel is the optional crash-stop extension of FaultModel: a fault
// schedule that also kills whole nodes. Every backend type-asserts its
// FaultModel against this interface at SetFaults time; models without crash
// rules simply don't implement it (or return no entries).
//
// Crash-stop means fail-silent: from its crash time on, the node neither
// executes program steps nor acknowledges receptions — it does not send
// garbage. On a simulated backend the crash takes effect at exactly virtual
// time t; on a live backend t is wall-clock µs since Run and the kill is
// real (the node's goroutine is torn down), so the observable death time is
// only as precise as the scheduler.
type CrashModel interface {
	// CrashAt returns the crash time of the node and whether the schedule
	// kills it at all.
	CrashAt(node uint64) (t float64, ok bool)
	// CrashedNodes returns every node the schedule kills, ascending.
	CrashedNodes() []uint64
}

// Fault cause sentinels, exposed for errors.Is.
var (
	// ErrLinkDown: the link was down and will not recover (or stayed down
	// past the retry budget).
	ErrLinkDown = errors.New("link down")
	// ErrRetryBudget: every attempt within the retry budget was dropped.
	ErrRetryBudget = errors.New("retry budget exhausted")
	// ErrNodeDown: a crash-stop node kill was detected.
	ErrNodeDown = errors.New("node down")
)

// FaultError is the typed error a transmission surfaces when fault
// injection defeats it. It unwraps to ErrLinkDown or ErrRetryBudget, and
// its message is a pure function of the failure, so identical runs fail
// identically (on a deterministic backend).
type FaultError struct {
	From, To uint64  // link endpoints
	Dim      int     // link dimension
	At       float64 // time of the final failed attempt (backend clock, µs)
	Attempts int     // transmission attempts consumed
	Err      error   // ErrLinkDown or ErrRetryBudget
}

func (f *FaultError) Error() string {
	return fmt.Sprintf("fabric: send %d-(dim %d)->%d failed at t=%g after %d attempt(s): %v",
		f.From, f.Dim, f.To, f.At, f.Attempts, f.Err)
}

func (f *FaultError) Unwrap() error { return f.Err }

// NodeDownError is the typed outcome of crash-stop detection: the run was
// aborted because one or more nodes died. It unwraps to ErrNodeDown. On a
// deterministic backend every field is a pure function of the program and
// the fault schedule, so identical runs fail identically; on a live backend
// DetectedAt and LastHeard carry wall-clock µs and vary run to run, but
// Nodes is still exactly the set of scheduled kills that fired.
type NodeDownError struct {
	Node       uint64   // lowest-id dead node (the canonical culprit)
	Nodes      []uint64 // every node detected dead, ascending
	At         float64  // scheduled crash time of Node (µs, backend clock)
	LastHeard  float64  // when Node was last heard from (µs, backend clock)
	DetectedAt float64  // when the failure was detected (µs, backend clock)
}

func (e *NodeDownError) Error() string {
	extra := ""
	if len(e.Nodes) > 1 {
		extra = fmt.Sprintf(" (+%d more)", len(e.Nodes)-1)
	}
	return fmt.Sprintf("fabric: node %d down%s: crashed at t=%g, last heard t=%g, detected t=%g: %v",
		e.Node, extra, e.At, e.LastHeard, e.DetectedAt, ErrNodeDown)
}

func (e *NodeDownError) Unwrap() error { return ErrNodeDown }
