package livenet

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// Params tunes the live engine's real-time supervision. The zero value
// selects the defaults; SetParams must be called before Run.
type Params struct {
	// StallWindow is how long the stall watchdog waits without observing
	// any completed node operation (while unfinished nodes remain) before
	// declaring the run deadlocked. Real sleeps — Advance, fault backoff —
	// count as progress when they complete, so the window only has to
	// outlast the scheduler, not the program. Default 5s.
	StallWindow time.Duration
	// SuspicionTimeout is how long a node may go without a heartbeat before
	// the failure detector declares it dead and aborts the run with a typed
	// *fabric.NodeDownError. Only in force when the installed fault model
	// schedules crash-stop kills (fabric.CrashModel). Detection latency is
	// bounded by SuspicionTimeout plus one detector tick (a quarter of it).
	// Each node heartbeats eight times per timeout (heartbeat). Default
	// 250ms.
	SuspicionTimeout time.Duration
}

// defaults for the zero Params fields.
const (
	defaultStallWindow      = 5 * time.Second
	defaultSuspicionTimeout = 250 * time.Millisecond
)

// withDefaults resolves zero fields.
func (p Params) withDefaults() Params {
	if p.StallWindow <= 0 {
		p.StallWindow = defaultStallWindow
	}
	if p.SuspicionTimeout <= 0 {
		p.SuspicionTimeout = defaultSuspicionTimeout
	}
	return p
}

// heartbeat is how often each node's heartbeat fires: well under the
// suspicion timeout, or every node would look dead.
func (p Params) heartbeat() time.Duration { return p.SuspicionTimeout / 8 }

// SetParams installs supervision parameters for the next Run; zero fields
// keep their defaults. Must be called before Run.
func (e *Engine) SetParams(p Params) { e.sup = p.withDefaults() }

// SupervisionParams returns the supervision parameters in force.
func (e *Engine) SupervisionParams() Params { return e.sup }

// ErrStalled marks a stall abort: no node completed an operation for a full
// stall window while unfinished nodes remained. Exposed for errors.Is.
var ErrStalled = errors.New("stalled")

// BlockedNode is one stuck node in a stall report: the node id and the
// dimension it was blocked receiving on (-1 for RecvAny).
type BlockedNode struct {
	Node uint64
	Dim  int
}

func (b BlockedNode) String() string {
	if b.Dim < 0 {
		return fmt.Sprintf("node %d blocked on recv(any dim)", b.Node)
	}
	return fmt.Sprintf("node %d blocked on recv(dim %d)", b.Node, b.Dim)
}

// StallError is the typed stall report: the live analogue of simnet's
// deadlock diagnosis. It unwraps to ErrStalled, and its Blocked list names
// every node stuck on a receive (ascending id), so callers can reach the
// blocked-node detail without parsing a formatted string.
type StallError struct {
	Window  time.Duration // the stall window that elapsed without progress
	Blocked []BlockedNode // every node blocked on a receive, ascending id
}

func (s *StallError) Error() string {
	const maxDetail = 8
	parts := make([]string, 0, maxDetail)
	for i, b := range s.Blocked {
		if i >= maxDetail {
			parts = append(parts, fmt.Sprintf("... and %d more", len(s.Blocked)-maxDetail))
			break
		}
		parts = append(parts, b.String())
	}
	return fmt.Sprintf("livenet: %v: no progress for %s; %d node(s) blocked on receive: %s",
		ErrStalled, s.Window, len(s.Blocked), strings.Join(parts, "; "))
}

func (s *StallError) Unwrap() error { return ErrStalled }
