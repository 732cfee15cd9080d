// Package fabric defines the backend contract every cube transport
// implements: the message and statistics types shared by all backends, the
// Node handle node programs are written against, the Fabric interface the
// executors drive, and the registry that maps backend names to
// constructors.
//
// Two backends ship with the library. internal/simnet is the reference
// implementation — a deterministic discrete-event simulation with per-node
// virtual clocks, the substrate all of the paper's measurements run on.
// internal/livenet runs the same node programs on real goroutines
// exchanging messages over per-link channels under wall-clock time. The
// compiled plans, the comm builders and the router are written purely
// against this package, so the same execution produces element-identical
// results on either backend; whether a backend additionally promises a
// virtual, deterministic clock is declared in its Capabilities.
//
// The ownership and concurrency contracts documented on Msg, Node.Send and
// Node.Recycle are part of this interface, not simnet implementation
// detail: every backend transfers message buffers on send and runs node
// prologues/epilogues concurrently. The contracts are checked at run time:
// block audits (Checksum, AuditError) catch a payload touched after Send,
// simnet's SIMNET_DEBUG pool poisons recycled buffers with NaN, and the
// race detector over the livenet backend catches unpartitioned shared
// writes.
package fabric

import (
	"boolcube/internal/machine"
)

// Part describes one logical block inside a multi-block message: N elements
// of Data belonging to the (Src, Dst) transfer. Personalized-communication
// algorithms bundle many blocks into one transmission; Parts keeps them
// identifiable without extra wire cost.
type Part struct {
	Src, Dst uint64
	N        int
	// Sum is the block's delivery-audit checksum (Checksum over its N
	// elements, computed where the block was gathered); 0 means unaudited.
	Sum uint64
}

// Msg is a message traveling over one cube link. Src and Dst identify the
// original source and final destination for multi-hop (forwarded) traffic;
// Rel and Path carry routing state for relative-address and source-routed
// algorithms; Data is the payload in matrix elements, optionally subdivided
// by Parts.
//
// Ownership: Send transfers the message and its buffers to the receiver
// without copying. The sender must not reuse Data/Parts/Path after Send;
// the receiver owns them and may pass them along, keep them, or Recycle
// them.
type Msg struct {
	Src, Dst uint64
	Tag      int
	Rel      uint64
	Path     []int
	Parts    []Part
	Data     []float64
	// Sum is the whole-payload delivery-audit checksum (Checksum over Data,
	// computed at injection); 0 means unaudited. Multi-block messages audit
	// per Part instead.
	Sum uint64
	// FlowSum is the whole-flow delivery-audit checksum carried by every
	// packet of a multi-packet flow (Checksum over the flow's complete
	// payload, computed once at injection); 0 means unaudited. The
	// destination verifies it once per flow at reassembly — one checksum
	// pass per flow instead of one per packet.
	FlowSum uint64
	// Tags carries one address tag per Data element under SIMNET_DEBUG
	// (nil otherwise), so receivers can verify each element's provenance
	// without materializing the expected result.
	Tags []uint64
}

// Clone returns a deep copy of the message (fresh Data, Path and Parts).
// Use it when a payload must outlive the ownership hand-off of Send or
// survive past a Recycle point.
func (m Msg) Clone() Msg {
	c := m
	c.Data = append([]float64(nil), m.Data...)
	c.Path = append([]int(nil), m.Path...)
	c.Parts = append([]Part(nil), m.Parts...)
	c.Tags = append([]uint64(nil), m.Tags...)
	return c
}

// Stats aggregates what the paper measures: elapsed time, communication
// start-ups, transferred volume and link load — plus, under fault
// injection, how much the run degraded. On the simulated backend Time is
// virtual µs; on a live backend it is wall-clock µs. The engine fills the
// retry and drop counters; the flow executor fills the failover counters on
// its returned copy.
type Stats struct {
	Time         float64 // makespan over all nodes and transmissions, µs
	Startups     int64   // total communication start-ups
	Sends        int64   // messages sent (per-hop)
	Bytes        int64   // total bytes crossing links
	CopyBytes    int64   // total bytes passed through local copies
	CopyTime     float64 // total local copy time (sum over nodes), µs
	MaxLinkBytes int64   // heaviest directed link, bytes
	MaxLinkBusy  float64 // heaviest directed link, busy time µs

	// Degradation under fault injection (all zero on fault-free runs).
	Retries      int64 // transmission attempts repeated (drop retransmits, down-window waits)
	Drops        int64 // frames lost in flight to flaky links
	FaultedSends int64 // sends that failed past the retry budget (typed error)
	Rerouted     int64 // flows failed over to an alternate disjoint path
	ExtraHops    int64 // extra hops incurred by failover reroutes
}

// Logical strips the timing-derived fields (Time, CopyTime, MaxLinkBusy),
// leaving only the counters that are a pure function of the executed
// communication: message counts, volumes, start-ups and fault degradation.
// Two runs of the same plan on any pair of backends — or a compiled replay
// against its one-shot baseline — must agree on Logical() exactly, while
// their clock-derived fields may differ (wall versus virtual time).
func (s Stats) Logical() Stats {
	s.Time = 0
	s.CopyTime = 0
	s.MaxLinkBusy = 0
	return s
}

// Merge folds the cost of a subsequent run on top of s: counters and
// makespans add (the runs happen one after the other), per-link maxima take
// the max. Checkpoint resume uses it to fold a resumed run's cost onto the
// sunk cost, and the transpose service uses it to accumulate per-round
// engine stats into a service-lifetime total.
func (s Stats) Merge(b Stats) Stats {
	out := s
	out.Time += b.Time
	out.Startups += b.Startups
	out.Sends += b.Sends
	out.Bytes += b.Bytes
	out.CopyBytes += b.CopyBytes
	out.CopyTime += b.CopyTime
	if b.MaxLinkBytes > out.MaxLinkBytes {
		out.MaxLinkBytes = b.MaxLinkBytes
	}
	if b.MaxLinkBusy > out.MaxLinkBusy {
		out.MaxLinkBusy = b.MaxLinkBusy
	}
	out.Retries += b.Retries
	out.Drops += b.Drops
	out.FaultedSends += b.FaultedSends
	out.Rerouted += b.Rerouted
	out.ExtraHops += b.ExtraHops
	return out
}

// Additive strips everything that is not a strictly additive counter: the
// Logical timing fields plus the per-link maxima (MaxLinkBytes), which
// depend on how traffic shares links. What is left — message counts,
// volumes, start-ups and fault degradation — sums linearly over any
// partition of a communication into runs, so executing N jobs merged on one
// shared fabric and executing them serially on private engines must agree
// on the Additive sum exactly. The multi-tenant service's differential
// tests compare exactly this.
func (s Stats) Additive() Stats {
	s = s.Logical()
	s.MaxLinkBytes = 0
	return s
}

// TraceEvent is one timed operation of one node, reported to a Tracer.
type TraceEvent struct {
	Node       uint64
	Kind       string // "send", "recv", "copy", "compute", "drop" (faulted attempt)
	Dim        int    // cube dimension for send/recv; -1 otherwise
	Bytes      int
	Start, End float64

	// Fault detail, filled only on "drop" events so a faulted trace is
	// debuggable without cross-referencing the fault plan. Attempt is the
	// 1-based retry attempt that failed. DownUntil is the end of the
	// failing link's down-window ([Start, DownUntil), +Inf for a permanent
	// failure); it is 0 when the link was up and the frame was dropped in
	// flight by a flaky link.
	Attempt   int
	DownUntil float64
}

// Tracer receives every timed operation as it executes — in deterministic
// engine order on the simulated backend, in completion order on a live one.
// Implementations must not call back into the engine.
type Tracer interface {
	Record(TraceEvent)
}

// LinkLoad reports the traffic carried by one directed cube link.
type LinkLoad struct {
	From uint64
	Dim  int
	// Bytes carried and total busy time in µs (busy time is zero on
	// backends without virtual link occupancy).
	Bytes int64
	Busy  float64
}

// To returns the link's destination node.
func (l LinkLoad) To() uint64 { return l.From ^ 1<<uint(l.Dim) }

// Node is the per-processor handle node programs are written against. Its
// methods may only be called from within the program function passed to
// Run, on the node's own goroutine. The ownership contract is uniform
// across backends: Send/TrySend/Exchange transfer the message's buffers to
// the receiver, Recycle returns a received message's buffers to the
// backend's pool, and neither may be touched afterwards (block audits and
// simnet's SIMNET_DEBUG NaN poison catch a violation at run time).
type Node interface {
	// ID returns the node's cube address.
	ID() uint64
	// Dims returns the cube dimension n.
	Dims() int
	// Nodes returns the node count N = 2^n.
	Nodes() int
	// Clock returns the node's current time in µs — virtual on the
	// simulated backend, wall-clock since Run on a live one.
	Clock() float64
	// Params returns the machine model in force.
	Params() machine.Params
	// Neighbor returns the node's neighbor across dimension d.
	Neighbor(d int) uint64
	// Send transmits m to the neighbor across dimension dim, transferring
	// ownership of the message's buffers. An injected failure past the
	// retry budget aborts the program with a typed *FaultError.
	Send(dim int, m Msg)
	// TrySend is Send, but an injected failure is returned as a
	// *FaultError instead of aborting the program.
	TrySend(dim int, m Msg) error
	// Recv blocks until a message arrives from the neighbor across
	// dimension dim and returns it (FIFO per link).
	Recv(dim int) Msg
	// RecvAny blocks until a message arrives on any dimension and returns
	// the earliest-arriving one.
	RecvAny() Msg
	// Exchange sends m across dim and receives the partner's message from
	// the same dimension.
	Exchange(dim int, m Msg) Msg
	// Copy charges the cost of moving b bytes locally.
	Copy(b int)
	// Advance moves the node's clock forward by dt µs of computation.
	Advance(dt float64)
	// Fail aborts the node's program with a typed error: the engine
	// unwinds every node and Run returns err as-is.
	Fail(err error)
	// AllocData returns a payload buffer of length n from the backend's
	// pool; contents are unspecified.
	AllocData(n int) []float64
	// AllocParts returns a Parts buffer of length n from the backend's
	// pool.
	AllocParts(n int) []Part
	// Recycle returns m's buffers (Data and Parts) to the backend's pool;
	// the caller must own the message and must not touch the buffers
	// afterwards.
	Recycle(m Msg)
}

// Capabilities declares what a backend can promise beyond the Fabric
// contract, so executors and tests can adapt without type-switching on
// concrete engines. Every backend honors SetFaults, SetTracer and crash-stop
// kills (a fault model implementing CrashModel, surfaced as a typed
// *NodeDownError); the one promise that differs is the clock.
type Capabilities struct {
	// VirtualTime: Stats.Time, Clock and link busy times are simulated
	// virtual µs under the machine cost model, fault windows are read on
	// that clock, and identical programs produce identical results, Stats
	// and failure points on every run — on any number of OS threads
	// (simnet's sharded epoch scheduler). False means a wall clock: a
	// parallel backend whose timing and window-based outcomes depend on
	// real scheduling.
	VirtualTime bool
}

// Fabric is one cube transport: construct with New (or a backend package's
// own constructor), configure, then Run node programs on it. Engines are
// one-shot: a second Run returns an error — compose multi-phase algorithms
// inside a single program.
type Fabric interface {
	// Dims returns the cube dimension n.
	Dims() int
	// Nodes returns the node count N = 2^n.
	Nodes() int
	// Params returns the machine model in force.
	Params() machine.Params
	// Run executes prog on every node until all programs return. It
	// returns an error if any program panics, misuses the API, deadlocks,
	// or aborts under fault injection or a deadline.
	Run(prog func(Node)) error
	// Stats returns the accumulated statistics of the last Run.
	Stats() Stats
	// LinkLoads returns the per-directed-link traffic of the last Run,
	// sorted by (From, Dim); links that carried no traffic are omitted.
	LinkLoads() []LinkLoad
	// SetTracer installs a tracer for the next Run (nil disables).
	SetTracer(t Tracer)
	// SetFaults installs a fault model and retry policy for the next Run
	// (nil disables injection). Zero RetryPolicy fields take the defaults.
	SetFaults(f FaultModel, rp RetryPolicy)
	// SetDeadline bounds the next Run to t µs on the backend's clock;
	// t <= 0 disables. A deadline abort is a typed *DeadlineError.
	SetDeadline(t float64)
	// DebugChecks reports whether SIMNET_DEBUG-level verification (element
	// address tags) is active for this engine.
	DebugChecks() bool
	// Capabilities declares what this backend promises.
	Capabilities() Capabilities
}
