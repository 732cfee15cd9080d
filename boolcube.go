// Package boolcube is a library for matrix transposition on Boolean n-cube
// (hypercube) configured ensemble architectures, reproducing the algorithms
// and analysis of S. Lennart Johnsson and Ching-Tien Ho, "Algorithms for
// Matrix Transposition on Boolean n-cube Configured Ensemble Architectures"
// (Yale YALEU/DCS/TR-572, 1987).
//
// A 2^p x 2^q matrix is distributed over the 2^n processors of a simulated
// hypercube under a Layout (cyclic, consecutive or combined assignment of
// rows/columns, in binary or binary-reflected Gray code). Transpose moves
// the data into a target layout on the transposed matrix using one of the
// paper's algorithms, on a machine model (Intel iPSC, Connection Machine,
// or an ideal machine), and reports simulated time, communication start-ups
// and link loads.
//
//	m := boolcube.NewIotaMatrix(5, 5)                  // 32x32 matrix
//	before := boolcube.TwoDimConsecutive(5, 5, 2, 2, boolcube.Binary)
//	after := boolcube.TwoDimConsecutive(5, 5, 2, 2, boolcube.Binary)
//	d := boolcube.Scatter(m, before)
//	res, err := boolcube.Transpose(d, after, boolcube.Options{
//		Algorithm: boolcube.MPT,
//		Machine:   boolcube.IPSCNPort(),
//	})
//	// res.Dist holds m^T; res.Stats holds the simulated cost.
package boolcube

import (
	"boolcube/internal/comm"
	"boolcube/internal/core"
	"boolcube/internal/fabric"
	"boolcube/internal/fault"
	"boolcube/internal/field"
	"boolcube/internal/machine"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
)

// Encoding selects binary or binary-reflected Gray code for a processor
// address field.
type Encoding = field.Encoding

// Encodings.
const (
	Binary = field.Binary
	Gray   = field.Gray
)

// Layout describes how matrix elements map to processors and local storage.
type Layout = field.Layout

// Machine is a communication cost model (τ, t_c, packet size, copy cost,
// port model).
type Machine = machine.Params

// PortModel selects one-port or n-port (all links concurrently)
// communication.
type PortModel = machine.PortModel

// Port models.
const (
	OnePort = machine.OnePort
	NPort   = machine.NPort
)

// Matrix is a dense 2^P x 2^Q matrix.
type Matrix = matrix.Matrix

// Dist is a matrix distributed over the cube under a Layout.
type Dist = matrix.Dist

// Stats reports simulated time (µs), start-ups, bytes and link loads.
// Stats.Logical() strips the timing-derived fields, leaving the
// backend-independent counters two fabric backends agree on exactly.
type Stats = fabric.Stats

// Result is a transposed distribution plus its simulated cost.
type Result = core.Result

// Strategy selects how the exchange algorithm packages blocks into
// messages (Section 8.1 of the paper).
type Strategy = comm.Strategy

// Exchange strategies.
const (
	// SingleMessage sends one message per exchange step (idealized).
	SingleMessage = comm.SingleMessage
	// Shuffled performs the full local shuffle between steps.
	Shuffled = comm.Shuffled
	// Unbuffered sends every contiguous block run separately.
	Unbuffered = comm.Unbuffered
	// Buffered copies small runs into one buffer (the paper's optimal
	// iPSC scheme).
	Buffered = comm.Buffered
)

// Machine models.
var (
	// IPSC is the Intel iPSC: one-port, τ ≈ 5 ms, t_c ≈ 1 µs/byte,
	// 1 KB packets, slow local copy.
	IPSC = machine.IPSC
	// IPSCNPort is the iPSC cost structure with n-port communication.
	IPSCNPort = machine.IPSCNPort
	// ConnectionMachine is a bit-serial pipelined router model.
	ConnectionMachine = machine.ConnectionMachine
	// Ideal is a unit-cost machine for studying algorithm structure.
	Ideal = machine.Ideal
)

// Layout constructors (Tables 1-2 and Section 6 of the paper).
var (
	OneDimConsecutiveRows = field.OneDimConsecutiveRows
	OneDimCyclicRows      = field.OneDimCyclicRows
	OneDimConsecutiveCols = field.OneDimConsecutiveCols
	OneDimCyclicCols      = field.OneDimCyclicCols
	TwoDimConsecutive     = field.TwoDimConsecutive
	TwoDimCyclic          = field.TwoDimCyclic
	TwoDimMixed           = field.TwoDimMixed
	TwoDimEncoded         = field.TwoDimEncoded
	CombinedContiguous    = field.CombinedContiguous
	CombinedSplit         = field.CombinedSplit
	// PermutedDims returns a layout with its processor address bits
	// permuted — the content of bit p moves to bit pi[p] — the after layout
	// of a Permute: Compile(before, PermutedDims(before, pi),
	// Options{Algorithm: Permute}). pi[p] = n-1-p is the bit reversal.
	PermutedDims = field.PermutedDims
)

// ShufflePermutation returns the dimension permutation realizing sh^k (a k
// step left cyclic shift of the node address), for PermutedDims.
func ShufflePermutation(n, k int) []int {
	pi := make([]int, n)
	for p := range pi {
		pi[p] = ((p+k)%n + n) % n
	}
	return pi
}

// Matrix construction and distribution.
var (
	// NewMatrix returns a zero 2^p x 2^q matrix.
	NewMatrix = matrix.New
	// NewIotaMatrix returns the matrix with a(u,v) = u*2^q + v.
	NewIotaMatrix = matrix.NewIota
	// Scatter distributes a matrix under a layout.
	Scatter = matrix.Scatter
)

// Classification of the communication a transposition requires.
type Classification = field.Classification

// Pattern is the communication class (pairwise, all-to-all, ...).
type Pattern = field.Pattern

// Communication patterns.
const (
	LocalOnly = field.LocalOnly
	Pairwise  = field.Pairwise
	AllToAll  = field.AllToAll
	SomeToAll = field.SomeToAll
	AllToSome = field.AllToSome
	General   = field.General
)

// Classify determines the communication pattern of transposing from one
// layout into another.
var Classify = field.Classify

// ParseLayout builds a layout from a textual specification such as
// "2d-cyclic:gray", "banded:2,1" or "custom([8,10):gray+[3,5))",
// parameterized by the matrix shape and processor count. See
// internal/field.Parse for the grammar.
var ParseLayout = field.Parse

// Algorithm selects a transposition algorithm from the paper. The
// algorithm set, its names, and its compilation rules live in one registry
// table in internal/plan; String, Algorithms and ParseAlgorithm all read
// that table.
type Algorithm = plan.Algorithm

const (
	// Exchange is the standard exchange algorithm (Section 5), scanning
	// cube dimensions from highest to lowest; optimal within 2x for
	// one-port all-to-all transposition.
	Exchange = plan.Exchange
	// ExchangeSPTOrder is the exchange algorithm with paired row/column
	// dimension order; on square two-dimensional layouts it follows the
	// Single Path Transpose routes.
	ExchangeSPTOrder = plan.ExchangeSPTOrder
	// SPT is the Single Path Transpose (Section 6.1.1): one pipelined
	// edge-disjoint path from each node to its transpose partner.
	SPT = plan.SPT
	// DPT is the Dual Paths Transpose (Section 6.1.2): two directed
	// edge-disjoint paths per node, halving the transfer time.
	DPT = plan.DPT
	// MPT is the Multiple Paths Transpose (Section 6.1.3 / Theorem 2):
	// 2H(x) edge-disjoint paths per node; communication-optimal within a
	// factor of two with n-port communication.
	MPT = plan.MPT
	// SBnT routes every (source, destination) payload along its spanning
	// balanced n-tree path (Section 5, n-port optimal all-to-all).
	SBnT = plan.SBnT
	// RoutingLogic sends every payload straight through dimension-order
	// (e-cube) routing, as the iPSC/CM routing hardware does (Section 8).
	RoutingLogic = plan.RoutingLogic
	// MixedNaive transposes mixed binary/Gray encodings via separate code
	// conversions plus transpose: 2n-2 routing steps (Section 6.3).
	MixedNaive = plan.MixedNaive
	// MixedCombined folds the conversions into the transpose: n routing
	// steps (Section 6.3).
	MixedCombined = plan.MixedCombined
	// ParallelPaths splits each pair's payload over the n node-disjoint
	// paths of Saad & Schultz — per-pair disjoint but globally colliding;
	// the ablation baseline for the MPT.
	ParallelPaths = plan.ParallelPaths
	// Convert1, Convert2 and Convert3 are Section 6.2's transpositions
	// with a change of assignment scheme: a TwoDimConsecutive(p, q, nr, nc)
	// matrix into TwoDimCyclic(q, p, nc, nr) storage of its transpose, in
	// the before layout's encoding, as a compiled three-phase exchange
	// plan. Convert1 converts rows, then columns, then transposes: 2n
	// steps. Convert2 transposes locally first, then converts in n steps.
	// Convert3 pairs dimensions to avoid the pre-transpose: n steps. Each
	// requires nr == nc, p >= 2nr and q >= 2nc; any other layout pair is a
	// compile error. Their checkpoint is the coarse one — only the self
	// pairs count as delivered, since a block of the last phase is no span
	// of the composed move-set — and the exchange phases have no
	// alternative routes to fail over to: a permanently down link on a
	// dimension they scan is refused pre-flight with an *InfeasibleError.
	Convert1 = plan.Convert1
	Convert2 = plan.Convert2
	Convert3 = plan.Convert3
	// ConvertEncoding re-embeds the matrix under a layout of the same shape
	// and partitioning in another encoding (binary <-> Gray) without
	// transposing it — the standalone code conversion of Section 2, routed
	// most-significant dimension first so each node needs at most n-1
	// hops. It is the one row whose after layout describes the input
	// matrix, not its transpose (Algorithm.Transposes is false), and it is
	// a flow plan: per-flow checkpoints, and failover of blocked flows onto
	// unused disjoint paths.
	ConvertEncoding = plan.ConvertEncoding
	// Permute moves every node's data, local storage unchanged, to the node
	// whose address is its own with the bits permuted (Section 7): the after
	// layout is PermutedDims(before, pi), and like ConvertEncoding it
	// describes the input matrix. The general exchange runs over the
	// permutation's dimension pairs — for the bit reversal one exchange
	// pairing dimension i with n-1-i — and any other dimension permutation
	// takes at most ceil(log2 n) parallel swappings (Lemma 15), one phase
	// each. Any other layout pair is a compile error.
	Permute = plan.Permute
	// PermuteTwoPhase takes Permute's layout pairs by Section 7's generic
	// algorithm for any permutation: two rounds of all-to-all personalized
	// communication, each over every dimension. Round one sends piece j of
	// every node's local array to node j, round two forwards each piece to
	// its owner's destination, so the link load stays balanced whatever the
	// permutation.
	PermuteTwoPhase = plan.PermuteTwoPhase
	// AlgorithmAuto lets the library pick: every candidate the layout pair
	// admits (Classify decides which) is compiled, and the compiled plan
	// with the lowest PredictedCost on the configured machine wins.
	AlgorithmAuto = plan.Auto
)

// Algorithms lists every concrete algorithm (excluding AlgorithmAuto), for
// sweeps. The last six rows are the conversions (Convert1 .. Convert3 and
// ConvertEncoding, named "convert-1" .. "convert-3" and "convert-encoding")
// and the permutations Permute and PermuteTwoPhase ("permute",
// "permute-two-phase"), run through Transpose or Compile like every row;
// each accepts only its own kind of layout pair. Algorithm.Transposes is
// false for ConvertEncoding and the permutations: their after layout
// describes the input matrix, not its transpose.
func Algorithms() []Algorithm { return plan.Algorithms() }

// ParseAlgorithm maps an algorithm name (as produced by Algorithm.String,
// e.g. "mpt" or "exchange-spt-order") back to the Algorithm; "auto" parses
// to AlgorithmAuto.
func ParseAlgorithm(s string) (Algorithm, error) { return plan.ParseAlgorithm(s) }

// Options configures a Transpose call.
type Options struct {
	// Algorithm selects the transposition algorithm.
	Algorithm Algorithm
	// Machine is the cost model; zero value defaults to the Intel iPSC.
	Machine Machine
	// Strategy selects message packaging for exchange-based algorithms.
	Strategy Strategy
	// Packets splits each path payload for pipelining in path-based
	// algorithms (0 = a single packet per path).
	Packets int
	// LocalCopies charges the local pack/unpack rearrangement cost.
	LocalCopies bool
	// Trace, when non-nil, records every timed operation of the run for
	// timeline rendering (see NewTrace).
	Trace *TraceRecorder
	// Faults, when non-nil, injects the compiled fault schedule into the
	// run (see CompileFaults). Flow-based algorithms reroute each flow
	// blocked by a permanently failed link over an unused disjoint path; a
	// flow with none refuses the run before any traffic moves.
	Faults *FaultPlan
	// Retry bounds the per-transmission retry/backoff loop under faults;
	// zero fields default to 3 attempts with the machine's τ as backoff.
	Retry RetryPolicy
	// Deadline, when positive, aborts the run before any operation would
	// start past this virtual time (µs), with a typed, resumable checkpoint.
	Deadline float64
	// Backend names the fabric backend the run executes on: "simnet" (the
	// default — deterministic discrete-event simulation with virtual-time
	// stats) or "livenet" (real goroutine-per-node transport over channels,
	// wall-clock time). See Backends for the registered set.
	Backend string
}

// orIPSC is the root API's machine default: the zero Machine (no Name)
// means the iPSC one-port parameters.
func orIPSC(m Machine) Machine {
	if m.Name == "" {
		return machine.IPSC()
	}
	return m
}

func (o Options) core() core.Options {
	co := core.Options{
		Machine:     orIPSC(o.Machine),
		Strategy:    o.Strategy,
		Packets:     o.Packets,
		LocalCopies: o.LocalCopies,
		Faults:      o.Faults,
		Retry:       o.Retry,
		Deadline:    o.Deadline,
		Backend:     o.Backend,
	}
	if o.Trace != nil {
		co.Tracer = o.Trace
	}
	return co
}

// Transpose moves the distributed matrix d into the after layout (which
// describes the transposed matrix) with the selected algorithm, returning
// the new distribution and the simulated communication cost. It is Compile
// followed by ExecuteWith: the plan comes from the same process-wide cache,
// so the first call for a (layouts, algorithm, machine) shape pays the
// O(P·Q) planning and every later one is a cache hit. Like Compile, it
// therefore retains at most 256 plans per process, evicted first-in
// first-out.
func Transpose(d *Dist, after Layout, opt Options) (*Result, error) {
	return core.Transpose(opt.Algorithm, d, after, opt.core())
}

// CompiledTranspose is a compiled, immutable transposition: the element
// move-sets, routes/dimension orders and packetization for one (before,
// after, algorithm, machine) shape, ready to replay against fresh data.
type CompiledTranspose struct {
	plan *plan.Plan
}

// Compile builds (or fetches from the process-wide plan cache) the plan for
// transposing a matrix distributed under `before` into the `after` layout
// with opt's algorithm and machine. The O(P·Q) planning work happens here,
// once per shape; Execute only gathers, routes and scatters. The cache holds
// at most 256 plans, evicted first-in first-out; an evicted plan a caller
// still holds stays valid.
func Compile(before, after Layout, opt Options) (*CompiledTranspose, error) {
	co := opt.core()
	p, err := plan.Default.Compile(opt.Algorithm, before, after, co.PlanConfig())
	if err != nil {
		return nil, err
	}
	return &CompiledTranspose{plan: p}, nil
}

// Execute replays the compiled plan against d (which must be distributed
// under the plan's before layout). The plan is read-only during execution,
// so a CompiledTranspose may be shared and executed concurrently; the
// result and Stats are bit-identical to a one-shot Transpose of the same
// shape.
func (c *CompiledTranspose) Execute(d *Dist) (*Result, error) {
	return core.Execute(c.plan, d, nil)
}

// ExecOptions carries the per-run knobs of an execution — tracing, fault
// injection, failover and retry policy. The zero value is a plain
// fault-free run.
type ExecOptions = core.ExecOptions

// ExecuteWith replays the compiled plan with the full per-run option set.
// The plan stays read-only even under failover: rerouted flows get fresh
// route slices, so the shared compiled plan is never mutated.
func (c *CompiledTranspose) ExecuteWith(d *Dist, xo ExecOptions) (*Result, error) {
	return core.ExecuteWith(c.plan, d, xo)
}

// Checkpointed execution: any mid-run failure — fault injection past the
// retry budget, a missed Deadline, a delivery-audit mismatch — surfaces as a
// typed *ExecError carrying a Checkpoint of everything already delivered.
// Recover recompiles the residual move-set against the post-failure fault
// state and finishes into the same distribution an uninterrupted run would
// have produced, bit for bit, at a fraction of a full restart's traffic.
type (
	// Checkpoint is the durable progress record of a failed execution.
	Checkpoint = core.Checkpoint
	// ExecError is the typed mid-run failure: the cause plus a Checkpoint.
	ExecError = core.ExecError
	// InfeasibleError is the typed pre-flight refusal: the fault schedule
	// permanently severs every path the plan needs, so the run is rejected
	// before any traffic moves.
	InfeasibleError = core.InfeasibleError
	// DeadlineError reports a run aborted at its virtual-time deadline.
	DeadlineError = fabric.DeadlineError
	// AuditError reports a payload that arrived different from what was
	// sent (every block and packet carries an always-on checksum; under
	// SIMNET_DEBUG every element also carries an address tag).
	AuditError = fabric.AuditError
	// NodeDownError reports a crash-stopped node: which node died, when,
	// when it was last heard from and when the failure was detected.
	NodeDownError = fabric.NodeDownError
)

// Sentinels for errors.Is against checkpointed-execution failures.
var (
	// ErrInfeasible marks plans refused by the pre-flight feasibility check.
	ErrInfeasible = core.ErrInfeasible
	// ErrDeadline marks runs aborted at a virtual-time deadline.
	ErrDeadline = fabric.ErrDeadline
	// ErrAudit marks delivery-audit mismatches.
	ErrAudit = fabric.ErrAudit
	// ErrNodeDown marks crash-stopped node failures.
	ErrNodeDown = fabric.ErrNodeDown
	// ErrLinkDown marks a send over a link that is down and will not
	// recover (or stayed down past the retry budget).
	ErrLinkDown = fabric.ErrLinkDown
	// ErrRetryBudget marks a send whose every attempt within the retry
	// budget was dropped by a flaky link.
	ErrRetryBudget = fabric.ErrRetryBudget
)

// Recover finishes a checkpointed execution, whatever stopped it. Local
// residuals replay host-side; network residuals run as direct
// dimension-order flows against the checkpoint's fault schedule shifted to
// the failure instant — links that failed mid-run are permanently down in
// the shifted view, so the failover pass routes around them on
// disjoint-path alternatives. Dead nodes (accumulated in the checkpoint plus
// every kill its fault schedule reports as fired) are relabeled away: an
// idle live node substitutes for each dead one when the cube has spares,
// otherwise the logical cube folds Gray-code-preservingly onto a dead-free
// subcube. The finished Dist is bit-identical to an unfaulted run's, and
// its Stats fold the finishing run's cost on top of the checkpoint's sunk
// cost; if the finishing run fails in turn, the returned *ExecError carries
// an updated checkpoint and Recover can be called again.
func Recover(cp *Checkpoint, xo ExecOptions) (*Result, error) {
	return core.Recover(cp, xo)
}

// Algorithm returns the concrete algorithm the plan uses — the resolved
// choice when compiled with AlgorithmAuto.
func (c *CompiledTranspose) Algorithm() Algorithm { return c.plan.Algorithm() }

// PredictedCost returns the plan's price (µs) for one execution: its
// compiled traffic walked into per-link loads and a hop schedule, on the
// configured machine. AlgorithmAuto picks by the same price.
func (c *CompiledTranspose) PredictedCost() float64 { return c.plan.PredictedCost() }

// Describe renders a one-line summary of the plan (algorithm, layouts,
// machine, schedule size).
func (c *CompiledTranspose) Describe() string { return c.plan.Describe() }

// Fault injection (deterministic link/node failure schedules, see
// internal/fault): a FaultSpec — seed plus rules — compiles into an
// immutable FaultPlan whose injected failures, drops and recoveries are a
// pure function of the spec, so faulted runs replay exactly.
type (
	// FaultSpec is a fault scenario: a seed plus declarative rules.
	FaultSpec = fault.Spec
	// FaultRule is one declarative fault (kind, link/node, window).
	FaultRule = fault.Rule
	// FaultLink identifies a directed cube link by source and dimension.
	FaultLink = fault.Link
	// FaultPlan is a compiled, immutable fault schedule for one cube.
	FaultPlan = fault.Plan
)

// Fault rule kinds.
const (
	// FaultLinkDown takes one directed link down during the rule's window.
	FaultLinkDown = fault.LinkDown
	// FaultLinkFlaky drops transmissions on one link with probability Prob.
	FaultLinkFlaky = fault.LinkFlaky
	// FaultNodeDown fails a node: every incident directed link goes down.
	FaultNodeDown = fault.NodeDown
	// FaultRandomLinks takes Count seed-chosen directed links down.
	FaultRandomLinks = fault.RandomLinks
	// FaultCrash crash-stops one node at the rule's Start time.
	FaultCrash = fault.Crash
	// FaultRandomCrashes crash-stops Count seed-chosen nodes at Start.
	FaultRandomCrashes = fault.RandomCrashes
)

// Fault scenario helpers and compilation.
var (
	// CompileFaults validates a FaultSpec against an n-cube and expands it
	// into a FaultPlan.
	CompileFaults = fault.Compile
	// SingleLinkDown is the scenario with one directed link down forever.
	SingleLinkDown = fault.SingleLinkDown
	// RandomLinkFailures is the sweep scenario: k seed-chosen links down.
	RandomLinkFailures = fault.RandomLinkFailures
	// FlakyLink makes one directed link drop transmissions with a fixed
	// probability.
	FlakyLink = fault.FlakyLink
	// NodeCrash is the scenario crash-stopping one node at a given time.
	NodeCrash = fault.NodeCrash
	// RandomNodeCrashes crash-stops k seed-chosen nodes at a given time.
	RandomNodeCrashes = fault.RandomNodeCrashes
)

// RetryPolicy bounds the engine's per-transmission retry/backoff loop
// under fault injection.
type RetryPolicy = fabric.RetryPolicy
