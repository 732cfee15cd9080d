package plan

import "fmt"

// Algorithm selects a transposition algorithm from the paper.
type Algorithm int

const (
	// Exchange is the standard exchange algorithm (Section 5), scanning
	// cube dimensions from highest to lowest; optimal within 2x for
	// one-port all-to-all transposition. For square two-dimensional layouts
	// this is exactly the Single Path Transpose as a special case of the
	// standard exchange algorithm (Section 6.1.1); for one-dimensional
	// layouts it is the all-to-all personalized transpose of Section 5 with
	// the configured buffering Strategy.
	Exchange Algorithm = iota
	// ExchangeSPTOrder is the exchange algorithm with paired row/column
	// dimension order (row dimension then paired column dimension, highest
	// pairs first); on pairwise two-dimensional transposes it follows the
	// Single Path Transpose route for every node.
	ExchangeSPTOrder
	// SPT is the Single Path Transpose (Section 6.1.1): one pipelined
	// edge-disjoint path from each node to its transpose partner.
	SPT
	// DPT is the Dual Paths Transpose (Section 6.1.2): two directed
	// edge-disjoint paths per node, halving the transfer time.
	DPT
	// MPT is the Multiple Paths Transpose (Section 6.1.3 / Theorem 2):
	// 2H(x) edge-disjoint paths per node with the (2, 2H)-disjoint
	// schedule; communication-optimal within a factor of two with n-port
	// communication.
	MPT
	// SBnT routes every (source, destination) payload along its spanning
	// balanced n-tree path (Section 5; optimal within a factor of two for
	// n-port all-to-all personalized communication).
	SBnT
	// RoutingLogic sends every payload straight through dimension-order
	// (e-cube) routing, as in the iPSC "routing logic" and Connection
	// Machine measurements (Sections 8.2.1-2).
	RoutingLogic
	// MixedNaive transposes mixed binary/Gray encodings via separate code
	// conversions plus transpose: 2n-2 routing steps (Section 6.3).
	MixedNaive
	// MixedCombined folds the conversions into the transpose: n routing
	// steps (Section 6.3).
	MixedCombined
	// ParallelPaths splits each pair's payload over the n node-disjoint
	// paths of Saad & Schultz (the parallel-paths property quoted in
	// Section 2) — per-pair disjoint but globally colliding; the ablation
	// baseline showing why the paper builds the globally edge-disjoint MPT
	// schedule instead.
	ParallelPaths
	// Convert1, Convert2 and Convert3 are the Section 6.2 transpositions
	// with change of assignment scheme — two-dimensional consecutive
	// storage into two-dimensional cyclic storage of the transposed matrix
	// — as three-phase exchange plans. Algorithm 1 converts rows, then
	// columns, then transposes over paired dimensions: 2n exchange steps.
	// Algorithm 2 transposes locally, converts rows and columns in n steps
	// and transposes the N small local matrices; algorithm 3 pairs the
	// dimensions so no pre-transpose is needed, leaving a local shuffle
	// when p > 2nr. All three require nr == nc, p >= 2nr and q >= 2nc.
	Convert1
	Convert2
	Convert3
	// ConvertEncoding re-embeds a matrix under a layout of the same shape
	// and partitioning in another encoding (binary <-> Gray), without
	// transposing it (Sections 2 and 6.3): a node permutation routed most
	// significant differing dimension first, at most n-1 hops per node.
	ConvertEncoding
	// Permute moves every node's data to the node whose address is its own
	// with the bits permuted — bit reversal, the shuffles, any dimension
	// permutation — without transposing (Section 7): the general exchange
	// algorithm over the permutation's dimension pairs, one phase for an
	// involution and Lemma 15's at most ceil(log2 n) parallel swappings
	// otherwise. field.PermutedDims builds the after layout.
	Permute
	// PermuteTwoPhase realizes the same pairs as Permute by Section 7's
	// generic algorithm for any permutation, the transpose included: two
	// rounds of all-to-all personalized communication, balanced whatever
	// the permutation, through a layout that spreads every node's data
	// over all nodes.
	PermuteTwoPhase
	// Auto is not an algorithm of its own: Compile compiles the applicable
	// candidates (field.Classify decides which) and returns the one whose
	// compiled traffic prices cheapest (see Plan.Price).
	Auto
)

// spec is one registry row: everything the system knows about an algorithm.
// The single table powers String, ParseAlgorithm, Algorithms and Compile's
// dispatch — replacing the switch/list/switch triplicate that used to live
// in the public package.
type spec struct {
	name    string
	compile func(*Plan) error
	// transposes: the after layout describes the transposed matrix.
	transposes bool
}

var specs [Auto + 1]spec

// init fills the registry: a package-level initializer would be an
// initialization cycle, since compilers read their own row back
// (Transposes).
func init() {
	specs = [...]spec{
		Exchange:         {"exchange", compileExchange, true},
		ExchangeSPTOrder: {"exchange-spt-order", compileExchangeSPTOrder, true},
		SPT:              {"spt", compileSPT, true},
		DPT:              {"dpt", compileDPT, true},
		MPT:              {"mpt", compileMPT, true},
		SBnT:             {"sbnt", compileSBnT, true},
		RoutingLogic:     {"routing-logic", compileRoutingLogic, true},
		MixedNaive:       {"mixed-naive", compileMixedNaive, true},
		MixedCombined:    {"mixed-combined", compileMixedCombined, true},
		ParallelPaths:    {"parallel-paths", compileParallelPaths, true},
		Convert1:         {"convert-1", compileConvert, true},
		Convert2:         {"convert-2", compileConvert, true},
		Convert3:         {"convert-3", compileConvert, true},
		ConvertEncoding:  {"convert-encoding", compileConvertEncoding, false},
		Permute:          {"permute", compilePermute, false},
		PermuteTwoPhase:  {"permute-two-phase", compilePermuteTwoPhase, false},
		Auto:             {"auto", nil, true}, // Compile compiles its candidates instead
	}
}

func (a Algorithm) String() string {
	if a >= 0 && int(a) < len(specs) {
		return specs[a].name
	}
	return fmt.Sprintf("algorithm(%d)", int(a))
}

// Transposes reports whether the algorithm's after layout describes the
// transposed matrix — true for every row but ConvertEncoding and the two
// permutation rows, which re-embed the same matrix.
func (a Algorithm) Transposes() bool {
	return a >= 0 && int(a) < len(specs) && specs[a].transposes
}

// Algorithms lists every concrete algorithm (excluding Auto), for sweeps, in
// enum order.
func Algorithms() []Algorithm {
	out := make([]Algorithm, 0, len(specs)-1)
	for a := range specs {
		if alg := Algorithm(a); alg != Auto {
			out = append(out, alg)
		}
	}
	return out
}

// ParseAlgorithm maps an algorithm name (as produced by String, e.g.
// "mpt" or "exchange-spt-order") back to the Algorithm, including "auto".
func ParseAlgorithm(s string) (Algorithm, error) {
	for a, sp := range specs {
		if sp.name == s {
			return Algorithm(a), nil
		}
	}
	return 0, fmt.Errorf("plan: unknown algorithm %q", s)
}
