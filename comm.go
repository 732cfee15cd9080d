package boolcube

import (
	"fmt"

	"boolcube/internal/comm"
	"boolcube/internal/fabric"
	"boolcube/internal/simnet"
)

// This file exposes the paper's generic personalized-communication
// algorithms (Section 3) as a standalone API: one-to-all, all-to-one,
// all-to-all, and some-to-all / all-to-some personalized communication on a
// simulated cube. Matrix transposition reduces to these; they are equally
// useful on their own (the paper notes they realize arbitrary permutations).

// CommResult is the outcome of a personalized-communication operation:
// Recv[x] maps source nodes to the payload node x received from them. A
// payload may share the slice the caller supplied for it.
type CommResult struct {
	Recv  []map[uint64][]float64
	Stats Stats
}

// Routing selects the routing discipline for all-to-all personalized
// communication.
type Routing int

const (
	// ExchangeRouting is the standard exchange algorithm (one-port
	// optimal within a factor of 2).
	ExchangeRouting Routing = iota
	// SBnTRouting routes each pair along its spanning-balanced-n-tree
	// path (n-port optimal within a factor of 2).
	SBnTRouting
)

// TreeKind selects the spanning-tree family for one-to-all communication.
type TreeKind = comm.TreeKind

// Spanning-tree families.
const (
	// SBTTree routes over one spanning binomial tree.
	SBTTree = comm.KindSBT
	// RotatedSBTTrees splits the data over n rotated SBTs.
	RotatedSBTTrees = comm.KindRotatedSBTs
	// SBnTTree routes over the spanning balanced n-tree.
	SBnTTree = comm.KindSBnT
)

// AllToAllPersonalized performs all-to-all personalized communication on an
// n-cube: block(src, dst) supplies the payload for every ordered pair.
func AllToAllPersonalized(n int, mach Machine, routing Routing, strat Strategy, block func(src, dst uint64) []float64) (*CommResult, error) {
	e, err := simnet.New(n, orIPSC(mach))
	if err != nil {
		return nil, err
	}
	var recv []map[uint64][]float64
	switch routing {
	case ExchangeRouting:
		recv, err = comm.AllToAllExchange(e, comm.DescendingDims(n), strat, block)
	case SBnTRouting:
		recv, err = comm.AllToAllSBnT(e, block)
	default:
		return nil, fmt.Errorf("boolcube: unknown routing %d", routing)
	}
	if err != nil {
		return nil, err
	}
	return &CommResult{Recv: recv, Stats: e.Stats()}, nil
}

// OneToAllPersonalized scatters data(dst) from root to every node over the
// selected spanning-tree family.
func OneToAllPersonalized(n int, mach Machine, kind TreeKind, root uint64, data func(dst uint64) []float64) (*CommResult, error) {
	e, err := simnet.New(n, orIPSC(mach))
	if err != nil {
		return nil, err
	}
	got, err := comm.OneToAll(e, kind, root, data)
	if err != nil {
		return nil, err
	}
	recv := make([]map[uint64][]float64, len(got))
	for x := range got {
		recv[x] = map[uint64][]float64{root: got[x]}
	}
	return &CommResult{Recv: recv, Stats: e.Stats()}, nil
}

// AllToOnePersonalized gathers data(src) from every node at root over a
// spanning binomial tree; Recv is populated only at the root.
func AllToOnePersonalized(n int, mach Machine, root uint64, data func(src uint64) []float64) (*CommResult, error) {
	e, err := simnet.New(n, orIPSC(mach))
	if err != nil {
		return nil, err
	}
	got, err := comm.AllToOne(e, root, data)
	if err != nil {
		return nil, err
	}
	recv := make([]map[uint64][]float64, e.Nodes())
	atRoot := make(map[uint64][]float64)
	for s := range got {
		if got[s] != nil {
			atRoot[uint64(s)] = got[s]
		}
	}
	recv[root] = atRoot
	return &CommResult{Recv: recv, Stats: e.Stats()}, nil
}

// SomeToAllPersonalized performs 2^l-to-2^(l+k) personalized communication
// (Section 3.3): the 2^l nodes with zero bits on the k highest cube
// dimensions are the sources; splitting is performed before the all-to-all
// steps per Theorem 1. block(src, dst) supplies the payload per pair.
func SomeToAllPersonalized(n, k int, mach Machine, strat Strategy, block func(src, dst uint64) []float64) (*CommResult, error) {
	return splitPersonalized(n, k, mach, strat, block, comm.SomeToAll)
}

// AllToSomePersonalized is the reverse: every node holds one block per
// target (the 2^l zero-split-bit nodes); the all-to-all steps run first per
// Theorem 1.
func AllToSomePersonalized(n, k int, mach Machine, strat Strategy, block func(src, dst uint64) []float64) (*CommResult, error) {
	return splitPersonalized(n, k, mach, strat, block, comm.AllToSome)
}

// splitPersonalized runs a k-split operation (comm.SomeToAll or
// comm.AllToSome, in Theorem 1's optimal order) on a fresh n-cube; k = 0
// leaves no split dimension, so either is the plain all-to-all exchange.
func splitPersonalized(n, k int, mach Machine, strat Strategy, block func(src, dst uint64) []float64,
	op func(fabric.Fabric, []int, []int, comm.Strategy, bool, func(src, dst uint64) []float64) ([]map[uint64][]float64, error)) (*CommResult, error) {
	if k < 0 || k > n {
		return nil, fmt.Errorf("boolcube: k = %d out of range [0,%d]", k, n)
	}
	e, err := simnet.New(n, orIPSC(mach))
	if err != nil {
		return nil, err
	}
	splitDims, exchDims := comm.SplitDims(n, k)
	recv, err := op(e, splitDims, exchDims, strat, true, block)
	if err != nil {
		return nil, err
	}
	return &CommResult{Recv: recv, Stats: e.Stats()}, nil
}
