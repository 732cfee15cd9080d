package boolcube

import (
	"boolcube/internal/core"
	"boolcube/internal/simnet"
)

// This file exposes the Section 7 permutation algorithms: bit reversal via
// the general exchange algorithm, and arbitrary dimension permutations
// realized by at most ceil(log2 n) parallel swappings (Lemma 15).

// PermResult is the outcome of a node-payload permutation.
type PermResult struct {
	Data  [][]float64
	Stats Stats
}

// BitReversal sends each node's payload to the node with the bit-reversed
// address, using the general exchange algorithm with dimension pairing
// f(i) = i, g(i) = n-1-i (Section 7).
func BitReversal(n int, mach Machine, data [][]float64) (*PermResult, error) {
	e, err := simnet.New(n, orIPSC(mach))
	if err != nil {
		return nil, err
	}
	out, err := core.BitReversal(e, data)
	if err != nil {
		return nil, err
	}
	return &PermResult{Data: out, Stats: e.Stats()}, nil
}

// PermuteDims applies a dimension permutation — the payload of node
// (x_{n-1}...x_0) moves to the node whose bit pi[p] equals x_p — through
// parallel swappings (Lemma 15).
func PermuteDims(n int, pi []int, mach Machine, data [][]float64) (*PermResult, error) {
	e, err := simnet.New(n, orIPSC(mach))
	if err != nil {
		return nil, err
	}
	out, err := core.PermuteDims(e, pi, data)
	if err != nil {
		return nil, err
	}
	return &PermResult{Data: out, Stats: e.Stats()}, nil
}

// ShufflePermutation returns the dimension permutation realizing sh^k (a k
// step left cyclic shift of the node address).
func ShufflePermutation(n, k int) []int {
	pi := make([]int, n)
	for p := range pi {
		pi[p] = ((p+k)%n + n) % n
	}
	return pi
}

// PermuteTwoPhase realizes an arbitrary node permutation by two rounds of
// all-to-all personalized communication (Section 7): balanced regardless of
// the permutation, at the cost of moving every payload twice. The paper's
// balance guarantee assumes at least N elements per node.
func PermuteTwoPhase(n int, perm func(uint64) uint64, mach Machine, data [][]float64) (*PermResult, error) {
	e, err := simnet.New(n, orIPSC(mach))
	if err != nil {
		return nil, err
	}
	out, err := core.PermuteTwoPhase(e, perm, data)
	if err != nil {
		return nil, err
	}
	return &PermResult{Data: out, Stats: e.Stats()}, nil
}
