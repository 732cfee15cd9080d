package core

import (
	"fmt"

	"boolcube/internal/bits"
	"boolcube/internal/comm"
	"boolcube/internal/fabric"
	"boolcube/internal/plan"
)

// This file implements Section 7: using the general exchange algorithm for
// permutations other than the transpose — the bit-reversal permutation and
// arbitrary dimension permutations realized by at most ceil(log2 n)
// parallel swappings (Lemma 15). Every exchange step sends what crosses a
// dimension as one message and charges no local copy (comm.SingleMessage):
// Section 7 counts communication steps, not the §8.1 packaging trade-offs.

// PermuteNodes moves each node's payload to perm(node) with the general
// exchange algorithm over the given dimension order. perm must be a
// permutation of the node set.
func PermuteNodes(e fabric.Fabric, perm func(uint64) uint64, dims []int, data [][]float64) ([][]float64, error) {
	N := uint64(e.Nodes())
	if err := checkNodePerm(N, perm, data); err != nil {
		return nil, err
	}
	out := make([][]float64, N)
	err := e.Run(func(nd fabric.Node) {
		id := nd.ID()
		blocks := []comm.Block{{Src: id, Dst: perm(id), Data: data[id]}}
		got := comm.ExchangeBlocks(nd, dims, comm.SingleMessage, blocks)
		for _, b := range got {
			out[id] = append(out[id], b.Data...)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// checkNodePerm reports an error unless data holds one payload per node of
// an N-node cube and perm is a permutation of the node set.
func checkNodePerm(N uint64, perm func(uint64) uint64, data [][]float64) error {
	if len(data) != int(N) {
		return fmt.Errorf("core: %d payloads for %d nodes", len(data), N)
	}
	seen := make([]bool, N)
	for x := uint64(0); x < N; x++ {
		y := perm(x)
		if y >= N || seen[y] {
			return fmt.Errorf("core: perm is not a permutation at %d", x)
		}
		seen[y] = true
	}
	return nil
}

// BitReversalDims returns the general-exchange dimension order pairing
// dimension i with n-1-i (f(i) = i, g(i) = n-1-i of Section 7).
func BitReversalDims(n int) []int {
	var dims []int
	for i := n - 1; i >= n-n/2; i-- {
		dims = append(dims, i, n-1-i)
	}
	if n%2 == 1 {
		dims = append(dims, n/2)
	}
	return dims
}

// BitReversal applies the bit-reversal permutation to per-node payloads via
// the general exchange algorithm. The 0-cube's one node is its own
// reversal.
func BitReversal(e fabric.Fabric, data [][]float64) ([][]float64, error) {
	n := e.Dims()
	return PermuteNodes(e, func(x uint64) uint64 {
		if n == 0 {
			return x
		}
		return bits.Reverse(x, n)
	}, BitReversalDims(n), data)
}

// ApplyDimPerm returns the address obtained by moving the content of
// address bit p to bit pi[p] for every position.
func ApplyDimPerm(x uint64, pi []int) uint64 {
	var y uint64
	for p, target := range pi {
		y |= (x >> uint(p) & 1) << uint(target)
	}
	return y
}

// DimPermSteps decomposes a dimension permutation pi (content at position p
// moves to position pi[p]) into at most ceil(log2 n) parallel swappings
// (Lemma 15). Each step is a list of disjoint position pairs to swap;
// composing the steps in order realizes pi.
func DimPermSteps(pi []int) ([][][2]int, error) {
	n := len(pi)
	seen := make([]bool, n)
	for _, t := range pi {
		if t < 0 || t >= n || seen[t] {
			return nil, fmt.Errorf("core: invalid dimension permutation %v", pi)
		}
		seen[t] = true
	}
	// Pad to a power of two with fixed positions.
	size := 1
	for size < n {
		size *= 2
	}
	cur := make([]int, size) // cur[p] = target of the content now at p
	for p := 0; p < size; p++ {
		if p < n {
			cur[p] = pi[p]
		} else {
			cur[p] = p
		}
	}
	var steps [][][2]int
	// Recursive halving: at each level, swap the contents that must cross
	// between sibling halves, for all sibling pairs at that level at once
	// (they are disjoint, so they form one parallel swapping).
	for half := size / 2; half >= 1; half /= 2 {
		var step [][2]int
		for base := 0; base < size; base += 2 * half {
			lo, hi := base, base+half
			var xs, ys []int
			for p := lo; p < lo+half; p++ {
				if cur[p] >= hi && cur[p] < hi+half {
					xs = append(xs, p)
				}
			}
			for p := hi; p < hi+half; p++ {
				if cur[p] >= lo && cur[p] < lo+half {
					ys = append(ys, p)
				}
			}
			if len(xs) != len(ys) {
				return nil, fmt.Errorf("core: internal decomposition error")
			}
			for i := range xs {
				step = append(step, [2]int{xs[i], ys[i]})
				cur[xs[i]], cur[ys[i]] = cur[ys[i]], cur[xs[i]]
			}
		}
		if len(step) > 0 {
			// Drop pairs involving padded positions if they never touch
			// real ones; keep the rest.
			var kept [][2]int
			for _, pr := range step {
				if pr[0] < n || pr[1] < n {
					kept = append(kept, pr)
				}
			}
			if len(kept) > 0 {
				steps = append(steps, kept)
			}
		}
	}
	return steps, nil
}

// PermuteTwoPhase realizes an arbitrary node permutation by two rounds of
// all-to-all personalized communication (Section 7, citing [21, 20]): each
// node first splits its payload into N equal pieces and scatters them over
// all nodes; each intermediate then forwards the pieces it holds to their
// final destinations. Both rounds are perfectly balanced regardless of the
// permutation, which avoids the hot spots adversarial permutations create
// under direct dimension-order routing. The paper's condition is a payload
// of at least N elements per node; smaller payloads still work here (pieces
// just come out unevenly sized).
func PermuteTwoPhase(e fabric.Fabric, perm func(uint64) uint64, data [][]float64) ([][]float64, error) {
	N := uint64(e.Nodes())
	if err := checkNodePerm(N, perm, data); err != nil {
		return nil, err
	}
	dims := comm.DescendingDims(e.Dims())
	out := make([][]float64, N)
	err := e.Run(func(nd fabric.Node) {
		id := nd.ID()
		// Round 1: scatter my payload in N pieces, piece j to node j.
		blocks := make([]comm.Block, 0, N)
		for j := uint64(0); j < N; j++ {
			off, sz := plan.ShareRange(len(data[id]), int(N), int(j))
			blocks = append(blocks, comm.Block{Src: id, Dst: j, Data: data[id][off : off+sz]})
		}
		got := comm.ExchangeBlocks(nd, dims, comm.SingleMessage, blocks)
		// Round 2: forward each piece to the final destination of its
		// original owner. The piece index at the destination is this
		// node's id, carried implicitly as the round-2 source.
		blocks = blocks[:0]
		for _, b := range got {
			blocks = append(blocks, comm.Block{Src: id, Dst: perm(b.Src), Data: b.Data})
		}
		final := comm.ExchangeBlocks(nd, dims, comm.SingleMessage, blocks)
		// Reassemble pieces in intermediate order (round-2 Src ascending —
		// ExchangeBlocks returns blocks sorted by Src).
		var payload []float64
		for _, b := range final {
			payload = append(payload, b.Data...)
		}
		out[id] = payload
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// swapAddr exchanges the bit pairs of one parallel-swapping step within a
// node address (pairs involving padded positions beyond n are ignored).
func swapAddr(x uint64, step [][2]int, n int) uint64 {
	y := x
	for _, pr := range step {
		a, b := pr[0], pr[1]
		if a >= n || b >= n {
			continue
		}
		ba, bb := x>>uint(a)&1, x>>uint(b)&1
		y = bits.SetBit(y, a, bb)
		y = bits.SetBit(y, b, ba)
	}
	return y
}

// PermuteDims applies a dimension permutation to per-node payloads through
// at most ceil(log2 n) parallel swappings, all inside one simulated run so
// that step times accumulate. Each step routes data between nodes whose
// addresses differ in the swapped bit pairs.
func PermuteDims(e fabric.Fabric, pi []int, data [][]float64) ([][]float64, error) {
	n := e.Dims()
	if len(pi) != n {
		return nil, fmt.Errorf("core: permutation over %d dims on an %d-cube", len(pi), n)
	}
	if len(data) != e.Nodes() {
		return nil, fmt.Errorf("core: %d payloads for %d nodes", len(data), e.Nodes())
	}
	steps, err := DimPermSteps(pi)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, e.Nodes())
	err = e.Run(func(nd fabric.Node) {
		id := nd.ID()
		payload := data[id]
		for _, step := range steps {
			var dims []int
			for _, pr := range step {
				if pr[0] < n {
					dims = append(dims, pr[0])
				}
				if pr[1] < n {
					dims = append(dims, pr[1])
				}
			}
			got := comm.ExchangeBlocks(nd, dims, comm.SingleMessage,
				[]comm.Block{{Src: id, Dst: swapAddr(id, step, n), Data: payload}})
			payload = nil
			for _, b := range got {
				payload = append(payload, b.Data...)
			}
		}
		out[id] = payload
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
