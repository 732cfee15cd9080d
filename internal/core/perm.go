package core

import (
	"fmt"

	"boolcube/internal/comm"
	"boolcube/internal/fabric"
	"boolcube/internal/plan"
)

// This file keeps the one Section 7 permutation no layout pair expresses in
// general: an arbitrary node permutation by two rounds of all-to-all
// personalized communication. Bit reversal and the dimension permutations
// are the plan.Permute registry row.

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
	if len(data) != int(N) {
		return nil, fmt.Errorf("core: %d payloads for %d nodes", len(data), N)
	}
	seen := make([]bool, N)
	for x := uint64(0); x < N; x++ {
		y := perm(x)
		if y >= N || seen[y] {
			return nil, fmt.Errorf("core: perm is not a permutation at %d", x)
		}
		seen[y] = true
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
