package core

import (
	"fmt"
	mathbits "math/bits"
	"testing"

	"boolcube/internal/comm"
	"boolcube/internal/fabric"
	"boolcube/internal/field"
	"boolcube/internal/machine"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
	"boolcube/internal/router"
	"boolcube/internal/simnet"
)

// permuteProgram is Section 7's general exchange on whole node payloads:
// each step is one exchange over its (higher, lower) dimension pairs, in
// which every node sends what it holds to its own address with those bit
// pairs swapped, what crosses a dimension as one message
// (comm.SingleMessage). The node permutation leaves local storage as it is.
func permuteProgram(d *matrix.Dist, after field.Layout, mach machine.Params, steps [][][2]int) (*Result, error) {
	e, err := fabric.New("", d.Layout.NBits(), mach)
	if err != nil {
		return nil, err
	}
	loc := make([][]float64, e.Nodes())
	err = e.Run(func(nd fabric.Node) {
		id, payload := nd.ID(), d.Local[nd.ID()]
		for _, step := range steps {
			to, dims := id, []int(nil)
			for _, pr := range step {
				if hi, lo := uint(pr[0]), uint(pr[1]); to>>hi&1 != to>>lo&1 {
					to ^= 1<<hi | 1<<lo
				}
				dims = append(dims, pr[0], pr[1])
			}
			payload = comm.ExchangeBlocks(nd, dims, comm.SingleMessage, []comm.Block{{Src: id, Dst: to, Data: payload}})[0].Data
		}
		loc[id] = payload
	})
	if err != nil {
		return nil, err
	}
	return &Result{Dist: &matrix.Dist{Layout: after, Local: loc}, Stats: e.Stats()}, nil
}

// dimPermOfPair reads the dimension permutation a pair realizes off the unit
// addresses: node 2^p's data goes to node 2^pi[p].
func dimPermOfPair(d *matrix.Dist, after field.Layout) ([]int, error) {
	mv, err := plan.NewMoves(d.Layout, after, false)
	if err != nil {
		return nil, err
	}
	pi := make([]int, d.Layout.NBits())
	for p := range pi {
		pi[p] = p
		if ds := mv.Destinations(1 << uint(p)); len(ds) == 1 {
			pi[p] = mathbits.TrailingZeros64(ds[0])
		}
	}
	return pi, nil
}

// lemma15Oracle is the permute row's published program: the dimension
// permutation the pair realizes as plan.DimPermSteps' parallel swappings
// (Lemma 15), each one exchange of permuteProgram. On plantest.Pair's bit
// reversal at even n that is §7's one-exchange program, pairing dimension i
// with n-1-i, highest pair first.
func lemma15Oracle(d *matrix.Dist, after field.Layout, mach machine.Params) (*Result, error) {
	pi, err := dimPermOfPair(d, after)
	if err != nil {
		return nil, err
	}
	steps, err := plan.DimPermSteps(pi)
	if err != nil {
		return nil, err
	}
	return permuteProgram(d, after, mach, steps)
}

// twoPhaseOracle is the permute-two-phase row's published program:
// twoPhaseProgram on the dimension permutation the pair realizes.
func twoPhaseOracle(d *matrix.Dist, after field.Layout, mach machine.Params) (*Result, error) {
	pi, err := dimPermOfPair(d, after)
	if err != nil {
		return nil, err
	}
	e, err := fabric.New("", d.Layout.NBits(), mach)
	if err != nil {
		return nil, err
	}
	loc, err := twoPhaseProgram(e, func(x uint64) uint64 { return plan.ApplyDimPerm(x, pi) }, d.Local)
	if err != nil {
		return nil, err
	}
	return &Result{Dist: &matrix.Dist{Layout: after, Local: loc}, Stats: e.Stats()}, nil
}

// twoPhaseProgram realizes a node permutation by two rounds of all-to-all
// personalized communication (Section 7, citing [21, 20]): each node first
// splits its payload into N equal pieces and scatters them over all nodes;
// each intermediate then forwards the pieces it holds to their final
// destinations. The paper's condition is a payload of at least N elements
// per node; smaller payloads still work here (pieces just come out unevenly
// sized).
func twoPhaseProgram(e fabric.Fabric, perm func(uint64) uint64, data [][]float64) ([][]float64, error) {
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

// Below N elements per node the spread layout has one processor bit per
// local-address bit, so element k of every node meets at node k, as in the
// published program — a payload no TestContract cell has. The row delivers
// exactly and costs what the program does.
func TestPermuteTwoPhaseSmallPayload(t *testing.T) {
	before := field.OneDimConsecutiveRows(3, 1, 3, field.Binary) // 2 elements on each of 8 nodes
	after, err := field.PermutedDims(before, []int{1, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	mach := machine.Ideal(machine.OnePort)
	pl, err := plan.Compile(plan.PermuteTwoPhase, before, after, plan.Config{Machine: mach})
	if err != nil {
		t.Fatal(err)
	}
	if spread := pl.Phases()[0].Moves.After(); spread.NBits() != 1 {
		t.Errorf("spread layout %s has %d processor bits, want 1", spread, spread.NBits())
	}
	m := matrix.NewIota(3, 1)
	res, err := Execute(pl, matrix.Scatter(m, before), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Dist.Verify(m); err != nil {
		t.Fatal(err)
	}
	ref, err := twoPhaseOracle(matrix.Scatter(m, before), after, mach)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats != res.Stats {
		t.Errorf("Stats diverge from the published program:\nrow     %+v\nprogram %+v", res.Stats, ref.Stats)
	}
}

// The two-phase row balances link load for permutations that are
// adversarial to dimension-order routing: the "matrix transpose"
// permutation tr(x) = sh^(n/2) funnels traffic through the middle of the
// cube under e-cube, but the two rounds keep every link near the average.
func TestPermuteTwoPhaseBalanced(t *testing.T) {
	n := 6
	N := 1 << uint(n)
	before := field.OneDimConsecutiveRows(n, n, n, field.Binary) // N elements per node
	pi := make([]int, n)
	for p := range pi {
		pi[p] = (p + n/2) % n
	}
	after, err := field.PermutedDims(before, pi)
	if err != nil {
		t.Fatal(err)
	}
	mach := machine.Ideal(machine.NPort)
	m := matrix.NewIota(n, n)
	two, err := Transpose(plan.PermuteTwoPhase, matrix.Scatter(m, before), after, Options{Machine: mach})
	if err != nil {
		t.Fatal(err)
	}
	if err := two.Dist.Verify(m); err != nil {
		t.Fatal(err)
	}
	// Direct e-cube routing of whole payloads.
	eDirect, err := simnet.New(n, mach)
	if err != nil {
		t.Fatal(err)
	}
	var flows []router.Flow
	for x := uint64(0); x < uint64(N); x++ {
		y := plan.ApplyDimPerm(x, pi)
		flows = append(flows, router.Flow{Src: x, Dst: y, Dims: router.Ecube(x, y, n), Data: make([]float64, N)})
	}
	if _, _, err := router.RunRecover(eDirect, flows); err != nil {
		t.Fatal(err)
	}
	if direct := eDirect.Stats().MaxLinkBytes; two.Stats.MaxLinkBytes >= direct {
		t.Errorf("two-phase max link load %d not below direct e-cube %d", two.Stats.MaxLinkBytes, direct)
	}
}
