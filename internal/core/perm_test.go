package core

import (
	"fmt"
	mathbits "math/bits"
	"slices"
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
	n := d.Layout.NBits()
	e, err := fabric.New("", n, mach)
	if err != nil {
		return nil, err
	}
	// Lower every step host-side: node x's payload goes to to[x], and the
	// payload sizes move with it.
	type round struct {
		s  *comm.Schedule
		to []uint64
	}
	rounds := make([]round, len(steps))
	size := make([]int, e.Nodes())
	for x := range size {
		size[x] = len(d.Local[x])
	}
	for r, step := range steps {
		to, dims := make([]uint64, e.Nodes()), []int(nil)
		for _, pr := range step {
			dims = append(dims, pr[0], pr[1])
		}
		for x := range to {
			to[x] = uint64(x)
			for _, pr := range step {
				if hi, lo := uint(pr[0]), uint(pr[1]); to[x]>>hi&1 != to[x]>>lo&1 {
					to[x] ^= 1<<hi | 1<<lo
				}
			}
		}
		s, err := comm.Lower(n, dims, comm.SingleMessage, mach, func(x uint64) []fabric.Part {
			return []fabric.Part{{Src: x, Dst: to[x], N: size[x]}}
		})
		if err != nil {
			return nil, err
		}
		rounds[r] = round{s, to}
		next := make([]int, len(size))
		for x, y := range to {
			next[y] = size[x]
		}
		size = next
	}
	loc := make([][]float64, e.Nodes())
	err = e.Run(func(nd fabric.Node) {
		id, payload := nd.ID(), d.Local[nd.ID()]
		for _, r := range rounds {
			parts := []fabric.Part{{Src: id, Dst: r.to[id], N: len(payload)}}
			for _, got := range playRound(nd, r.s, parts, [][]float64{payload}) {
				payload = got
			}
		}
		loc[id] = payload
	})
	if err != nil {
		return nil, err
	}
	return &Result{Dist: &matrix.Dist{Layout: after, Local: loc}, Stats: e.Stats()}, nil
}

// playRound plays node nd's part of the lowered exchange s with the input
// blocks parts, whose payloads are data, and returns what it delivers by
// source, copied out of the engine's pooled buffers.
func playRound(nd fabric.Node, s *comm.Schedule, parts []fabric.Part, data [][]float64) map[uint64][]float64 {
	in := fabric.Msg{Parts: parts}
	for _, b := range data {
		in.Data = append(in.Data, b...)
	}
	got := make(map[uint64][]float64, len(parts))
	s.Run(nd, in, func(_ int, p fabric.Part, b []float64, _ []uint64) { got[p.Src] = slices.Clone(b) })
	return got
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
	// Both rounds' blocks are fixed by the payload sizes: round 1 sends
	// piece j of x's payload to node j; round 2 forwards, from every
	// intermediate i, the piece each source s left there to perm(s).
	dims := comm.DescendingDims(e.Dims())
	round1 := make([][]fabric.Part, N)
	round2 := make([][]fabric.Part, N)
	for x := range N {
		for y := range N {
			_, sz := plan.ShareRange(len(data[x]), int(N), int(y))
			round1[x] = append(round1[x], fabric.Part{Src: x, Dst: y, N: sz})
			// Node x holds y's piece x after round 1.
			_, sz = plan.ShareRange(len(data[y]), int(N), int(x))
			round2[x] = append(round2[x], fabric.Part{Src: x, Dst: perm(y), N: sz})
		}
	}
	var scheds [2]*comm.Schedule
	for r, parts := range [2][][]fabric.Part{round1, round2} {
		s, err := comm.Lower(e.Dims(), dims, comm.SingleMessage, e.Params(), func(x uint64) []fabric.Part { return parts[x] })
		if err != nil {
			return nil, err
		}
		scheds[r] = s
	}
	out := make([][]float64, N)
	err := e.Run(func(nd fabric.Node) {
		id := nd.ID()
		// Round 1: scatter my payload in N pieces, piece j to node j.
		pieces := make([][]float64, N)
		for j := range N {
			off, sz := plan.ShareRange(len(data[id]), int(N), int(j))
			pieces[j] = data[id][off : off+sz]
		}
		got := playRound(nd, scheds[0], slices.Clone(round1[id]), pieces)
		// Round 2: forward each piece to the final destination of its
		// original owner, in source order. The piece index at the
		// destination is this node's id, carried implicitly as the round-2
		// source.
		for s := range N {
			pieces[s] = got[s]
		}
		final := playRound(nd, scheds[1], slices.Clone(round2[id]), pieces)
		// Reassemble pieces in intermediate order (round-2 Src ascending).
		var payload []float64
		for i := range N {
			payload = append(payload, final[i]...)
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
