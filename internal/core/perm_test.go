package core

import (
	mathbits "math/bits"
	"math/rand"
	"testing"

	"boolcube/internal/bits"
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

// lemma15Oracle is the permute row's published program: the dimension
// permutation the pair realizes (node 2^p's destination is 2^pi[p]) as
// plan.DimPermSteps' parallel swappings (Lemma 15), each one exchange of
// permuteProgram. On plantest.Pair's bit reversal at even n that is §7's
// one-exchange program, pairing dimension i with n-1-i, highest pair first.
func lemma15Oracle(d *matrix.Dist, after field.Layout, mach machine.Params) (*Result, error) {
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
	steps, err := plan.DimPermSteps(pi)
	if err != nil {
		return nil, err
	}
	return permuteProgram(d, after, mach, steps)
}

func permEngine(t *testing.T, n int) *simnet.Engine {
	t.Helper()
	e, err := simnet.New(n, machine.Ideal(machine.OnePort))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func nodePayloads(N int) [][]float64 {
	data := make([][]float64, N)
	for i := range data {
		data[i] = []float64{float64(i), float64(i) + 0.5}
	}
	return data
}

func TestPermuteTwoPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{2, 3, 4} {
		e := permEngine(t, n)
		N := e.Nodes()
		pi := rng.Perm(N)
		perm := func(x uint64) uint64 { return uint64(pi[x]) }
		// Payload of N elements per node, the paper's minimum for balance.
		data := make([][]float64, N)
		for i := range data {
			data[i] = make([]float64, N)
			for j := range data[i] {
				data[i][j] = float64(i*N + j)
			}
		}
		got, err := PermuteTwoPhase(e, perm, data)
		if err != nil {
			t.Fatal(err)
		}
		for x := 0; x < N; x++ {
			dst := pi[x]
			if len(got[dst]) != N {
				t.Fatalf("n=%d: node %d holds %d elems", n, dst, len(got[dst]))
			}
			for j, v := range got[dst] {
				if v != float64(x*N+j) {
					t.Fatalf("n=%d: node %d elem %d = %v, want %v", n, dst, j, v, float64(x*N+j))
				}
			}
		}
	}
}

func TestPermuteTwoPhaseSmallPayload(t *testing.T) {
	// Payloads below N elements still deliver correctly.
	e := permEngine(t, 3)
	perm := func(x uint64) uint64 { return x ^ 7 } // complement permutation
	got, err := PermuteTwoPhase(e, perm, nodePayloads(8))
	if err != nil {
		t.Fatal(err)
	}
	for x := uint64(0); x < 8; x++ {
		if got[x^7][0] != float64(x) {
			t.Fatalf("node %d holds %v", x^7, got[x^7])
		}
	}
}

func TestPermuteTwoPhaseRejectsNonPermutation(t *testing.T) {
	e := permEngine(t, 2)
	if _, err := PermuteTwoPhase(e, func(x uint64) uint64 { return 0 },
		nodePayloads(4)); err == nil {
		t.Error("constant map accepted")
	}
}

// The two-phase algorithm balances link load for permutations that are
// adversarial to dimension-order routing: the "matrix transpose"
// permutation tr(x) funnels traffic through the middle of the cube under
// e-cube, but the two-phase realization keeps every link near the average.
func TestPermuteTwoPhaseBalanced(t *testing.T) {
	n := 6
	N := 1 << uint(n)
	elems := N                                                    // one element per destination pair, N per node
	perm := func(x uint64) uint64 { return bits.RotL(x, n/2, n) } // tr(x)

	mkData := func() [][]float64 {
		data := make([][]float64, N)
		for i := range data {
			data[i] = make([]float64, elems)
		}
		return data
	}
	// Direct e-cube routing of whole payloads.
	eDirect, err := simnet.New(n, machine.Ideal(machine.NPort))
	if err != nil {
		t.Fatal(err)
	}
	var flows []router.Flow
	for x := uint64(0); x < uint64(N); x++ {
		flows = append(flows, router.Flow{
			Src: x, Dst: perm(x), Dims: router.Ecube(x, perm(x), n),
			Data: make([]float64, elems),
		})
	}
	if _, err := router.Run(eDirect, flows); err != nil {
		t.Fatal(err)
	}
	// Two-phase.
	eTwo, err := simnet.New(n, machine.Ideal(machine.NPort))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PermuteTwoPhase(eTwo, perm, mkData()); err != nil {
		t.Fatal(err)
	}
	direct := eDirect.Stats().MaxLinkBytes
	two := eTwo.Stats().MaxLinkBytes
	if two >= direct {
		t.Errorf("two-phase max link load %d not below direct e-cube %d", two, direct)
	}
}
