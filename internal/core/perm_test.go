package core

import (
	"math/rand"
	"testing"

	"boolcube/internal/bits"
	"boolcube/internal/comm"
	"boolcube/internal/machine"
	"boolcube/internal/router"
	"boolcube/internal/simnet"
)

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

func TestBitReversal(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5} {
		e := permEngine(t, n)
		N := e.Nodes()
		got, err := BitReversal(e, nodePayloads(N))
		if err != nil {
			t.Fatal(err)
		}
		for x := 0; x < N; x++ {
			src := bits.Reverse(uint64(x), n)
			if len(got[x]) != 2 || got[x][0] != float64(src) {
				t.Fatalf("n=%d: node %b holds %v, want payload of %b", n, x, got[x], src)
			}
		}
	}
}

func TestBitReversalDims(t *testing.T) {
	dims := BitReversalDims(6)
	want := []int{5, 0, 4, 1, 3, 2}
	if len(dims) != 6 {
		t.Fatalf("dims = %v", dims)
	}
	for i := range want {
		if dims[i] != want[i] {
			t.Fatalf("dims = %v, want %v", dims, want)
		}
	}
	dims = BitReversalDims(5)
	if len(dims) != 5 || dims[4] != 2 {
		t.Fatalf("odd-n dims = %v", dims)
	}
}

func TestPermuteNodesRejectsNonPermutation(t *testing.T) {
	e := permEngine(t, 2)
	_, err := PermuteNodes(e, func(x uint64) uint64 { return 0 },
		comm.DescendingDims(2), nodePayloads(4))
	if err == nil {
		t.Error("constant map accepted as permutation")
	}
}

func TestApplyDimPerm(t *testing.T) {
	// pi moves content of bit 0 to bit 2, bit 1 to bit 0, bit 2 to bit 1.
	pi := []int{2, 0, 1}
	if got := ApplyDimPerm(0b001, pi); got != 0b100 {
		t.Errorf("ApplyDimPerm(001) = %03b", got)
	}
	if got := ApplyDimPerm(0b011, pi); got != 0b101 {
		t.Errorf("ApplyDimPerm(011) = %03b", got)
	}
}

func TestDimPermStepsRealizePermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 3, 4, 5, 6, 8} {
		for trial := 0; trial < 20; trial++ {
			pi := rng.Perm(n)
			steps, err := DimPermSteps(pi)
			if err != nil {
				t.Fatal(err)
			}
			// Lemma 15: at most ceil(log2 n) steps (after padding, log2 of
			// the padded size).
			maxSteps := 0
			for s := 1; s < n; s *= 2 {
				maxSteps++
			}
			if len(steps) > maxSteps {
				t.Fatalf("n=%d pi=%v: %d steps > ceil(log2 n) = %d", n, pi, len(steps), maxSteps)
			}
			// Compose the steps on positions: content at p must end at pi[p].
			pos := make([]int, n) // pos[p] = current position of content born at p
			for p := range pos {
				pos[p] = p
			}
			for _, step := range steps {
				cur := make(map[int]int) // position -> content id
				for p, at := range pos {
					cur[at] = p
				}
				for _, pr := range step {
					a, b := pr[0], pr[1]
					ca, okA := cur[a]
					cb, okB := cur[b]
					if okA {
						pos[ca] = b
					}
					if okB {
						pos[cb] = a
					}
				}
			}
			for p := range pos {
				if pos[p] != pi[p] {
					t.Fatalf("n=%d pi=%v: content %d ended at %d", n, pi, p, pos[p])
				}
			}
			// Each step's pairs must be disjoint (a parallel swapping).
			for _, step := range steps {
				used := make(map[int]bool)
				for _, pr := range step {
					if used[pr[0]] || used[pr[1]] || pr[0] == pr[1] {
						t.Fatalf("n=%d pi=%v: step %v not a parallel swapping", n, pi, step)
					}
					used[pr[0]] = true
					used[pr[1]] = true
				}
			}
		}
	}
}

func TestPermuteDimsData(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 3, 4, 5} {
		for trial := 0; trial < 5; trial++ {
			pi := rng.Perm(n)
			e := permEngine(t, n)
			N := e.Nodes()
			got, err := PermuteDims(e, pi, nodePayloads(N))
			if err != nil {
				t.Fatal(err)
			}
			for x := uint64(0); x < uint64(N); x++ {
				dst := ApplyDimPerm(x, pi)
				if len(got[dst]) != 2 || got[dst][0] != float64(x) {
					t.Fatalf("n=%d pi=%v: node %b holds %v, want payload of %b",
						n, pi, dst, got[dst], x)
				}
			}
		}
	}
}

// Shuffle (sh^k) is a dimension permutation: content of bit p moves to bit
// (p+k) mod n. Check PermuteDims realizes it.
func TestPermuteDimsShuffle(t *testing.T) {
	n, k := 4, 1
	pi := make([]int, n)
	for p := range pi {
		pi[p] = (p + k) % n
	}
	e := permEngine(t, n)
	got, err := PermuteDims(e, pi, nodePayloads(e.Nodes()))
	if err != nil {
		t.Fatal(err)
	}
	for x := uint64(0); x < uint64(e.Nodes()); x++ {
		dst := bits.RotL(x, k, n)
		if got[dst][0] != float64(x) {
			t.Fatalf("shuffle: node %b holds %v, want payload of %b", dst, got[dst], x)
		}
	}
}

func TestPermuteDimsRejectsBadInput(t *testing.T) {
	e := permEngine(t, 3)
	if _, err := PermuteDims(e, []int{0, 1}, nodePayloads(8)); err == nil {
		t.Error("wrong-length permutation accepted")
	}
	if _, err := PermuteDims(e, []int{0, 0, 1}, nodePayloads(8)); err == nil {
		t.Error("non-permutation accepted")
	}
	if _, err := PermuteDims(e, []int{0, 1, 2}, nodePayloads(4)); err == nil {
		t.Error("wrong payload count accepted")
	}
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
