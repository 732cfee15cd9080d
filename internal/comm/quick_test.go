package comm

import (
	"math/rand"
	"slices"
	"testing"

	"boolcube/internal/machine"
	"boolcube/internal/simnet"
)

// Property: the exchange all-to-all delivers every block intact for random
// cube sizes, dimension orders, strategies and (heterogeneous) block sizes.
func TestExchangeAllToAllRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(5)
		dims := rng.Perm(n)
		strat := Strategy(rng.Intn(4))
		ports := machine.OnePort
		if rng.Intn(2) == 1 {
			ports = machine.NPort
		}
		e, err := simnet.New(n, machine.Ideal(ports))
		if err != nil {
			t.Fatal(err)
		}
		// Deterministic pseudo-random per-pair size, including 0. Must be a
		// pure function: block() is called concurrently from node program
		// prologues.
		sizeOf := func(s, d uint64) int {
			return int((s*2654435761 + d*40503 + uint64(trial)) % 7)
		}
		block := func(s, d uint64) []float64 {
			return payload(s, d, sizeOf(s, d))
		}
		got, err := AllToAllExchange(e, dims, strat, block)
		if err != nil {
			t.Fatalf("trial %d (n=%d dims=%v strat=%v): %v", trial, n, dims, strat, err)
		}
		N := uint64(e.Nodes())
		for x := uint64(0); x < N; x++ {
			for s := uint64(0); s < N; s++ {
				data, ok := got[x][s]
				if !ok {
					t.Fatalf("trial %d: node %d missing block from %d", trial, x, s)
				}
				checkBlock(t, data, s, x, sizeOf(s, x))
			}
		}
	}
}

// Property: the exchange kernel delivers some-to-all blocks intact for
// random split/exchange dimension partitions, both phase orders and every
// strategy. The sources are the nodes that are zero on the k split
// dimensions, and each sends a block to every node.
func TestSomeToAllRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(4)
		perm := rng.Perm(n)
		k := 1 + rng.Intn(n-1)
		splitDims := perm[:k]
		dims := perm
		splitFirst := rng.Intn(2) == 0
		if !splitFirst {
			dims = append(slices.Clone(perm[k:]), splitDims...)
		}
		strat := Strategy(rng.Intn(4))
		e, err := simnet.New(n, machine.Ideal(machine.OnePort))
		if err != nil {
			t.Fatal(err)
		}
		var splitMask uint64
		for _, d := range splitDims {
			splitMask |= 1 << uint(d)
		}
		size := 1 + rng.Intn(3)
		got := exchangeSparse(t, e, dims, strat,
			func(s, d uint64) bool { return s&splitMask == 0 }, size)
		// Each node receives exactly 2^(n-k) blocks, one per source, each
		// intact.
		want := 1 << uint(n-k)
		for x := uint64(0); x < uint64(e.Nodes()); x++ {
			if len(got[x]) != want {
				t.Fatalf("trial %d (n=%d dims=%v k=%d strat=%v): node %d received %d blocks, want %d",
					trial, n, dims, k, strat, x, len(got[x]), want)
			}
			for s, data := range got[x] {
				if s&splitMask != 0 {
					t.Fatalf("trial %d: node %d got block from non-source %d", trial, x, s)
				}
				checkBlock(t, data, s, x, size)
			}
		}
	}
}

// Property: scatter over any tree kind and root delivers every payload.
func TestOneToAllRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(5)
		kind := TreeKind(rng.Intn(2))
		root := uint64(rng.Intn(1 << uint(n)))
		size := 1 + rng.Intn(5)
		e, err := simnet.New(n, machine.Ideal(machine.NPort))
		if err != nil {
			t.Fatal(err)
		}
		got, err := OneToAll(e, kind, root, func(dst uint64) []float64 {
			return payload(root, dst, size)
		})
		if err != nil {
			t.Fatalf("trial %d (n=%d kind=%v root=%d): %v", trial, n, kind, root, err)
		}
		for x := uint64(0); x < uint64(e.Nodes()); x++ {
			checkBlock(t, got[x], root, x, size)
		}
	}
}
