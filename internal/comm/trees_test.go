package comm

import (
	"math/rand"
	"testing"

	"boolcube/internal/machine"
	"boolcube/internal/simnet"
)

// The SBnT scatter's cost on an ideal one-port machine is bounded below by
// the root's egress: the root transmits (1-1/N)·M bytes serially, one
// message per subtree of its n.
func TestScatterCostStructure(t *testing.T) {
	n, size := 4, 16
	mach := machine.Ideal(machine.OnePort)
	e, err := simnet.New(n, mach)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OneToAll(e, KindSBnT, 0, func(dst uint64) []float64 {
		return payload(0, dst, size)
	}); err != nil {
		t.Fatal(err)
	}
	N := e.Nodes()
	rootEgress := float64((N-1)*size) * mach.Tc // bytes the root must push
	if e.Stats().Time < rootEgress {
		t.Errorf("scatter time %v below root egress bound %v", e.Stats().Time, rootEgress)
	}
	// The root sends exactly n messages (one per subtree).
	var rootSends int64
	for _, l := range e.LinkLoads() {
		if l.From == 0 {
			rootSends++
		}
	}
	if rootSends != int64(n) {
		t.Errorf("root used %d links, want %d", rootSends, n)
	}
}

// Tree scatter payload integrity under random tree kinds, roots, and
// per-destination sizes.
func TestScatterRandomizedSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(5)
		kind := TreeKind(rng.Intn(2))
		root := uint64(rng.Intn(1 << uint(n)))
		sizes := make([]int, 1<<uint(n))
		for i := range sizes {
			sizes[i] = rng.Intn(6)
		}
		e, err := simnet.New(n, machine.Ideal(machine.NPort))
		if err != nil {
			t.Fatal(err)
		}
		got, err := OneToAll(e, kind, root, func(dst uint64) []float64 {
			return payload(root, dst, sizes[dst])
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for x := uint64(0); x < uint64(e.Nodes()); x++ {
			checkBlock(t, got[x], root, x, sizes[x])
		}
	}
}

// BuildTrees returns structurally valid spanning trees for every kind.
func TestBuildTrees(t *testing.T) {
	for _, kind := range []TreeKind{KindRotatedSBTs, KindSBnT} {
		trees := BuildTrees(kind, 5, 9)
		wantCount := 1
		if kind == KindRotatedSBTs {
			wantCount = 5
		}
		if len(trees) != wantCount {
			t.Fatalf("%v: %d trees, want %d", kind, len(trees), wantCount)
		}
		for _, tr := range trees {
			if tr.Root != 9 {
				t.Fatalf("%v: root %d", kind, tr.Root)
			}
			if tr.SubtreeSize(tr.Root) != 32 {
				t.Fatalf("%v: not spanning", kind)
			}
		}
	}
}
