package remap

import (
	"math/bits"
	"reflect"
	"testing"

	"boolcube/internal/router"
)

// every lists all nodes of an n-cube: the active set when every node
// carries residual traffic.
func every(n int) []uint64 {
	out := make([]uint64, 1<<uint(n))
	for x := range out {
		out[x] = uint64(x)
	}
	return out
}

func TestIdentityWhenNoActiveNodeDead(t *testing.T) {
	// Node 5 is dead but carries no residual traffic: nothing to relabel.
	a, err := Plan(3, []uint64{5}, []uint64{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.Mode != Identity || a.Degraded() {
		t.Fatalf("mode = %v, want identity", a.Mode)
	}
	for x := uint64(0); x < 8; x++ {
		if a.Phys(x) != x {
			t.Fatalf("Phys(%d) = %d under identity", x, a.Phys(x))
		}
	}
}

func TestSpareSubstitution(t *testing.T) {
	// Dead node 3 carries traffic; nodes 4..7 are idle spares. The lowest
	// spare stands in, everyone else keeps their identity host.
	a, err := Plan(3, []uint64{3}, []uint64{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.Mode != Spare {
		t.Fatalf("mode = %v, want spare", a.Mode)
	}
	if got := a.Phys(3); got != 4 {
		t.Fatalf("Phys(3) = %d, want the first spare 4", got)
	}
	for _, x := range []uint64{0, 1, 2} {
		if a.Phys(x) != x {
			t.Fatalf("Phys(%d) = %d, want identity for live active nodes", x, a.Phys(x))
		}
	}
	if r := router.Ecube(a.Phys(0), a.Phys(3), a.N); len(r) == 0 {
		t.Fatalf("route 0->3 empty; want a route to the spare")
	}
}

func TestFoldWhenEveryNodeActive(t *testing.T) {
	// All 8 nodes carry traffic, node 5 = 101b is dead: no spare exists, so
	// the cube folds along dimension 2 onto the half without node 5.
	a, err := Plan(3, []uint64{5}, every(3))
	if err != nil {
		t.Fatal(err)
	}
	if a.Mode != Fold {
		t.Fatalf("mode = %v, want fold", a.Mode)
	}
	if !reflect.DeepEqual(a.FoldDims, []int{2}) {
		t.Fatalf("FoldDims = %v, want [2]", a.FoldDims)
	}
	for x := uint64(0); x < 8; x++ {
		px := a.Phys(x)
		if px == 5 {
			t.Fatalf("Phys(%d) = 5, the dead node", x)
		}
		if px != x&^4 {
			t.Fatalf("Phys(%d) = %d, want %d (bit 2 cleared)", x, px, x&^4)
		}
	}
	// Endpoints that coincide under the fold route host-side.
	if r := router.Ecube(a.Phys(1), a.Phys(5), a.N); len(r) != 0 {
		t.Fatalf("route 1->5 = %v, want empty (both map to node 1)", r)
	}
}

func TestFoldTwoDeadNodes(t *testing.T) {
	a, err := Plan(3, []uint64{2, 7}, every(3))
	if err != nil {
		t.Fatal(err)
	}
	if a.Mode != Fold {
		t.Fatalf("mode = %v, want fold", a.Mode)
	}
	dead := map[uint64]bool{2: true, 7: true}
	for x := uint64(0); x < 8; x++ {
		if dead[a.Phys(x)] {
			t.Fatalf("Phys(%d) = %d is dead", x, a.Phys(x))
		}
	}
}

func TestFoldPreservesAdjacency(t *testing.T) {
	a, err := Plan(4, []uint64{1, 6, 11}, every(4))
	if err != nil {
		t.Fatal(err)
	}
	if a.Mode != Fold {
		t.Fatalf("mode = %v, want fold", a.Mode)
	}
	for x := uint64(0); x < 16; x++ {
		for d := 0; d < 4; d++ {
			y := x ^ 1<<uint(d)
			px, py := a.Phys(x), a.Phys(y)
			if px != py && bits.OnesCount64(px^py) != 1 {
				t.Fatalf("fold broke adjacency: nodes %d,%d map to %d,%d", x, y, px, py)
			}
		}
	}
}

func TestAllDeadRejected(t *testing.T) {
	if _, err := Plan(1, []uint64{0, 1}, every(1)); err == nil {
		t.Fatalf("Plan with no survivors must fail")
	}
}

func TestOutOfRangeRejected(t *testing.T) {
	if _, err := Plan(2, []uint64{4}, every(2)); err == nil {
		t.Fatalf("dead node beyond the cube must be rejected")
	}
	if _, err := Plan(2, nil, []uint64{9}); err == nil {
		t.Fatalf("active node beyond the cube must be rejected")
	}
}

func TestPlanDeterministic(t *testing.T) {
	for _, tc := range []struct {
		dead, active []uint64
	}{
		{[]uint64{3}, []uint64{0, 1, 2, 3}},
		{[]uint64{5}, every(3)},
		{[]uint64{2, 7}, every(3)},
	} {
		a, err := Plan(3, tc.dead, tc.active)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Plan(3, tc.dead, tc.active)
		if err != nil {
			t.Fatal(err)
		}
		for x := uint64(0); x < 8; x++ {
			if a.Mode != b.Mode || a.Phys(x) != b.Phys(x) {
				t.Fatalf("dead %v: Plan not deterministic at node %d: %d (mode %d) vs %d (mode %d)",
					tc.dead, x, a.Phys(x), a.Mode, b.Phys(x), b.Mode)
			}
		}
	}
}

// FuzzRemap checks the assignment invariants over arbitrary cubes, dead
// sets and active sets: every active node lands on a live host, mappings
// stay in range and idempotent, planning is deterministic, and a fold never
// breaks cube adjacency.
func FuzzRemap(f *testing.F) {
	f.Add(uint(3), uint64(0b00100000), uint64(0))          // one dead, all active: fold
	f.Add(uint(3), uint64(0b00001000), uint64(0b00001111)) // dead + idle spares
	f.Add(uint(3), uint64(0b10000100), uint64(0))          // two dead: double fold
	f.Add(uint(4), uint64(0x0842), uint64(0xffff))         // three dead, all active
	f.Add(uint(1), uint64(0b11), uint64(0))                // all dead: must fail
	f.Add(uint(0), uint64(0), uint64(0))                   // trivial cube
	f.Fuzz(func(t *testing.T, nSeed uint, deadMask, activeMask uint64) {
		n := int(nSeed % 7) // up to 64 nodes: masks cover the whole cube
		N := uint64(1) << uint(n)
		deadMask &= 1<<N - 1
		activeMask &= 1<<N - 1
		var dead, active []uint64
		for x := uint64(0); x < N; x++ {
			if deadMask>>x&1 == 1 {
				dead = append(dead, x)
			}
			if activeMask>>x&1 == 1 {
				active = append(active, x)
			}
		}
		if activeMask == 0 {
			active = every(n)
		}

		a, err := Plan(n, dead, active)
		if deadMask == 1<<N-1 {
			if err == nil {
				t.Fatalf("n=%d all dead: Plan must fail", n)
			}
			return
		}
		if err != nil {
			t.Fatalf("Plan(n=%d dead=%v active=%v): %v", n, dead, active, err)
		}

		deadSet := make(map[uint64]bool)
		for _, d := range dead {
			deadSet[d] = true
		}
		for _, x := range active {
			px := a.Phys(x)
			if px >= N {
				t.Fatalf("Phys(%d) = %d out of range", x, px)
			}
			if deadSet[px] {
				t.Fatalf("Phys(%d) = %d is dead (mode %v)", x, px, a.Mode)
			}
			if again := a.Phys(px); again != px {
				t.Fatalf("Phys not idempotent: Phys(%d)=%d but Phys(%d)=%d", x, px, px, again)
			}
		}
		if a.Mode == Fold {
			for x := uint64(0); x < N; x++ {
				for d := 0; d < n; d++ {
					y := x ^ 1<<uint(d)
					px, py := a.Phys(x), a.Phys(y)
					if px != py && bits.OnesCount64(px^py) != 1 {
						t.Fatalf("fold broke adjacency: %d,%d -> %d,%d", x, y, px, py)
					}
				}
			}
		}

		b, err := Plan(n, dead, active)
		if err != nil {
			t.Fatal(err)
		}
		if a.Mode != b.Mode {
			t.Fatalf("Plan not deterministic")
		}
		for x := uint64(0); x < N; x++ {
			if a.Phys(x) != b.Phys(x) {
				t.Fatalf("Phys not deterministic at %d", x)
			}
		}
	})
}
