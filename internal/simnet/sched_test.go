package simnet

import (
	"math/rand"
	"testing"
)

// TestReadyHeapMatchesBruteForce holds readyHeap to a brute-force minimum
// over the same keys through randomized update/remove sequences. Keys are
// drawn from a handful of values, so most comparisons tie on time and are
// decided by node id; re-keys move entries both up and down and often not
// at all.
func TestReadyHeapMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		h := newReadyHeap(n, n)
		keys := map[int]float64{} // the model: ids present and their keys
		for step := 0; step < 2000; step++ {
			id := rng.Intn(n)
			if rng.Intn(3) == 0 {
				h.remove(id)
				delete(keys, id)
			} else {
				k := float64(rng.Intn(4)) / 2
				h.update(id, k)
				keys[id] = k
			}
			checkHeap(t, seed, step, h, keys)
		}
		// Drain by repeated min/remove: ascending (time, id), nothing lost.
		prev := heapEntry{t: -1, id: -1}
		for len(keys) > 0 {
			id, k := h.min()
			if e := (heapEntry{t: k, id: int32(id)}); !prev.less(e) {
				t.Fatalf("seed %d: drain popped (%g, %d) after (%g, %d)", seed, k, id, prev.t, prev.id)
			} else {
				prev = e
			}
			h.remove(id)
			delete(keys, id)
			checkHeap(t, seed, -1, h, keys)
		}
	}
}

// checkHeap compares h with the model: the same minimum, the same key for
// every id, and consistent slot indices.
func checkHeap(t *testing.T, seed int64, step int, h *readyHeap, keys map[int]float64) {
	t.Helper()
	want := -1
	for id, k := range keys {
		if want == -1 || k < keys[want] || (k == keys[want] && id < want) {
			want = id
		}
	}
	got, k := h.min()
	if got != want || (want >= 0 && k != keys[want]) {
		t.Fatalf("seed %d step %d: min = (%d, %g), brute force says %d", seed, step, got, k, want)
	}
	if len(h.order) != len(keys) {
		t.Fatalf("seed %d step %d: heap holds %d entries, model %d", seed, step, len(h.order), len(keys))
	}
	for id := range h.pos {
		hk, in := h.key(id)
		mk, ok := keys[id]
		if in != ok || hk != mk {
			t.Fatalf("seed %d step %d: id %d: heap (%g, %v), model (%g, %v)", seed, step, id, hk, in, mk, ok)
		}
	}
	for i, e := range h.order {
		if int(h.pos[e.id]) != i {
			t.Fatalf("seed %d step %d: pos[%d] = %d, entry sits at %d", seed, step, e.id, h.pos[e.id], i)
		}
		if i > 0 && e.less(h.order[(i-1)/2]) {
			t.Fatalf("seed %d step %d: slot %d beats its parent", seed, step, i)
		}
	}
}
