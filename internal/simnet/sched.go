package simnet

// readyHeap is a shard's indexed ready queue: a binary min-heap over the
// nodes whose pending operation is currently executable, keyed by the
// operation's virtual action time with ties broken by node id — the order
// the determinism contract promises. Popping costs O(log N) where the
// linear-scan oracle (oracle_test.go) pays O(N); the differential suite
// holds the two to the same decisions.
//
// The heap is indexed (pos maps node id -> heap slot) so a shard can re-key
// exactly the nodes whose scheduling inputs changed after an operation
// executes: the executed node itself (its clock, port resources and pending
// op changed) and, for a send, the destination node (its inbound queue
// gained an arrival). No other node's action time can change, which is what
// makes the incremental re-key sound; see (*shard).refresh.
type readyHeap struct {
	key   []float64 // key[id] = action time, valid while id is in the heap
	pos   []int32   // pos[id] = slot in order, -1 when absent
	order []int32   // heap array of node ids
}

func newReadyHeap(n int) *readyHeap {
	h := &readyHeap{
		key:   make([]float64, n),
		pos:   make([]int32, n),
		order: make([]int32, 0, n),
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// less orders heap entries by (action time, node id).
func (h *readyHeap) less(a, b int32) bool {
	ka, kb := h.key[a], h.key[b]
	return ka < kb || (ka == kb && a < b)
}

// min returns the node id with the smallest (time, id) key, or -1 when no
// node is executable.
func (h *readyHeap) min() int {
	if len(h.order) == 0 {
		return -1
	}
	return int(h.order[0])
}

// update inserts node id with key t, or re-keys it in place if present.
func (h *readyHeap) update(id int, t float64) {
	h.key[id] = t
	if p := h.pos[id]; p >= 0 {
		if !h.siftUp(int(p)) {
			h.siftDown(int(p))
		}
		return
	}
	h.pos[id] = int32(len(h.order))
	h.order = append(h.order, int32(id))
	h.siftUp(len(h.order) - 1)
}

// remove deletes node id from the heap; absent ids are a no-op.
func (h *readyHeap) remove(id int) {
	p := h.pos[id]
	if p < 0 {
		return
	}
	last := len(h.order) - 1
	h.swap(int(p), last)
	h.order = h.order[:last]
	h.pos[id] = -1
	if int(p) < last {
		if !h.siftUp(int(p)) {
			h.siftDown(int(p))
		}
	}
}

func (h *readyHeap) swap(i, j int) {
	h.order[i], h.order[j] = h.order[j], h.order[i]
	h.pos[h.order[i]] = int32(i)
	h.pos[h.order[j]] = int32(j)
}

// siftUp restores the heap property upward from slot i and reports whether
// the entry moved.
func (h *readyHeap) siftUp(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.order[i], h.order[parent]) {
			break
		}
		h.swap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

func (h *readyHeap) siftDown(i int) {
	n := len(h.order)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		smallest := l
		if r := l + 1; r < n && h.less(h.order[r], h.order[l]) {
			smallest = r
		}
		if !h.less(h.order[smallest], h.order[i]) {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}
