package simnet

// readyHeap is a shard's indexed ready queue: a binary min-heap over the
// nodes whose pending operation is currently executable, keyed by the
// operation's virtual action time with ties broken by node id — the order
// the determinism contract promises. Popping costs O(log N) where the
// linear-scan oracle (oracle_test.go) pays O(N); the differential suite
// holds the two to the same decisions.
//
// Entries carry their key inline, so comparisons read the heap array alone,
// and sifts move a hole instead of swapping. The heap is indexed (pos maps
// node id -> heap slot) so a shard can re-key exactly the nodes whose
// scheduling inputs changed after an operation executes: the executed node
// itself (its clock, port resources and pending op changed) and, for a send,
// the destination node when the arrival can move its key (see shard.note).
// No other node's action time can change, which is what makes the
// incremental re-key sound; see (*shard).refresh.
type readyHeap struct {
	pos   []int32     // pos[id] = slot in order, -1 when absent
	order []heapEntry // the heap array
}

// heapEntry is one executable node and its action time.
type heapEntry struct {
	t  float64
	id int32
}

// less orders heap entries by (action time, node id).
func (a heapEntry) less(b heapEntry) bool {
	return a.t < b.t || (a.t == b.t && a.id < b.id)
}

// newReadyHeap returns an empty heap over node ids [0, n) with room for size
// entries.
func newReadyHeap(n, size int) *readyHeap {
	h := &readyHeap{
		pos:   make([]int32, n),
		order: make([]heapEntry, 0, size),
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// min returns the node id with the smallest (time, id) key and its time, or
// id -1 when no node is executable.
func (h *readyHeap) min() (int, float64) {
	if len(h.order) == 0 {
		return -1, 0
	}
	return int(h.order[0].id), h.order[0].t
}

// key returns node id's action time and whether id is in the heap.
func (h *readyHeap) key(id int) (float64, bool) {
	if p := h.pos[id]; p >= 0 {
		return h.order[p].t, true
	}
	return 0, false
}

// update inserts node id with key t, or re-keys it in place if present,
// sifting only in the direction the key moved.
func (h *readyHeap) update(id int, t float64) {
	e := heapEntry{t: t, id: int32(id)}
	p := int(h.pos[id])
	if p < 0 {
		h.order = append(h.order, e)
		h.siftUp(len(h.order)-1, e)
		return
	}
	if e.less(h.order[p]) {
		h.siftUp(p, e)
	} else {
		h.siftDown(p, e)
	}
}

// remove deletes node id from the heap; absent ids are a no-op.
func (h *readyHeap) remove(id int) {
	p := int(h.pos[id])
	if p < 0 {
		return
	}
	h.pos[id] = -1
	last := len(h.order) - 1
	gone, e := h.order[p], h.order[last]
	h.order = h.order[:last]
	if p == last {
		return
	}
	// The last entry fills the hole: above it when smaller than the removed
	// entry (whose parent it may then beat), below it otherwise.
	if e.less(gone) {
		h.siftUp(p, e)
	} else {
		h.siftDown(p, e)
	}
}

// place writes e into slot i.
func (h *readyHeap) place(i int, e heapEntry) {
	h.order[i] = e
	h.pos[e.id] = int32(i)
}

// siftUp moves the hole at slot i up until e fits, then places e there.
func (h *readyHeap) siftUp(i int, e heapEntry) {
	for i > 0 {
		parent := (i - 1) / 2
		pe := h.order[parent]
		if !e.less(pe) {
			break
		}
		h.place(i, pe)
		i = parent
	}
	h.place(i, e)
}

// siftDown moves the hole at slot i down until e fits, then places e there.
func (h *readyHeap) siftDown(i int, e heapEntry) {
	n := len(h.order)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.order[r].less(h.order[c]) {
			c = r
		}
		if !h.order[c].less(e) {
			break
		}
		h.place(i, h.order[c])
		i = c
	}
	h.place(i, e)
}
