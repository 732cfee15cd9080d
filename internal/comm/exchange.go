// Package comm implements the paper's generic personalized-communication
// algorithms (Section 3) as node programs: all-to-all personalized
// communication by the standard exchange algorithm (with the paper's
// unbuffered, buffered, and locally-shuffled variants), and one-to-all
// personalized communication by rotated-SBT and SBnT scatter.
// All-to-all by spanning-balanced-n-tree routing is not here: it is the plan
// registry's sbnt row, which the router runs. Neither are some-to-all and
// all-to-some communication (Section 3.3): they are the registry's exchange
// row on a transpose that changes the processor count, scanned in Theorem
// 1's order (plan.compileExchange). One-to-all over a single SBT is that
// row's case with one source, and Section 7's two rounds of all-to-all are
// the permute-two-phase row.
//
// Each algorithm comes in two layers: a per-node phase function (operating
// on a fabric.Node inside a running program, so that phases compose — the
// plan executor calls ExchangeBlocksHooked) and a whole-engine wrapper that
// runs the phase on every node: OneToAll (sec31scatter's rotated-SBT and
// SBnT columns) and AllToAllExchange (the benchmark's comm probe).
//
// Message building is allocation-disciplined: every builder counts a
// message's blocks and elements before allocating, draws the buffers from
// the engine's pool (fabric.Node.AllocData/AllocParts) at exactly that
// size, and recycles received buffers back to the pool once the last block
// aliasing them has been copied onward — so a multi-step exchange reuses a
// near-constant set of buffers instead of growing fresh ones per step.
package comm

import (
	"cmp"
	"fmt"
	"slices"

	"boolcube/internal/bits"
	"boolcube/internal/fabric"
)

// Strategy selects how the standard exchange algorithm packages the blocks
// of one exchange step into messages (Section 8.1).
type Strategy int

const (
	// SingleMessage sends each step's half of the local array as one
	// message without charging any local copy: an idealized lower bound
	// used by the complexity comparisons.
	SingleMessage Strategy = iota
	// Shuffled performs the local shuffle between steps so that a single
	// contiguous block is exchanged per step, charging the full local data
	// movement the paper deems too expensive on the iPSC.
	Shuffled
	// Unbuffered sends each contiguous run of blocks as a separate
	// message: no copying, but the number of start-ups doubles each step.
	Unbuffered
	// Buffered is the paper's optimal scheme: runs of at least BCopy bytes
	// are sent directly, smaller runs are copied into one buffer and sent
	// as a single message.
	Buffered
)

func (s Strategy) String() string {
	switch s {
	case SingleMessage:
		return "single-message"
	case Shuffled:
		return "shuffled"
	case Unbuffered:
		return "unbuffered"
	case Buffered:
		return "buffered"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// checkStrategy refuses a Strategy outside the four, which ExchangeBlocks
// has no packaging for.
func checkStrategy(s Strategy) error {
	if s < SingleMessage || s > Buffered {
		return fmt.Errorf("comm: unknown exchange strategy %v", s)
	}
	return nil
}

// Block is one (source, destination) payload. The routing of ExchangeBlocks
// over a dimension set reads only the Dst bits on those dimensions, so Dst
// may address a node outside the exchange subcube (its remaining bits are
// handled by other phases, as in the plan's multi-phase conversions).
type Block struct {
	Src, Dst uint64
	Data     []float64
	// Sum is the block's delivery-audit checksum (fabric.Checksum over
	// Data, computed where the block was gathered); 0 means unaudited.
	// Audited blocks are verified when ExchangeBlocksHooked delivers them.
	Sum uint64
	// Tags carries one address tag per element under SIMNET_DEBUG (nil
	// otherwise); tags travel with the data through every forwarding hop.
	Tags []uint64
}

// ExchangeHooks observes an exchange from inside the node program, enabling
// checkpointed execution: OnFinal fires the moment a block reaches its home
// node — step is the exchange step that delivered it (-1 for blocks already
// home before the first step) — instead of the block being retained until
// the algorithm completes. The hook runs inside the node program between
// timed operations; it must copy out any data it wants to keep, because the block may alias a pooled receive buffer that is
// recycled as soon as the hook returns.
type ExchangeHooks struct {
	OnFinal func(step int, b Block)
}

// slot is one occupied slot of the modeled array: key is its index, at the
// entry of the block in it in the held-block arena, n the block's element
// count.
type slot struct {
	key   uint64
	at, n int32
}

// heldBlock is a block this node holds: (src, dst, sum) with its data at
// offset off of the received buffer rx[buf] or, when buf is -1, the
// caller's blocks[off]. A freed entry's off links the next freed one.
// Neither it nor slot holds a pointer, so placing and moving them costs a
// copy and nothing else; their int32 counts and offsets bound a message at
// 2^31 elements, as plan's move-sets bound a local array.
type heldBlock struct {
	src, dst, sum uint64
	buf, off      int32
}

// rxBuf tracks one received payload buffer (and its address tags) and how
// many placed blocks still alias it. When the last aliasing block is copied
// into an outgoing message, the buffer goes back to the engine pool.
type rxBuf struct {
	data []float64
	tags []uint64
	live int32
}

// slotKey gathers the bits of x on dims into a slot key: dims[j] becomes
// key bit len(dims)-1-j.
func slotKey(dims []int, x uint64) uint64 {
	var k uint64
	for _, d := range dims {
		k = k<<1 | x>>uint(d)&1
	}
	return k
}

func cmpKey(a, b slot) int { return cmp.Compare(a.key, b.key) }

// mergeSlots merges the key-sorted arrivals of a step into the key-sorted
// slots the node kept, back to front in keep's storage. No key is in both:
// kept keys agree with the node on the step's bit, arrivals differ there.
func mergeSlots(keep, arr []slot) []slot {
	i, j := len(keep)-1, len(arr)-1
	out := slices.Grow(keep, len(arr))[:len(keep)+len(arr)]
	for w := len(out) - 1; j >= 0; w-- {
		if i >= 0 && out[i].key > arr[j].key {
			out[w] = out[i]
			i--
		} else {
			out[w] = arr[j]
			j--
		}
	}
	return out
}

// ExchangeBlocks runs the standard exchange algorithm (Definition 10
// generalized) on one node, inside a node program. dims are the cube
// dimensions to exchange over, processed in the order given (the paper
// scans from the highest order dimension down). Every block held by this
// node must have Src agreeing with the node's address on dims; it is
// delivered to the node matching its Dst bits on dims. Returns the blocks
// that belong here.
//
// The local blocked array is modeled faithfully: it has 2^l slots
// (l = len(dims)) whose indices are destination bits before a step and
// source bits after it, so the number of contiguous runs — and hence
// message count and copy cost per Strategy — doubles each step exactly as
// in Section 8.1. Only the occupied slots are stored, as a key-sorted list,
// so a node's work and memory per call grow with the blocks it holds and
// the messages it sends, not with 2^l.
//
// Buffer ownership: outgoing message buffers are drawn from the engine
// pool, received buffers are recycled once every block aliasing them has
// been forwarded, and the returned blocks may alias final-step receive
// buffers — the caller owns those and they are simply retained. Callers
// retain ownership of the Data slices in the input blocks.
func ExchangeBlocks(nd fabric.Node, dims []int, strat Strategy, blocks []Block) []Block {
	return ExchangeBlocksHooked(nd, dims, strat, blocks, ExchangeHooks{})
}

// ExchangeBlocksHooked is ExchangeBlocks with delivery observation. With a
// zero ExchangeHooks it is ExchangeBlocks exactly — same messages, same
// copies, same Stats. With OnFinal set, every block is handed to the hook as
// soon as it reaches this node (audited against Block.Sum first) and the
// function returns nil; the Shuffled strategy still charges its inter-step
// shuffle over the full modeled array, early deliveries included, so hooked
// and unhooked runs remain bit-identical in time and traffic.
//
// A held block's slot is the bits of Src^Dst^id on dims (dims[j] is key bit
// l-1-j): on a scanned dimension its Dst bit is the node's, leaving the Src
// bit, and on one still to scan its Src bit is the node's, leaving the Dst
// bit. So a kept block keeps its slot, a step splits the key-sorted slot
// list into its send and keep halves in one pass, and the arrivals, which
// differ from the kept slots in the step's key bit, merge back in.
func ExchangeBlocksHooked(nd fabric.Node, dims []int, strat Strategy, blocks []Block, hooks ExchangeHooks) []Block {
	id := nd.ID()
	l := len(dims)
	hooked := hooks.OnFinal != nil
	// The machine parameters are fixed for the run; read them once rather
	// than copying the struct through the Node interface per run and step.
	params := nd.Params()
	elemBytes := params.ElemBytes

	var mask uint64
	for _, d := range dims {
		mask |= 1 << uint(d)
	}
	home := id & mask // a block has arrived when its Dst bits on dims are these

	var rx []rxBuf // the buffers received so far
	// retire drops one reference to a receive buffer, recycling it once no
	// placed block aliases it anymore.
	retire := func(buf int32) {
		if buf < 0 {
			return
		}
		rx[buf].live--
		if rx[buf].live == 0 {
			nd.Recycle(fabric.Msg{Data: rx[buf].data})
			rx[buf].data = nil
		}
	}

	// deliveredElems counts elements handed to OnFinal so far; the Shuffled
	// strategy adds it back into its inter-step copy so early delivery does
	// not change the modeled local-array size.
	deliveredElems := 0

	// deliver audits a home block and hands it to the hook, then releases
	// its receive buffer — the hook must have copied out what it keeps.
	deliver := func(step int, b Block, buf int32) {
		if b.Sum != 0 {
			if got := fabric.Checksum(b.Data); got != b.Sum {
				nd.Fail(&fabric.AuditError{Node: id, Src: b.Src, Dst: b.Dst, What: "block", Want: b.Sum, Got: got})
			}
		}
		hooks.OnFinal(step, b)
		deliveredElems += len(b.Data)
		retire(buf)
	}

	// payload returns the data and address tags of a held block of n
	// elements.
	payload := func(h *heldBlock, n int32) ([]float64, []uint64) {
		if h.buf < 0 {
			b := &blocks[h.off]
			return b.Data, b.Tags
		}
		r, end := &rx[h.buf], h.off+n
		var tags []uint64
		if r.tags != nil {
			tags = r.tags[h.off:end:end]
		}
		return r.data[h.off:end:end], tags
	}

	// Count the blocks to place, then draw the per-call lists once at that
	// size: the held-block arena and the slot list with the step's send list
	// beside it.
	tagged := false
	held := 0
	for i := range blocks {
		b := &blocks[i]
		if (b.Src^id)&mask != 0 {
			panic(fmt.Sprintf("comm: node %d holds block with foreign source %d", id, b.Src))
		}
		if b.Tags != nil {
			tagged = true
		}
		if !hooked || b.Dst&mask != home {
			held++
		}
	}
	rx = make([]rxBuf, 0, min(l, held+1)) // a message a step, to start with
	blk := make([]heldBlock, 0, held)
	freed := int32(-1) // the last arena entry freed, -1 when none is
	slots := make([]slot, 2*held)
	order, send := slots[:0:held], slots[held:held]
	heldElems := 0 // elements in the occupied slots
	for i, b := range blocks {
		if hooked && b.Dst&mask == home {
			deliver(-1, b, -1)
			continue
		}
		order = append(order, slot{key: slotKey(dims, b.Src^b.Dst^id), at: int32(len(blk)), n: int32(len(b.Data))})
		blk = append(blk, heldBlock{src: b.Src, dst: b.Dst, sum: b.Sum, buf: -1, off: int32(i)})
		heldElems += len(b.Data)
	}
	if !slices.IsSortedFunc(order, cmpKey) {
		slices.SortStableFunc(order, cmpKey)
	}

	// newMsg allocates one outgoing message at its exact final size, with a
	// parallel tag array when address tags are in flight.
	newMsg := func(nb, ne int) fabric.Msg {
		m := fabric.Msg{Parts: nd.AllocParts(nb), Data: nd.AllocData(ne)}
		if tagged {
			m.Tags = make([]uint64, ne)
		}
		return m
	}

	// pack copies the blocks of send[from:to] into m starting at offsets
	// (po, do), frees their arena entries and retires their receive buffers.
	pack := func(m *fabric.Msg, po, do, from, to int) (int, int) {
		for _, s := range send[from:to] {
			h := &blk[s.at]
			data, tags := payload(h, s.n)
			m.Parts[po] = fabric.Part{Src: h.src, Dst: h.dst, N: int(s.n), Sum: h.sum}
			po++
			if m.Tags != nil && tags != nil {
				copy(m.Tags[do:], tags)
			}
			do += copy(m.Data[do:], data)
			retire(h.buf)
			h.off, freed = freed, s.at
			heldElems -= int(s.n)
		}
		return po, do
	}

	for step := 0; step < l; step++ {
		d := dims[step]
		i := uint(l - 1 - step) // slot bit exchanged this step
		myBit := id >> uint(d) & 1

		// Split the slot list in one pass: slots with bit i != myBit are
		// sent, in slot order.
		send = send[:0]
		keep, sendElems := order[:0], 0
		for _, s := range order {
			if s.key>>i&1 == myBit {
				keep = append(keep, s)
			} else {
				send = append(send, s)
				sendElems += int(s.n)
			}
		}
		order = keep
		// runAt returns the end of the run that starts at send[k] and its
		// element count: a run is the 2^i consecutive slots that share their
		// bits above i. Counting a run before packing it lets each message
		// buffer be pool-allocated once at its exact final size.
		runAt := func(k int) (end, ne int) {
			for end = k; end < len(send) && send[end].key>>(i+1) == send[k].key>>(i+1); end++ {
				ne += int(send[end].n)
			}
			return end, ne
		}

		// Package runs into messages per strategy and send them. The
		// partner's packaging can differ (its run sizes may cross the
		// buffering threshold differently), so each message carries the
		// step's message count in Tag and at least one message is always
		// sent.
		post := func(m fabric.Msg, count int) {
			m.Tag = count
			nd.Send(d, m)
		}
		switch strat {
		case SingleMessage, Shuffled:
			if len(send) == 0 {
				post(fabric.Msg{}, 1)
				break
			}
			m := newMsg(len(send), sendElems)
			pack(&m, 0, 0, 0, len(send))
			post(m, 1)
		case Unbuffered:
			// One message per run even when the run is empty: the doubling
			// start-up count per step is the point of this variant.
			numRuns := 1 << uint(step)
			k := 0
			for r := range numRuns {
				var m fabric.Msg
				if k < len(send) && send[k].key>>(i+1) == uint64(r) {
					end, ne := runAt(k)
					m = newMsg(end-k, ne)
					pack(&m, 0, 0, k, end)
					k = end
				}
				post(m, numRuns)
			}
		case Buffered:
			// Runs of at least BCopy bytes go directly; the rest are copied
			// into one buffered message (charged as a local copy), sent
			// after the direct ones.
			direct := func(ne int) bool {
				return params.BCopy > 0 && ne*elemBytes >= params.BCopy
			}
			count, tb, te := 0, 0, 0
			for k := 0; k < len(send); {
				end, ne := runAt(k)
				if direct(ne) {
					count++
				} else {
					tb, te = tb+end-k, te+ne
				}
				k = end
			}
			var buffered fabric.Msg
			if tb > 0 {
				count++
				buffered = newMsg(tb, te)
				nd.Copy(te * elemBytes)
			}
			if count == 0 {
				post(fabric.Msg{}, 1)
			}
			po, do := 0, 0
			for k := 0; k < len(send); {
				end, ne := runAt(k)
				if direct(ne) {
					m := newMsg(end-k, ne)
					pack(&m, 0, 0, k, end)
					post(m, count)
				} else {
					po, do = pack(&buffered, po, do, k, end)
				}
				k = end
			}
			if tb > 0 {
				post(buffered, count)
			}
		}

		// Receive the partner's messages and place their blocks, aliasing
		// the received buffer instead of copying it out; the alias count
		// decides when the buffer can be recycled. The arrivals take the
		// freed arena entries and reuse the send list's storage. Each
		// message is in slot order; only Buffered's direct runs, sent ahead
		// of the buffered message, can leave the arrivals out of it.
		arr, sorted := send[:0], true
		expect := 1
		for k := 0; k < expect; k++ {
			in := nd.Recv(d)
			if k == 0 {
				expect = in.Tag
			}
			if len(in.Parts) == 0 {
				nd.Recycle(in)
				continue
			}
			bi := int32(len(rx))
			rx = append(rx, rxBuf{data: in.Data, tags: in.Tags, live: int32(len(in.Parts))})
			if in.Tags != nil {
				tagged = true
			}
			off := 0
			for _, p := range in.Parts {
				h := heldBlock{src: p.Src, dst: p.Dst, sum: p.Sum, buf: bi, off: int32(off)}
				off += p.N
				if hooked && p.Dst&mask == home {
					data, tags := payload(&h, int32(p.N))
					deliver(step, Block{Src: p.Src, Dst: p.Dst, Sum: p.Sum, Data: data, Tags: tags}, bi)
					continue
				}
				s := slot{key: slotKey(dims, p.Src^p.Dst^id), at: int32(len(blk)), n: int32(p.N)}
				if freed >= 0 {
					s.at, freed = freed, blk[freed].off
					blk[s.at] = h
				} else {
					blk = append(blk, h)
				}
				if len(arr) > 0 && s.key < arr[len(arr)-1].key {
					sorted = false
				}
				arr = append(arr, s)
				heldElems += p.N
			}
			nd.Recycle(fabric.Msg{Parts: in.Parts})
		}
		if !sorted {
			slices.SortStableFunc(arr, cmpKey)
		}
		order, send = mergeSlots(order, arr), arr[:0]

		if strat == Shuffled && step < l-1 {
			// Local shuffle so the next step's half is contiguous: full
			// local data movement. Early-delivered blocks still occupy the
			// modeled array, so they stay in the charge.
			nd.Copy((deliveredElems + heldElems) * elemBytes)
		}
	}

	if hooked {
		if len(order) > 0 {
			panic(fmt.Sprintf("comm: node %d: %d undelivered block(s) left, the first in slot %d", id, len(order), order[0].key))
		}
		return nil
	}

	out := make([]Block, len(order))
	for k, s := range order {
		h := &blk[s.at]
		if h.dst&mask != home {
			panic(fmt.Sprintf("comm: node %d ended with block for %d", id, h.dst))
		}
		if h.buf < 0 {
			out[k] = blocks[h.off]
			continue
		}
		data, tags := payload(h, s.n)
		out[k] = Block{Src: h.src, Dst: h.dst, Sum: h.sum, Data: data, Tags: tags}
	}
	slices.SortFunc(out, func(a, b Block) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	return out
}

// AllToAllExchange runs ExchangeBlocks on every node of the engine with one
// block per (src, dst) pair. block(src, dst) supplies the payload for every
// ordered pair of nodes that agree on all dimensions outside dims
// (including dst == src). result[x] maps each subcube source to the data x
// received from it.
func AllToAllExchange(e fabric.Fabric, dims []int, strat Strategy, block func(src, dst uint64) []float64) ([]map[uint64][]float64, error) {
	if err := checkDims(e, dims); err != nil {
		return nil, err
	}
	if err := checkStrategy(strat); err != nil {
		return nil, err
	}
	result := make([]map[uint64][]float64, e.Nodes())
	err := e.Run(func(nd fabric.Node) {
		id := nd.ID()
		dsts := subcube(id, dims)
		held := make([]Block, len(dsts))
		for i, dst := range dsts {
			held[i] = Block{Src: id, Dst: dst, Data: block(id, dst)}
		}
		out := make(map[uint64][]float64, len(held))
		for _, b := range ExchangeBlocks(nd, dims, strat, held) {
			out[b.Src] = b.Data
		}
		result[id] = out
	})
	if err != nil {
		return nil, err
	}
	return result, nil
}

// DescendingDims returns [n-1, n-2, ..., 0], the paper's default scan order.
func DescendingDims(n int) []int {
	dims := make([]int, n)
	for i := range dims {
		dims[i] = n - 1 - i
	}
	return dims
}

// PairedDims returns the SPT dimension order for an even n: row dimension
// then paired column dimension, highest pairs first —
// [n-1, n/2-1, n-2, n/2-2, ..., n/2, 0]. For pairwise two-dimensional
// transposes the exchange algorithm over this order follows the Single Path
// Transpose route of every node (Section 6.1.1).
func PairedDims(n int) []int {
	dims := make([]int, 0, n)
	for i := n/2 - 1; i >= 0; i-- {
		dims = append(dims, n/2+i, i)
	}
	return dims
}

// subcube lists the nodes reachable from x by flipping any subset of dims,
// in increasing address order.
func subcube(x uint64, dims []int) []uint64 {
	out := []uint64{0}
	base := x
	for _, d := range dims {
		base = bits.SetBit(base, d, 0)
		next := make([]uint64, 0, 2*len(out))
		for _, v := range out {
			next = append(next, v, v|1<<uint(d))
		}
		out = next
	}
	for i := range out {
		out[i] |= base
	}
	slices.Sort(out)
	return out
}

func checkDims(e fabric.Fabric, dims []int) error {
	seen := make(map[int]bool, len(dims))
	for _, d := range dims {
		if d < 0 || d >= e.Dims() {
			return fmt.Errorf("comm: dimension %d out of range [0,%d)", d, e.Dims())
		}
		if seen[d] {
			return fmt.Errorf("comm: duplicate dimension %d", d)
		}
		seen[d] = true
	}
	return nil
}
