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
// The exchange runs in two halves. Lower walks the Strategy's packaging
// host-side over every node's block list, without data, into a Schedule:
// per node and step the copy charges and the messages in send order as
// span copies out of the buffers the node holds. Schedule.Run interprets
// one node's part inside a node program: per message one pooled
// Data/Parts allocation, the span copies and a Send; per arriving block
// one compare of its destination with the node, and per delivered block
// the checksum audit and the caller's delivery function; and every buffer,
// the caller's input included, goes back to the engine pool at the end of
// the last step that reads it. A compiled plan lowers each phase once (plan.Plan.Schedules),
// so an execution only interprets. The whole-engine wrappers are OneToAll
// (sec31scatter's rotated-SBT and SBnT columns) and AllToAllExchange (the
// benchmark's comm probe).
package comm

import (
	"cmp"
	"fmt"
	"slices"

	"boolcube/internal/bits"
	"boolcube/internal/fabric"
	"boolcube/internal/machine"
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

// checkStrategy refuses a Strategy outside the four, which Lower has no
// packaging for.
func checkStrategy(s Strategy) error {
	if s < SingleMessage || s > Buffered {
		return fmt.Errorf("comm: unknown exchange strategy %v", s)
	}
	return nil
}

// Schedule is one dimension-scan exchange lowered for every node of a cube:
// what each node copies, sends and delivers at each step, fixed by the
// dimension order, the Strategy, the machine's B_copy and the nodes' block
// lists before any element moves. A node's buffers are numbered in the
// order it comes to hold them: 0 is its input, then every non-empty
// message it receives. A Schedule is immutable, so any number of engines
// may run it at once.
type Schedule struct {
	dims   []int
	mask   uint64     // the bits of dims: a block is home where its Dst matches the node's on them
	nodes  []nodeProg // by node address
	steps  []stepProg // step j of node x at j*len(nodes)+x
	msgs   []msgProg
	spans  []span
	retire []int32 // buffer numbers
}

// rng is a range [at, at+n) of one of a Schedule's lists.
type rng struct{ at, n int32 }

// nodeProg is what a node does around its steps: its input's part count,
// how many buffers it comes to hold, and whether its input is released
// right after the deliveries of blocks home from the start because no send
// reads it.
type nodeProg struct {
	input, bufs int32
	retireInput bool
}

// stepProg is one node's step: the elements copied before its sends
// (Buffered's packing of the short runs) and after its receives
// (Shuffled's local shuffle), -1 for no copy; its messages in send order
// (it receives its partner's); and the buffers no later step reads,
// released at its end.
type stepProg struct {
	pre, post    int32
	msgs, retire rng
}

// msgProg is one outgoing message: its part and element counts and the
// spans that fill it, in order. A message with no parts is sent empty.
type msgProg struct {
	parts, elems int32
	spans        rng
}

// span is count repeats of a copy of np parts and nd elements out of buffer
// buf into a message, the first reading at from and writing at to. A span
// with count > 1 is followed in its list by one entry that holds only the
// repeats' strides, as its from and to: repeat k reads at from + k*stride.
// Whole-message copies, the strided groups a dimension scan leaves in every
// received buffer and puts in every message, and single blocks are all one
// span.
type span struct {
	buf, np, nd, count int32
	from, to           pos
}

// pos is a position in a message or buffer: a part index and the offset of
// that part's first element.
type pos struct{ part, data int32 }

func (p pos) add(q pos) pos { return pos{p.part + q.part, p.data + q.data} }
func (p pos) sub(q pos) pos { return pos{p.part - q.part, p.data - q.data} }

// slot is one occupied slot of the modeled local array, key its index, at
// the node lowering follows its block to: the block is part part and
// elements [data, data+n) of buffer buf there. The key alone routes it.
type slot struct {
	key                uint64
	buf, part, data, n int32
}

func cmpKey(a, b slot) int { return cmp.Compare(a.key, b.key) }

// slotKey gathers the bits of x on dims into a slot key: dims[j] becomes
// key bit len(dims)-1-j.
func slotKey(dims []int, x uint64) uint64 {
	var k uint64
	for _, d := range dims {
		k = k<<1 | x>>uint(d)&1
	}
	return k
}

// mergeSlots merges the key-sorted arrivals of a step into the key-sorted
// slots the node kept. No key is in both: kept keys agree with the node on
// the step's bit, arrivals differ there.
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

// holder is one node's state while lowering: its occupied slots in key
// order, for each of its buffers the last step that reads it (-1: none
// yet), and its element counts.
type holder struct {
	slots             []slot
	last              []int32
	delivered, onHand int
}

// sent is what a node sends in one step: the slots of its messages back to
// back, message k ending at ends[k] (an empty message ends where it starts).
type sent struct {
	out  []slot
	ends []int32
}

// lowerer builds a Schedule: the exchange's parameters, every node's
// holder, and scratch storage.
type lowerer struct {
	s     *Schedule
	strat Strategy
	m     machine.Params
	hs    []holder
	pair  [2]sent // what the two nodes of the pair being lowered send
	short []slot  // the short runs a node packs into one buffered message
	arr   []slot  // the slots a node receives this step
	wide  []wideSpan
	open  []int32 // per buffer, the wide span addSpans last opened, -1 none
}

// wideSpan is a span with its strides beside it, as addSpans builds it.
type wideSpan struct {
	span
	fromStep, toStep pos
}

// Lower lowers the standard exchange algorithm (Definition 10 generalized)
// over dims, scanned in the order given (the paper scans from the highest
// order dimension down), with Strategy strat on machine m, for an n-cube
// whose node id starts with the blocks blocks(id) in the order its input
// buffer holds them (each block's Src is id; Sum is not read; the slice is
// read before the next call). A block is delivered at the node that
// matches its Dst on dims; Dst's other bits are left to other phases, as in
// the plan's multi-phase conversions.
//
// The local blocked array is modeled faithfully: it has 2^l slots
// (l = len(dims)) whose indices are destination bits before a step and
// source bits after it, so the number of contiguous runs — and hence
// message count and copy cost per Strategy — doubles each step exactly as
// in Section 8.1. A held block's slot is the bits of Src^Dst^id on dims: on
// a scanned dimension its Dst bit is the node's, leaving the Src bit, and on
// one still to scan its Src bit is the node's, leaving the Dst bit. So a
// kept block keeps its slot, an arrival's slot is its sender's with the
// step's bit flipped, a step splits the key-sorted slot list into its send
// and keep halves in one pass, and the arrivals, which differ from the kept
// slots in the step's key bit, merge back in. Only occupied slots are
// stored, so lowering costs the blocks and messages, not 2^l per node.
func Lower(n int, dims []int, strat Strategy, m machine.Params, blocks func(id uint64) []fabric.Part) (*Schedule, error) {
	if err := checkDims(n, dims); err != nil {
		return nil, err
	}
	if err := checkStrategy(strat); err != nil {
		return nil, err
	}
	nodes, l := 1<<uint(n), len(dims)
	s := &Schedule{dims: slices.Clone(dims), nodes: make([]nodeProg, nodes), steps: make([]stepProg, l*nodes)}
	for _, d := range dims {
		s.mask |= 1 << uint(d)
	}
	hs := make([]holder, nodes)
	for x := range hs {
		id, h := uint64(x), &hs[x]
		idKey, bs := slotKey(dims, id), blocks(id)
		h.last = append(h.last, -1)
		h.slots = make([]slot, 0, len(bs))
		off := int32(0)
		for k, b := range bs {
			sl := slot{key: slotKey(dims, b.Dst), buf: 0, part: int32(k), data: off, n: int32(b.N)}
			off += sl.n
			if sl.key == idKey {
				h.delivered += b.N
				continue
			}
			h.slots = append(h.slots, sl)
			h.onHand += b.N
		}
		if !slices.IsSortedFunc(h.slots, cmpKey) {
			slices.SortStableFunc(h.slots, cmpKey)
		}
		s.nodes[x].input = int32(len(bs))
	}
	// A step pairs the nodes across its dimension, and a pair's step reads
	// nothing of another pair's, so each pair's is lowered whole in turn.
	lw := &lowerer{s: s, strat: strat, m: m, hs: hs}
	for j, d := range dims {
		for x := range uint64(nodes) {
			if y := x | 1<<uint(d); x != y {
				lw.sendStep(x, d, j, &lw.pair[0])
				lw.sendStep(y, d, j, &lw.pair[1])
				lw.recvStep(x, j, &lw.pair[1])
				lw.recvStep(y, j, &lw.pair[0])
			}
		}
	}

	// Release every buffer at the end of the last step that reads it: the
	// input right after its home deliveries when no send does.
	for x := range hs {
		h := &hs[x]
		if len(h.slots) > 0 {
			return nil, fmt.Errorf("comm: node %d: %d undelivered block(s) left, the first in slot %d", x, len(h.slots), h.slots[0].key)
		}
		s.nodes[x].bufs = int32(len(h.last))
		s.nodes[x].retireInput = h.last[0] < 0
		for j := range l {
			st := &s.steps[j*nodes+x]
			st.retire.at = int32(len(s.retire))
			for b, last := range h.last {
				if last == int32(j) {
					s.retire = append(s.retire, int32(b))
				}
			}
			st.retire.n = int32(len(s.retire)) - st.retire.at
		}
	}
	// A plan keeps its schedules for its life: drop the lists' growth room.
	s.msgs, s.spans, s.retire = slices.Clone(s.msgs), slices.Clone(s.spans), slices.Clone(s.retire)
	return s, nil
}

// sendStep packages what node id sends across dimension d at step j per
// strategy, as Section 8.1 describes and Run replays: it splits the node's
// slots, records the step's copy charge and messages, and leaves the
// messages' slots in snd for the partner's arrivals.
func (lw *lowerer) sendStep(id uint64, d, j int, snd *sent) {
	s, h, m := lw.s, &lw.hs[id], lw.m
	st := &s.steps[j*len(s.nodes)+int(id)]
	i := uint(len(s.dims) - 1 - j) // slot bit exchanged this step
	myBit := id >> uint(d) & 1
	// The slots whose bit i is not the node's are sent: in slot order into
	// snd.out, which the messages then cut into consecutive ranges.
	out, keep := snd.out[:0], h.slots[:0]
	for _, sl := range h.slots {
		if sl.key>>i&1 == myBit {
			keep = append(keep, sl)
		} else {
			out = append(out, sl)
		}
	}
	h.slots, snd.out, snd.ends = keep, out, snd.ends[:0]
	st.pre = -1
	st.msgs.at = int32(len(s.msgs))
	// runAt returns the end of the run that starts at out[k] and its
	// element count: a run is the 2^i consecutive slots that share their
	// bits above i.
	runAt := func(k int) (end, ne int) {
		for end = k; end < len(out) && out[end].key>>(i+1) == out[k].key>>(i+1); end++ {
			ne += int(out[end].n)
		}
		return end, ne
	}
	// flush closes the message of the slots from the last message's end to
	// end.
	flush := func(end int) {
		begin := 0
		if len(snd.ends) > 0 {
			begin = int(snd.ends[len(snd.ends)-1])
		}
		mp := msgProg{parts: int32(end - begin), spans: lw.addSpans(out[begin:end])}
		for _, sl := range out[begin:end] {
			mp.elems += sl.n
			h.last[sl.buf] = int32(j)
		}
		h.onHand -= int(mp.elems)
		s.msgs = append(s.msgs, mp)
		snd.ends = append(snd.ends, int32(end))
	}
	// Every strategy sends at least one message a step, so a partner always
	// has one to receive.
	switch lw.strat {
	case SingleMessage, Shuffled:
		flush(len(out))
	case Unbuffered:
		// One message per run even when the run is empty: the doubling
		// start-up count per step is the point of this variant.
		k := 0
		for r := range 1 << uint(j) {
			if k < len(out) && out[k].key>>(i+1) == uint64(r) {
				k, _ = runAt(k)
			}
			flush(k)
		}
	case Buffered:
		// Runs of at least BCopy bytes go directly; the rest are copied
		// into one buffered message (charged as a local copy before the
		// sends), sent after the direct ones: the direct runs move up to
		// the front of snd.out, the others after them, each in slot order.
		buffered, w, te := lw.short[:0], 0, 0
		for k := 0; k < len(out); {
			end, ne := runAt(k)
			if m.BCopy > 0 && ne*m.ElemBytes >= m.BCopy {
				w += copy(out[w:], out[k:end])
				flush(w)
			} else {
				buffered, te = append(buffered, out[k:end]...), te+ne
			}
			k = end
		}
		copy(out[w:], buffered)
		lw.short = buffered
		if len(buffered) > 0 {
			st.pre = int32(te)
		}
		if len(buffered) > 0 || len(snd.ends) == 0 {
			flush(len(out))
		}
	}
	st.msgs.n = int32(len(s.msgs)) - st.msgs.at
}

// recvStep places what node id receives at step j, its partner's messages
// from: each non-empty one in order becomes a buffer whose home blocks are
// delivered and whose other blocks take slots, and Shuffled charges its
// shuffle.
func (lw *lowerer) recvStep(id uint64, j int, from *sent) {
	s, h := lw.s, &lw.hs[id]
	st := &s.steps[j*len(s.nodes)+int(id)]
	i := uint(len(s.dims) - 1 - j)
	// A block is home once its key's bits below i, its destination's bits
	// on the dimensions still to scan, are the node's.
	idKey, low := slotKey(s.dims, id), uint64(1)<<i-1
	arr, sorted := lw.arr[:0], true
	start := int32(0)
	for _, end := range from.ends {
		parts := from.out[start:end]
		start = end
		if len(parts) == 0 {
			continue
		}
		b := int32(len(h.last))
		h.last = append(h.last, int32(j))
		off := int32(0)
		for k, p := range parts {
			// The sender's slot with the step's bit flipped: the ids differ
			// there.
			sl := slot{key: p.key ^ 1<<i, buf: b, part: int32(k), data: off, n: p.n}
			off += sl.n
			if (sl.key^idKey)&low == 0 {
				h.delivered += int(sl.n)
				continue
			}
			if len(arr) > 0 && sl.key < arr[len(arr)-1].key {
				sorted = false
			}
			arr = append(arr, sl)
			h.onHand += int(sl.n)
		}
	}
	if !sorted {
		slices.SortStableFunc(arr, cmpKey)
	}
	h.slots, lw.arr = mergeSlots(h.slots, arr), arr
	st.post = -1
	if lw.strat == Shuffled && j < len(s.dims)-1 {
		// Local shuffle so the next step's half is contiguous: full local
		// data movement. Delivered blocks still occupy the modeled array,
		// so they stay in the charge.
		st.post = int32(h.delivered + h.onHand)
	}
}

// addSpans appends the copies of blocks, in order, into a message to the
// schedule's spans as few spans: blocks that follow each other in one
// buffer join into one copy, and copies of one shape out of one buffer at
// constant strides on both sides into one strided span, even where other
// buffers' copies come between them.
func (lw *lowerer) addSpans(blocks []slot) rng {
	wide := lw.wide[:0]
	// emit folds the copy b into the last span opened out of its buffer
	// when it has that span's shape and continues its strides, and opens a
	// span for it otherwise.
	emit := func(b span) {
		for int(b.buf) >= len(lw.open) {
			lw.open = append(lw.open, -1)
		}
		if o := lw.open[b.buf]; o >= 0 {
			a := &wide[o]
			if a.np == b.np && a.nd == b.nd {
				if a.count == 1 {
					a.fromStep, a.toStep, a.count = b.from.sub(a.from), b.to.sub(a.to), 2
					return
				}
				if b.from == a.from.add(pos{a.count * a.fromStep.part, a.count * a.fromStep.data}) &&
					b.to == a.to.add(pos{a.count * a.toStep.part, a.count * a.toStep.data}) {
					a.count++
					return
				}
			}
		}
		lw.open[b.buf] = int32(len(wide))
		wide = append(wide, wideSpan{span: b})
	}
	var cur span // the copy being extended: blocks that follow each other in one buffer
	for _, b := range blocks {
		from := pos{b.part, b.data}
		if cur.count == 1 && cur.buf == b.buf && cur.from.add(pos{cur.np, cur.nd}) == from {
			cur.np, cur.nd = cur.np+1, cur.nd+b.n
			continue
		}
		to := pos{}
		if cur.count == 1 {
			emit(cur)
			to = cur.to.add(pos{cur.np, cur.nd})
		}
		cur = span{buf: b.buf, np: 1, nd: b.n, count: 1, from: from, to: to}
	}
	if cur.count == 1 {
		emit(cur)
	}
	s := lw.s
	r := rng{at: int32(len(s.spans))}
	if need := 2 * len(wide); cap(s.spans)-len(s.spans) < need {
		// Double rather than let append grow the list by a quarter at a
		// time, which allocates it about five times over.
		s.spans = slices.Grow(s.spans, max(need, len(s.spans)))
	}
	for _, w := range wide {
		lw.open[w.buf] = -1
		s.spans = append(s.spans, w.span)
		if w.count > 1 {
			s.spans = append(s.spans, span{from: w.fromStep, to: w.toStep})
		}
	}
	lw.wide = wide
	r.n = int32(len(s.spans)) - r.at
	return r
}

// Run plays node nd's part of the schedule inside a node program. in is
// the node's input buffer: the blocks Lower was given for it, as Parts (Sum
// set to audit a block, 0 not to) over Data, with one address tag per
// element in Tags under SIMNET_DEBUG (nil otherwise); Run owns it and
// recycles it to the engine pool once no send reads it. deliver receives
// every block the moment it is home — step is the exchange step that
// delivered it, -1 for blocks home from the start — after its checksum
// audit. data and tags alias a buffer that is recycled after the step, so
// deliver copies out what it keeps.
//
// A node that holds an address-tagged buffer tags every message it sends,
// so tags travel with the data through every forwarding hop.
func (s *Schedule) Run(nd fabric.Node, in fabric.Msg, deliver func(step int, p fabric.Part, data []float64, tags []uint64)) {
	id := nd.ID()
	np := &s.nodes[id]
	if len(in.Parts) != int(np.input) {
		panic(fmt.Sprintf("comm: node %d: input holds %d blocks, the schedule %d", id, len(in.Parts), np.input))
	}
	elemBytes := nd.Params().ElemBytes
	bufs := make([]fabric.Msg, 1, np.bufs)
	bufs[0] = in
	tagged := in.Tags != nil
	s.deliverHome(nd, -1, in, deliver)
	if np.retireInput {
		nd.Recycle(in)
	}
	nodes := len(s.nodes)
	for j, d := range s.dims {
		st := &s.steps[j*nodes+int(id)]
		if st.pre >= 0 {
			nd.Copy(int(st.pre) * elemBytes)
		}
		for _, mp := range s.msgs[st.msgs.at : st.msgs.at+st.msgs.n] {
			m := fabric.Msg{Tag: int(st.msgs.n)}
			if mp.parts > 0 {
				m.Parts, m.Data = nd.AllocParts(int(mp.parts)), nd.AllocData(int(mp.elems))
				if tagged {
					m.Tags = make([]uint64, mp.elems)
				}
				sps := s.spans[mp.spans.at : mp.spans.at+mp.spans.n]
				for k := 0; k < len(sps); k++ {
					sp, stride := sps[k], span{}
					if sp.count > 1 {
						k++
						stride = sps[k]
					}
					b := &bufs[sp.buf]
					f, t := sp.from, sp.to
					for range sp.count {
						copy(m.Parts[t.part:t.part+sp.np], b.Parts[f.part:f.part+sp.np])
						copy(m.Data[t.data:t.data+sp.nd], b.Data[f.data:f.data+sp.nd])
						if m.Tags != nil && b.Tags != nil {
							copy(m.Tags[t.data:t.data+sp.nd], b.Tags[f.data:f.data+sp.nd])
						}
						f, t = f.add(stride.from), t.add(stride.to)
					}
				}
			}
			nd.Send(d, m)
		}
		// The partner sends as many messages as its own step lists; each
		// non-empty one becomes the next buffer.
		for range s.steps[j*nodes+int(id^1<<uint(d))].msgs.n {
			m := nd.Recv(d)
			if len(m.Parts) == 0 {
				nd.Recycle(m)
				continue
			}
			bufs = append(bufs, m)
			tagged = tagged || m.Tags != nil
			s.deliverHome(nd, j, m, deliver)
		}
		for _, b := range s.retire[st.retire.at : st.retire.at+st.retire.n] {
			nd.Recycle(bufs[b])
			bufs[b] = fabric.Msg{}
		}
		if st.post >= 0 {
			nd.Copy(int(st.post) * elemBytes)
		}
	}
}

// deliverHome audits and hands over, in order, the blocks of buffer b
// that are home: their Dst matches the node's on the schedule's dimensions.
func (s *Schedule) deliverHome(nd fabric.Node, step int, b fabric.Msg, deliver func(int, fabric.Part, []float64, []uint64)) {
	home := nd.ID() & s.mask
	off := 0
	for _, pt := range b.Parts {
		end := off + pt.N
		if pt.Dst&s.mask == home {
			data := b.Data[off:end:end]
			var tags []uint64
			if b.Tags != nil {
				tags = b.Tags[off:end:end]
			}
			if pt.Sum != 0 {
				if got := fabric.Checksum(data); got != pt.Sum {
					nd.Fail(&fabric.AuditError{Node: nd.ID(), Src: pt.Src, Dst: pt.Dst, What: "block", Want: pt.Sum, Got: got})
				}
			}
			deliver(step, pt, data, tags)
		}
		off = end
	}
}

// AllToAllExchange runs the standard exchange over dims on every node of
// the engine with one block per (src, dst) pair. block(src, dst) supplies
// the payload for every ordered pair of nodes that agree on all dimensions
// outside dims (including dst == src); a nil payload sends no block. It is
// read host-side before the run, which lowers the exchange once and then
// plays it on every node. result[x] maps each source to the data x
// received from it.
func AllToAllExchange(e fabric.Fabric, dims []int, strat Strategy, block func(src, dst uint64) []float64) ([]map[uint64][]float64, error) {
	if err := checkDims(e.Dims(), dims); err != nil {
		return nil, err
	}
	nodes := e.Nodes()
	held, data := make([][]fabric.Part, nodes), make([][][]float64, nodes)
	nsend, nrecv := make([]int, nodes), make([]int, nodes) // elements each node sends and receives
	for x := range nodes {
		src, dsts := uint64(x), subcube(uint64(x), dims)
		held[x], data[x] = make([]fabric.Part, 0, len(dsts)), make([][]float64, 0, len(dsts))
		for _, dst := range dsts {
			if b := block(src, dst); b != nil {
				held[x] = append(held[x], fabric.Part{Src: src, Dst: dst, N: len(b)})
				data[x] = append(data[x], b)
				nsend[x], nrecv[dst] = nsend[x]+len(b), nrecv[dst]+len(b)
			}
		}
	}
	s, err := Lower(e.Dims(), dims, strat, e.Params(), func(id uint64) []fabric.Part { return held[id] })
	if err != nil {
		return nil, err
	}
	result := make([]map[uint64][]float64, nodes)
	err = e.Run(func(nd fabric.Node) {
		id := nd.ID()
		in := fabric.Msg{Parts: nd.AllocParts(len(held[id])), Data: nd.AllocData(nsend[id])}
		copy(in.Parts, held[id])
		off := 0
		for _, b := range data[id] {
			off += copy(in.Data[off:], b)
		}
		got := make([]float64, 0, nrecv[id])
		out := make(map[uint64][]float64, len(held[id]))
		s.Run(nd, in, func(_ int, p fabric.Part, b []float64, _ []uint64) {
			at := len(got)
			got = append(got, b...)
			out[p.Src] = got[at:len(got):len(got)]
		})
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

func checkDims(n int, dims []int) error {
	seen := make(map[int]bool, len(dims))
	for _, d := range dims {
		if d < 0 || d >= n {
			return fmt.Errorf("comm: dimension %d out of range [0,%d)", d, n)
		}
		if seen[d] {
			return fmt.Errorf("comm: duplicate dimension %d", d)
		}
		seen[d] = true
	}
	return nil
}
