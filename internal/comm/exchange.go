// Package comm implements the paper's generic personalized-communication
// algorithms (Section 3): all-to-all personalized communication by the
// standard exchange algorithm (with the paper's unbuffered, buffered, and
// locally-shuffled variants) and by spanning-balanced-n-tree routing;
// one-to-all personalized communication by SBT, rotated-SBT and SBnT
// scatter; and some-to-all / all-to-some personalized communication as k
// splitting (or accumulation) steps combined with l all-to-all steps
// (Theorem 1, Table 3).
//
// Each algorithm comes in two layers: a per-node phase function (operating
// on a fabric.Node inside a running program, so that phases compose) and a
// whole-engine wrapper that runs the phase on every node.
//
// Message building is allocation-disciplined: every builder counts a
// message's blocks and elements before allocating, draws the buffers from
// the engine's pool (fabric.Node.AllocData/AllocParts) at exactly that
// size, and recycles received buffers back to the pool once the last block
// aliasing them has been copied onward — so a multi-step exchange reuses a
// near-constant set of buffers instead of growing fresh ones per step.
package comm

import (
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
// handled by other phases, as in some-to-all communication).
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

// slotBlock is a Block inside the exchange slot table, tagged with the
// receive buffer its Data aliases (an index into the rx list) or -1 when
// the data is caller-owned.
type slotBlock struct {
	Block
	buf int32
}

// rxBuf tracks one received payload buffer and how many placed blocks still
// alias it. When the last aliasing block is copied into an outgoing
// message, the buffer goes back to the engine pool.
type rxBuf struct {
	data []float64
	live int32
}

// ExchangeBlocks runs the standard exchange algorithm (Definition 10
// generalized) on one node, inside a node program. dims are the cube
// dimensions to exchange over, processed in the order given (the paper
// scans from the highest order dimension down). Every block held by this
// node must have Src agreeing with the node's address on dims; it is
// delivered to the node matching its Dst bits on dims. Returns the blocks
// that belong here.
//
// The local blocked array is modeled faithfully: blocks live in 2^l slots
// (l = len(dims)) whose indices are destination bits before a step and
// source bits after it, so the number of contiguous runs — and hence
// message count and copy cost per Strategy — doubles each step exactly as
// in Section 8.1.
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
func ExchangeBlocksHooked(nd fabric.Node, dims []int, strat Strategy, blocks []Block, hooks ExchangeHooks) []Block {
	id := nd.ID()
	l := len(dims)
	hooked := hooks.OnFinal != nil
	// The machine parameters are fixed for the run; read them once rather
	// than copying the struct through the Node interface per run and step.
	params := nd.Params()
	elemBytes := params.ElemBytes
	slotOf := func(src, dst uint64, step int) int {
		s := 0
		for j, d := range dims {
			var b uint64
			if j < step { // processed: source bits
				b = bits.Bit(src, d)
			} else {
				b = bits.Bit(dst, d)
			}
			s |= int(b) << uint(l-1-j)
		}
		return s
	}
	nslots := 1 << uint(l)
	var rx []rxBuf

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

	// isHome reports whether a destination address matches this node on
	// every exchange dimension — i.e. the block has arrived.
	isHome := func(dst uint64) bool {
		for _, d := range dims {
			if bits.Bit(dst, d) != bits.Bit(id, d) {
				return false
			}
		}
		return true
	}

	// deliveredElems counts elements handed to OnFinal so far; the Shuffled
	// strategy adds it back into its inter-step copy so early delivery does
	// not change the modeled local-array size.
	deliveredElems := 0

	// deliver audits a home block and hands it to the hook, then releases
	// its receive buffer — the hook must have copied out what it keeps.
	deliver := func(step int, sb slotBlock) {
		if sb.Sum != 0 {
			if got := fabric.Checksum(sb.Data); got != sb.Sum {
				nd.Fail(&fabric.AuditError{Node: id, Src: sb.Src, Dst: sb.Dst, What: "block", Want: sb.Sum, Got: got})
			}
		}
		hooks.OnFinal(step, sb.Block)
		deliveredElems += len(sb.Data)
		retire(sb.buf)
	}

	// Count each slot's initial blocks, then carve every slot list out of
	// one arena: one allocation per call instead of one per slot. A slot
	// refilled past its carved capacity by a later step grows on its own.
	tagged := false
	first := make([]int, nslots+1)
	for _, b := range blocks {
		for _, d := range dims {
			if bits.Bit(b.Src, d) != bits.Bit(id, d) {
				panic(fmt.Sprintf("comm: node %d holds block with foreign source %d", id, b.Src))
			}
		}
		if b.Tags != nil {
			tagged = true
		}
		if !hooked || !isHome(b.Dst) {
			first[slotOf(b.Src, b.Dst, 0)+1]++
		}
	}
	for s := range nslots {
		first[s+1] += first[s]
	}
	arena := make([]slotBlock, first[nslots])
	slots := make([][]slotBlock, nslots)
	for s := range slots {
		slots[s] = arena[first[s]:first[s]:first[s+1]]
	}
	for _, b := range blocks {
		if hooked && isHome(b.Dst) {
			deliver(-1, slotBlock{Block: b, buf: -1})
			continue
		}
		s := slotOf(b.Src, b.Dst, 0)
		slots[s] = append(slots[s], slotBlock{Block: b, buf: -1})
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

	// packRun copies one run of slots into m starting at offsets (po, do),
	// clears the slots (keeping their backing for the placement pass), and
	// retires the forwarded blocks' receive buffers.
	packRun := func(m *fabric.Msg, po, do, start, runLen int) (int, int) {
		for s := start; s < start+runLen; s++ {
			for i := range slots[s] {
				b := &slots[s][i]
				m.Parts[po] = fabric.Part{Src: b.Src, Dst: b.Dst, N: len(b.Data), Sum: b.Sum}
				po++
				if m.Tags != nil && b.Tags != nil {
					copy(m.Tags[do:], b.Tags)
				}
				do += copy(m.Data[do:], b.Data)
				retire(b.buf)
			}
			slots[s] = slots[s][:0]
		}
		return po, do
	}

	// Per-step scratch, sized for the worst (last) step so the loop body
	// allocates only message buffers.
	maxRuns := nslots / 2
	if maxRuns < 1 {
		maxRuns = 1
	}
	runBlocks := make([]int, maxRuns)
	runElems := make([]int, maxRuns)
	msgScratch := make([]fabric.Msg, 0, maxRuns)

	for step := 0; step < l; step++ {
		d := dims[step]
		i := l - 1 - step // slot bit exchanged this step
		myBit := bits.Bit(id, d)
		// Runs of slots to send: consecutive indices with slot bit i !=
		// myBit. There are 2^step runs of 2^i slots each.
		runLen := 1 << uint(i)
		numRuns := 1 << uint(step)
		runStart := func(r int) int {
			start := r * 2 * runLen
			if myBit == 0 {
				start += runLen
			}
			return start
		}

		// Count every run's blocks and elements up front, so each message
		// buffer is pool-allocated once at its exact final size.
		for r := 0; r < numRuns; r++ {
			nb, ne := 0, 0
			for s, end := runStart(r), runStart(r)+runLen; s < end; s++ {
				nb += len(slots[s])
				for i := range slots[s] {
					ne += len(slots[s][i].Data)
				}
			}
			runBlocks[r], runElems[r] = nb, ne
		}

		// Package runs into messages per strategy.
		msgs := msgScratch[:0]
		switch strat {
		case SingleMessage, Shuffled:
			tb, te := 0, 0
			for r := 0; r < numRuns; r++ {
				tb += runBlocks[r]
				te += runElems[r]
			}
			if tb > 0 {
				m := newMsg(tb, te)
				po, do := 0, 0
				for r := 0; r < numRuns; r++ {
					po, do = packRun(&m, po, do, runStart(r), runLen)
				}
				msgs = append(msgs, m)
			}
		case Unbuffered:
			// One message per run even when the run is empty: the doubling
			// start-up count per step is the point of this variant.
			for r := 0; r < numRuns; r++ {
				var m fabric.Msg
				if runBlocks[r] > 0 {
					m = newMsg(runBlocks[r], runElems[r])
					packRun(&m, 0, 0, runStart(r), runLen)
				}
				msgs = append(msgs, m)
			}
		case Buffered:
			// Runs of at least BCopy bytes go directly; the rest are copied
			// into one buffered message (charged as a local copy).
			direct := func(r int) bool {
				return params.BCopy > 0 && runElems[r]*elemBytes >= params.BCopy
			}
			tb, te := 0, 0
			for r := 0; r < numRuns; r++ {
				if runBlocks[r] > 0 && !direct(r) {
					tb += runBlocks[r]
					te += runElems[r]
				}
			}
			var buffered fabric.Msg
			po, do := 0, 0
			if tb > 0 {
				buffered = newMsg(tb, te)
			}
			for r := 0; r < numRuns; r++ {
				if runBlocks[r] == 0 {
					continue
				}
				if direct(r) {
					m := newMsg(runBlocks[r], runElems[r])
					packRun(&m, 0, 0, runStart(r), runLen)
					msgs = append(msgs, m)
					continue
				}
				po, do = packRun(&buffered, po, do, runStart(r), runLen)
			}
			if tb > 0 {
				nd.Copy(te * elemBytes)
				msgs = append(msgs, buffered)
			}
		}

		// Exchange: send all messages, then receive the partner's. The
		// partner's packaging can differ (its run sizes may cross the
		// buffering threshold differently), so each message carries the
		// step's total message count in Tag and at least one message is
		// always sent.
		if len(msgs) == 0 {
			msgs = append(msgs, fabric.Msg{})
		}
		for _, m := range msgs {
			m.Tag = len(msgs)
			nd.Send(d, m)
		}

		// Place received blocks under the post-step slot interpretation,
		// aliasing the received buffer instead of copying it out; the alias
		// count decides when the buffer can be recycled.
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
			rx = append(rx, rxBuf{data: in.Data, live: int32(len(in.Parts))})
			if in.Tags != nil {
				tagged = true
			}
			off := 0
			for _, p := range in.Parts {
				b := Block{Src: p.Src, Dst: p.Dst, Sum: p.Sum, Data: in.Data[off : off+p.N : off+p.N]}
				if in.Tags != nil {
					b.Tags = in.Tags[off : off+p.N : off+p.N]
				}
				off += p.N
				if hooked && isHome(p.Dst) {
					deliver(step, slotBlock{Block: b, buf: bi})
					continue
				}
				s := slotOf(p.Src, p.Dst, step+1)
				slots[s] = append(slots[s], slotBlock{Block: b, buf: bi})
			}
			nd.Recycle(fabric.Msg{Parts: in.Parts})
		}

		if strat == Shuffled && step < l-1 {
			// Local shuffle so the next step's half is contiguous: full
			// local data movement. Early-delivered blocks still occupy the
			// modeled array, so they stay in the charge.
			total := deliveredElems
			for _, sl := range slots {
				for i := range sl {
					total += len(sl[i].Data)
				}
			}
			nd.Copy(total * elemBytes)
		}
	}

	if hooked {
		for s, sl := range slots {
			if len(sl) > 0 {
				panic(fmt.Sprintf("comm: node %d: %d undelivered block(s) left in slot %d", id, len(sl), s))
			}
		}
		return nil
	}

	total := 0
	for _, sl := range slots {
		total += len(sl)
	}
	out := make([]Block, 0, total)
	for _, sl := range slots {
		for i := range sl {
			if !isHome(sl[i].Dst) {
				panic(fmt.Sprintf("comm: node %d ended with block for %d", id, sl[i].Dst))
			}
			out = append(out, sl[i].Block)
		}
	}
	slices.SortFunc(out, func(a, b Block) int {
		if a.Src != b.Src {
			if a.Src < b.Src {
				return -1
			}
			return 1
		}
		if a.Dst < b.Dst {
			return -1
		}
		if a.Dst > b.Dst {
			return 1
		}
		return 0
	})
	return out
}

// AllToAllExchange runs ExchangeBlocks on every node of the engine with one
// block per (src, dst) pair. block(src, dst) supplies the payload for every
// ordered pair of nodes that agree on all dimensions outside dims
// (including dst == src). result[x] maps each subcube source to the data x
// received from it. It is SomeToAll with no split dimensions.
func AllToAllExchange(e fabric.Fabric, dims []int, strat Strategy, block func(src, dst uint64) []float64) ([]map[uint64][]float64, error) {
	return SomeToAll(e, nil, dims, strat, true, block)
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
