// Package router executes source-routed, store-and-forward traffic on a
// simulated cube: every transfer carries its full dimension route, and
// intermediate nodes forward packets hop by hop. Because routes are fixed
// in advance, per-node termination counts are computed statically, so node
// programs never need timeouts or control messages.
//
// The transpose path systems of the paper (SPT, DPT, MPT), spanning-tree
// personalized communication, and the iPSC/CM "routing logic" (dimension-
// order e-cube) experiments all reduce to flow sets executed by this
// package.
//
// There is one result format, and it is flow-indexed: RunFlows returns the
// completed flows by their index in the submitted set — all of them on
// success, the completely delivered ones salvaged on failure — so a caller
// that knows what flow i carries never has to match deliveries back to
// flows. Run and RunRecover keep the older per-destination delivery map as
// a view over that result, for callers that only care what arrived where.
package router

import (
	"cmp"
	"fmt"
	"slices"

	"boolcube/internal/fabric"
)

// Flow is one source-to-destination transfer along an explicit route.
type Flow struct {
	Src, Dst uint64
	Dims     []int     // route; PathEnd(Src, Dims) must equal Dst
	Data     []float64 // payload (matrix elements)
	Packets  int       // number of packets the payload is split into (min 1)
	// Tags carries one address tag per payload element under SIMNET_DEBUG
	// (nil otherwise). When non-nil it must be the same length as Data; it
	// is split and reassembled packet-for-packet alongside the payload.
	Tags []uint64
}

// Delivery is a completed flow at its destination, payload reassembled in
// packet order. Tags is the reassembled address-tag array when the flow
// carried one, nil otherwise.
type Delivery struct {
	Src  uint64
	Data []float64
	Tags []uint64
}

// Partial is the flow-indexed result of RunFlows: the flows whose every
// packet had reached its destination when the engine stopped — all of them
// on a successful run — with payloads reassembled in packet order. FlowIdx
// indexes into the submitted flow slice, ascending; Data and Tags are
// parallel to it (Tags entries nil for untagged flows). Flows with any
// packet still in flight are simply absent — partial payloads are never
// exposed.
type Partial struct {
	FlowIdx []int
	Data    [][]float64
	Tags    [][]uint64
}

// Elems returns the total number of completed payload elements.
func (p *Partial) Elems() int {
	total := 0
	for _, d := range p.Data {
		total += len(d)
	}
	return total
}

// Run executes all flows on the engine. It returns the deliveries grouped
// by destination node, in a deterministic order (by source). Sources inject
// their packets round-robin across their flows — packet 0 of every flow
// first — which realizes the paper's MPT schedule of sending one packet per
// path per cycle.
func Run(e fabric.Fabric, flows []Flow) (map[uint64][]Delivery, error) {
	out, _, err := RunRecover(e, flows)
	return out, err
}

// RunRecover is RunFlows viewed by destination: on success the completed
// flows regrouped per destination node (sorted by source, flow order kept
// within a source) and a nil Partial; on failure no map and the salvaged
// flows. The regrouping forgets which flow a delivery belongs to — callers
// that scatter by canonical offset want RunFlows.
func RunRecover(e fabric.Fabric, flows []Flow) (map[uint64][]Delivery, *Partial, error) {
	done, err := RunFlows(e, flows)
	if err != nil {
		return nil, done, err
	}
	out := make(map[uint64][]Delivery)
	for k, i := range done.FlowIdx {
		f := flows[i]
		out[f.Dst] = append(out[f.Dst], Delivery{Src: f.Src, Data: done.Data[k], Tags: done.Tags[k]})
	}
	for _, ds := range out {
		// Stable: deliveries from the same source keep flow order, so
		// multi-path payloads reassemble deterministically.
		slices.SortStableFunc(ds, func(a, b Delivery) int { return cmp.Compare(a.Src, b.Src) })
	}
	return out, nil, nil
}

// RunFlows executes all flows on the engine and returns the completed ones
// by flow index — the one result format: every flow on success, and on a
// failed run (fault injection, deadline, deadlock) the completely delivered
// flows salvaged from the destination nodes' final buffers, safe to read
// host-side because a failed Run parks every node before returning. The
// Partial is never nil; a flow set refused by validation ran nothing and
// yields an empty one.
//
// Every flow is stamped with a whole-flow delivery-audit checksum at
// injection (one pass per flow, carried by each of its packets) and
// verified once at its destination after the flow's packets have all
// arrived; a mismatch aborts the run with a typed *fabric.AuditError.
func RunFlows(e fabric.Fabric, flows []Flow) (*Partial, error) {
	n := e.Dims()
	N := uint64(e.Nodes())
	for i, f := range flows {
		if f.Src >= N || f.Dst >= N {
			return &Partial{}, fmt.Errorf("router: flow %d endpoints out of range", i)
		}
		if f.Tags != nil && len(f.Tags) != len(f.Data) {
			return &Partial{}, fmt.Errorf("router: flow %d has %d tags for %d elements", i, len(f.Tags), len(f.Data))
		}
		end := f.Src
		for _, d := range f.Dims {
			if d < 0 || d >= n {
				return &Partial{}, fmt.Errorf("router: flow %d has dimension %d out of range", i, d)
			}
			end ^= 1 << uint(d)
		}
		if end != f.Dst {
			return &Partial{}, fmt.Errorf("router: flow %d route ends at %d, not %d", i, end, f.Dst)
		}
	}

	// Static planning: per-source flow lists, per-node arrival counts, and
	// per-destination final packet counts (all dense — the routes are fixed,
	// so every buffer can be sized exactly before the engine runs).
	bySrc := make([][]int, N)
	expect := make([]int, N)
	finalCount := make([]int, N)
	for i, f := range flows {
		if len(f.Dims) == 0 {
			continue // local; no traffic
		}
		pk := packetsOf(f)
		bySrc[f.Src] = append(bySrc[f.Src], i)
		x := f.Src
		for _, d := range f.Dims {
			x ^= 1 << uint(d)
			expect[x] += pk
		}
		finalCount[f.Dst] += pk
	}

	type pkt struct {
		flow, idx int
		data      []float64
		tags      []uint64
		sum       uint64 // whole-flow checksum carried by the packet
	}
	// finals[node] accumulates (flow, packet, data) at destinations,
	// presized to the known arrival totals.
	finals := make([][]pkt, N)
	for i := range finals {
		if finalCount[i] > 0 {
			finals[i] = make([]pkt, 0, finalCount[i])
		}
	}

	err := e.Run(func(nd fabric.Node) {
		id := nd.ID()
		// Inject own packets, round-robin across flows.
		myFlows := bySrc[id]
		type cursor struct {
			flow   int
			chunks [][]float64
			tags   [][]uint64
			next   int
			sum    uint64
		}
		cursors := make([]cursor, 0, len(myFlows))
		for _, fi := range myFlows {
			f := flows[fi]
			pk := packetsOf(f)
			// One audit pass over the whole flow at injection; every packet
			// carries the flow sum and the destination verifies it once.
			c := cursor{flow: fi, chunks: splitChunks(f.Data, pk), sum: fabric.Checksum(f.Data)}
			if f.Tags != nil {
				// Same length as Data, so the chunk boundaries line up.
				c.tags = splitTags(f.Tags, pk)
			}
			cursors = append(cursors, c)
		}
		for remaining := true; remaining; {
			remaining = false
			for ci := range cursors {
				c := &cursors[ci]
				if c.next >= len(c.chunks) {
					continue
				}
				f := flows[c.flow]
				m := fabric.Msg{
					Src: f.Src, Dst: f.Dst, Tag: c.flow, Rel: uint64(c.next),
					Path: f.Dims[1:], Data: c.chunks[c.next],
					FlowSum: c.sum,
				}
				if c.tags != nil {
					m.Tags = c.tags[c.next]
				}
				nd.Send(f.Dims[0], m)
				c.next++
				if c.next < len(c.chunks) {
					remaining = true
				}
			}
		}
		// Receive and forward until the static arrival count is met.
		for i := 0; i < expect[id]; i++ {
			m := nd.RecvAny()
			if len(m.Path) == 0 {
				finals[id] = append(finals[id], pkt{flow: m.Tag, idx: int(m.Rel), data: m.Data, tags: m.Tags, sum: m.FlowSum})
				continue
			}
			next := m.Path[0]
			m.Path = m.Path[1:]
			nd.Send(next, m)
		}
		// Per-flow delivery audit: with every packet in, sort this node's
		// arrivals into (flow, packet) order and verify each flow's
		// reassembled payload in one streaming pass against the flow sum
		// stamped at injection.
		fin := finals[id]
		slices.SortFunc(fin, func(a, b pkt) int {
			if a.flow != b.flow {
				return a.flow - b.flow
			}
			return a.idx - b.idx
		})
		for s := 0; s < len(fin); {
			var sm fabric.Summer
			e := s
			for ; e < len(fin) && fin[e].flow == fin[s].flow; e++ {
				sm.Add(fin[e].data)
			}
			if want := fin[s].sum; want != 0 {
				if got := sm.Sum(); got != want {
					f := flows[fin[s].flow]
					nd.Fail(&fabric.AuditError{Node: id, Src: f.Src, Dst: f.Dst, What: "flow", Want: want, Got: got})
				}
			}
			s = e
		}
	})

	// Reassemble per flow. After a failed Run every node goroutine has
	// parked, so finals is safe to read here even on the error path.
	byFlow := make([][]pkt, len(flows))
	for _, ps := range finals {
		for _, p := range ps {
			byFlow[p.flow] = append(byFlow[p.flow], p)
		}
	}
	assemble := func(i int) ([]float64, []uint64) {
		f := flows[i]
		if len(f.Dims) == 0 {
			var tags []uint64
			if f.Tags != nil {
				tags = append([]uint64(nil), f.Tags...)
			}
			return append([]float64(nil), f.Data...), tags
		}
		ps := byFlow[i]
		slices.SortFunc(ps, func(a, b pkt) int { return a.idx - b.idx })
		data := make([]float64, 0, len(f.Data))
		var tags []uint64
		if f.Tags != nil {
			tags = make([]uint64, 0, len(f.Tags))
		}
		for _, p := range ps {
			data = append(data, p.data...)
			if tags != nil {
				tags = append(tags, p.tags...)
			}
		}
		return data, tags
	}

	done := &Partial{
		FlowIdx: make([]int, 0, len(flows)),
		Data:    make([][]float64, 0, len(flows)),
		Tags:    make([][]uint64, 0, len(flows)),
	}
	for i, f := range flows {
		ps := byFlow[i]
		if err != nil && len(f.Dims) > 0 && len(ps) != packetsOf(f) {
			continue // packets still in flight; never expose partial payloads
		}
		data, tags := assemble(i)
		// The in-run per-flow audit only fires on completed runs; audit
		// salvaged flows here so a corrupt payload is never exposed.
		if err != nil && len(ps) > 0 && ps[0].sum != 0 && fabric.Checksum(data) != ps[0].sum {
			continue
		}
		done.FlowIdx = append(done.FlowIdx, i)
		done.Data = append(done.Data, data)
		done.Tags = append(done.Tags, tags)
	}
	return done, err
}

// packetsOf returns the effective packet count of a flow: at least 1, and
// never more than the payload has elements.
func packetsOf(f Flow) int {
	pk := f.Packets
	if pk < 1 {
		pk = 1
	}
	if pk > len(f.Data) && len(f.Data) > 0 {
		pk = len(f.Data)
	}
	return pk
}

// splitChunks splits data into pk nearly equal chunks (earlier chunks get
// the remainder). Empty data yields pk empty chunks so that timing-only
// flows still generate traffic-free messages; callers normally provide
// payload.
func splitChunks(data []float64, pk int) [][]float64 {
	chunks := make([][]float64, pk)
	base := len(data) / pk
	rem := len(data) % pk
	off := 0
	for i := 0; i < pk; i++ {
		sz := base
		if i < rem {
			sz++
		}
		chunks[i] = data[off : off+sz]
		off += sz
	}
	return chunks
}

// splitTags splits a tag array with the same boundaries splitChunks uses for
// an equal-length payload.
func splitTags(tags []uint64, pk int) [][]uint64 {
	chunks := make([][]uint64, pk)
	base := len(tags) / pk
	rem := len(tags) % pk
	off := 0
	for i := 0; i < pk; i++ {
		sz := base
		if i < rem {
			sz++
		}
		chunks[i] = tags[off : off+sz]
		off += sz
	}
	return chunks
}

// Ecube returns the dimension-order (ascending) route from src to dst, the
// paths taken by the iPSC and Connection Machine routing logic.
func Ecube(src, dst uint64, n int) []int {
	var dims []int
	diff := src ^ dst
	for d := 0; d < n; d++ {
		if diff>>uint(d)&1 == 1 {
			dims = append(dims, d)
		}
	}
	return dims
}
