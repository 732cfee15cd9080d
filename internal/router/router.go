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
// flows. Every packet has a slot fixed before the run (a prefix sum of
// packets per flow), so destinations file arrivals in place and nothing is
// sorted or regrouped per node; a one-packet flow's payload is handed over
// as it arrived, not copied. RunRecover keeps the older per-destination
// delivery map as a view over that result, for callers that only care what
// arrived where.
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
// exposed. A one-packet flow's Data and Tags are the packet as it arrived,
// which on a backend that moves payloads without copying (simnet) shares
// the submitted Flow.Data and Flow.Tags; a local or multi-packet flow's
// are fresh copies.
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

	// Static planning, count -> displacement -> fill: every routed flow's
	// packets own the slots [base[i], base[i+1]) of one arena, and the
	// per-source and per-destination flow lists are compressed rows over
	// the nodes. The routes are fixed, so every buffer is sized before the
	// engine runs and nothing grows while packets move.
	base := make([]int, len(flows)+1)
	expect := make([]int, N)
	for i, f := range flows {
		pk := 0
		if len(f.Dims) > 0 {
			pk = packetsOf(f)
			x := f.Src
			for _, d := range f.Dims {
				x ^= 1 << uint(d)
				expect[x] += pk
			}
		}
		base[i+1] = base[i] + pk
	}
	srcOff, srcFlows := group(flows, int(N), func(f Flow) uint64 { return f.Src })
	dstOff, dstFlows := group(flows, int(N), func(f Flow) uint64 { return f.Dst })

	type pkt struct {
		data []float64
		tags []uint64
	}
	// Sources stamp each flow's checksum; destinations fill
	// slots[base[flow]+packet], count arrivals and keep the sum the packets
	// carried. Each node writes only its own flows' entries.
	slots := make([]pkt, base[len(flows)])
	arrived := make([]int, len(flows))
	stamp := make([]uint64, len(flows))
	sums := make([]uint64, len(flows))

	err := e.Run(func(nd fabric.Node) {
		id := nd.ID()
		// Inject own packets, round-robin across flows: round r sends
		// packet r of every flow that has one — the paper's MPT schedule
		// of one packet per path per cycle.
		mine := srcFlows[srcOff[id]:srcOff[id+1]]
		rounds := 0
		for _, fi := range mine {
			rounds = max(rounds, packetsOf(flows[fi]))
		}
		for r := 0; r < rounds; r++ {
			for _, fi := range mine {
				f := &flows[fi]
				pk := packetsOf(*f)
				if r >= pk {
					continue
				}
				if r == 0 {
					// One audit pass over the whole flow at injection; every
					// packet carries the flow sum and the destination
					// verifies it once.
					stamp[fi] = fabric.Checksum(f.Data)
				}
				lo, hi := chunk(len(f.Data), pk, r)
				m := fabric.Msg{
					Src: f.Src, Dst: f.Dst, Tag: fi, Rel: uint64(r),
					Path: f.Dims[1:], Data: f.Data[lo:hi],
					FlowSum: stamp[fi],
				}
				if f.Tags != nil {
					// Same length as Data, so the chunk boundaries line up.
					m.Tags = f.Tags[lo:hi]
				}
				nd.Send(f.Dims[0], m)
			}
		}
		// Receive and forward until the static arrival count is met.
		for i := 0; i < expect[id]; i++ {
			m := nd.RecvAny()
			if len(m.Path) == 0 {
				slots[base[m.Tag]+int(m.Rel)] = pkt{data: m.Data, tags: m.Tags}
				arrived[m.Tag]++
				sums[m.Tag] = m.FlowSum
				continue
			}
			next := m.Path[0]
			m.Path = m.Path[1:]
			nd.Send(next, m)
		}
		// Per-flow delivery audit: with every packet in, verify each of
		// this node's flows, in flow order, in one streaming pass over its
		// packets against the flow sum stamped at injection.
		for _, fi := range dstFlows[dstOff[id]:dstOff[id+1]] {
			want := sums[fi]
			if want == 0 {
				continue
			}
			var sm fabric.Summer
			for _, p := range slots[base[fi]:base[fi+1]] {
				sm.Add(p.data)
			}
			if got := sm.Sum(); got != want {
				f := flows[fi]
				nd.Fail(&fabric.AuditError{Node: id, Src: f.Src, Dst: f.Dst, What: "flow", Want: want, Got: got})
			}
		}
	})

	// Reassemble per flow. After a failed Run every node has parked, so the
	// slots are safe to read here even on the error path. A one-packet flow
	// hands over the packet it arrived as; longer ones are concatenated
	// into one shared arena, each capped to its own region.
	multi := 0
	for i, f := range flows {
		if base[i+1]-base[i] > 1 {
			multi += len(f.Data)
		}
	}
	joined := make([]float64, multi)
	done := &Partial{
		FlowIdx: make([]int, 0, len(flows)),
		Data:    make([][]float64, 0, len(flows)),
		Tags:    make([][]uint64, 0, len(flows)),
	}
	for i, f := range flows {
		var data []float64
		var tags []uint64
		switch ps := slots[base[i]:base[i+1]]; {
		case len(f.Dims) == 0:
			data = append([]float64(nil), f.Data...)
			if f.Tags != nil {
				tags = append([]uint64(nil), f.Tags...)
			}
		case arrived[i] != len(ps):
			continue // packets still in flight; never expose partial payloads
		case len(ps) == 1:
			data, tags = ps[0].data, ps[0].tags
		default:
			data, joined = joined[:0:len(f.Data)], joined[len(f.Data):]
			if f.Tags != nil {
				tags = make([]uint64, 0, len(f.Tags))
			}
			for _, p := range ps {
				data = append(data, p.data...)
				if tags != nil {
					tags = append(tags, p.tags...)
				}
			}
		}
		// The in-run per-flow audit only fires on completed runs; audit
		// salvaged flows here so a corrupt payload is never exposed.
		if err != nil && sums[i] != 0 && fabric.Checksum(data) != sums[i] {
			continue
		}
		done.FlowIdx = append(done.FlowIdx, i)
		done.Data = append(done.Data, data)
		done.Tags = append(done.Tags, tags)
	}
	return done, err
}

// group lists the routed (non-local) flows by node, ascending flow index
// within a node, as compressed rows: node v's flows are
// list[off[v]:off[v+1]].
func group(flows []Flow, nodes int, node func(Flow) uint64) (off, list []int) {
	off = make([]int, nodes+1)
	for _, f := range flows {
		if len(f.Dims) > 0 {
			off[node(f)+1]++
		}
	}
	for v := range nodes {
		off[v+1] += off[v]
	}
	list = make([]int, off[nodes])
	fill := slices.Clone(off[:nodes])
	for i, f := range flows {
		if len(f.Dims) > 0 {
			v := node(f)
			list[fill[v]] = i
			fill[v]++
		}
	}
	return off, list
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

// chunk returns the bounds [lo, hi) of packet k when n elements are split
// into pk nearly equal packets, earlier packets taking the remainder. An
// empty payload yields pk empty packets, so timing-only flows still
// generate traffic-free messages; callers normally provide payload.
func chunk(n, pk, k int) (lo, hi int) {
	size, rem := n/pk, n%pk
	lo = k*size + min(k, rem)
	hi = lo + size
	if k < rem {
		hi++
	}
	return lo, hi
}

// Ecube returns the dimension-order (ascending) route from src to dst, the
// paths taken by the iPSC and Connection Machine routing logic.
func Ecube(src, dst uint64, n int) []int { return AppendEcube(nil, src, dst, n) }

// AppendEcube appends the Ecube route from src to dst to dims, so callers
// that build many routes can cut them from one arena.
func AppendEcube(dims []int, src, dst uint64, n int) []int {
	diff := src ^ dst
	for d := 0; d < n; d++ {
		if diff>>uint(d)&1 == 1 {
			dims = append(dims, d)
		}
	}
	return dims
}
