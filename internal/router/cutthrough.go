package router

import (
	"fmt"
	"math"
	"sort"

	"boolcube/internal/machine"
)

// This file models circuit-switched (cut-through) routing, the behaviour of
// the Connection Machine's bit-serial pipelined communication system
// (Section 8.2.2): a message reserves its whole path, pays the start-up τ
// once and a small per-hop header latency, and then streams its body at
// t_c per byte regardless of distance. Contention is at path granularity:
// a transmission begins when every link on its route is free.
//
// The scheduler is deterministic: transmissions start in earliest-possible-
// time order with flow index as the tie breaker.

// CutThroughStats summarizes a circuit-switched schedule.
type CutThroughStats struct {
	Time         float64 // makespan, µs
	Startups     int64
	Bytes        int64
	MaxLinkBytes int64
	MaxWait      float64 // longest time a flow waited on busy links
}

// HopLatency is the per-hop header forwarding delay of the cut-through
// router, as a fraction of τ. The CM's routing cycle is small relative to
// the message start-up.
const HopLatency = 0.1

// CutThrough schedules the flows under circuit switching and returns the
// aggregate statistics. Flow payload sizes are taken from Data (in
// elements, converted with the machine's element size); routes must be
// valid as in Run, and endpoints must lie in the n-cube.
func CutThrough(n int, p machine.Params, flows []Flow) (CutThroughStats, error) {
	type pending struct {
		idx    int
		lo, hi int // the flow's links are edges[lo:hi]
		dur    float64
		bytes  int
	}
	var st CutThroughStats
	if n < 0 || n > 30 {
		return st, fmt.Errorf("router: cube dimension %d out of range [0,30]", n)
	}
	N := uint64(1) << uint(n)

	// Links are numbered densely in order of first use, so the scheduling
	// scan below indexes a slice per edge instead of hashing a linkID; the
	// map is touched once per edge here and holds only the links some flow
	// uses.
	type linkID struct {
		from uint64
		dim  int
	}
	links := make(map[linkID]int32)
	var edges []int32
	items := make([]pending, 0, len(flows))
	for i, f := range flows {
		if f.Src >= N || f.Dst >= N {
			return st, fmt.Errorf("router: flow %d endpoints %d -> %d outside the %d-cube", i, f.Src, f.Dst, n)
		}
		x := f.Src
		lo := len(edges)
		for _, d := range f.Dims {
			if d < 0 || d >= n {
				return st, fmt.Errorf("router: flow %d dimension %d out of range", i, d)
			}
			id := linkID{from: x, dim: d}
			e, ok := links[id]
			if !ok {
				e = int32(len(links))
				links[id] = e
			}
			edges = append(edges, e)
			x ^= 1 << uint(d)
		}
		if x != f.Dst {
			return st, fmt.Errorf("router: flow %d route ends at %d, not %d", i, x, f.Dst)
		}
		hops := len(edges) - lo
		if hops == 0 {
			continue // local
		}
		bytes := len(f.Data) * p.ElemBytes
		// One start-up, per-hop header latency, pipelined body.
		dur := p.Tau + float64(hops-1)*HopLatency*p.Tau + float64(bytes)*p.Tc
		items = append(items, pending{idx: i, lo: lo, hi: len(edges), dur: dur, bytes: bytes})
	}
	linkFree := make([]float64, len(links))
	linkBytes := make([]int64, len(links))

	// The pick below orders by (start time, flow index) explicitly, so the
	// order of remaining is free and a scheduled flow is removed by swapping
	// the last one into its place.
	remaining := items
	for len(remaining) > 0 {
		// Pick the flow that can start earliest (ties by flow index).
		best := -1
		bestT := math.Inf(1)
		for j := range remaining {
			it := &remaining[j]
			t := 0.0
			for _, e := range edges[it.lo:it.hi] {
				if f := linkFree[e]; f > t {
					t = f
				}
			}
			if t < bestT || (t == bestT && (best < 0 || it.idx < remaining[best].idx)) {
				bestT = t
				best = j
			}
		}
		it := remaining[best]
		remaining[best] = remaining[len(remaining)-1]
		remaining = remaining[:len(remaining)-1]
		end := bestT + it.dur
		for _, e := range edges[it.lo:it.hi] {
			linkFree[e] = end
			linkBytes[e] += int64(it.bytes)
		}
		st.Startups++
		st.Bytes += int64(it.bytes)
		if bestT > st.MaxWait {
			st.MaxWait = bestT
		}
		if end > st.Time {
			st.Time = end
		}
	}
	for _, b := range linkBytes {
		if b > st.MaxLinkBytes {
			st.MaxLinkBytes = b
		}
	}
	return st, nil
}

// EcubeCutThroughAllPairs schedules one cut-through flow per (src, dst)
// pair of the permutation perm with `elems` elements each, over e-cube
// routes — the Connection Machine "routing logic" model.
func EcubeCutThroughAllPairs(n int, p machine.Params, perm func(uint64) uint64, elems int) (CutThroughStats, error) {
	if n < 0 || n > 30 {
		return CutThroughStats{}, fmt.Errorf("router: cube dimension %d out of range [0,30]", n)
	}
	N := uint64(1) << uint(n)
	flows := make([]Flow, 0, N)
	for s := uint64(0); s < N; s++ {
		d := perm(s)
		if d == s {
			continue
		}
		flows = append(flows, Flow{Src: s, Dst: d, Dims: Ecube(s, d, n),
			Data: make([]float64, elems)})
	}
	// Deterministic order.
	sort.Slice(flows, func(a, b int) bool { return flows[a].Src < flows[b].Src })
	return CutThrough(n, p, flows)
}
