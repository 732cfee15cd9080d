package plan

import (
	"fmt"
	"math/bits"
	"slices"

	"boolcube/internal/router"
)

// This file is the plan-side half of checkpoint/resume: a Delivered set
// records which parts of the canonical move-set a (possibly failed)
// execution has already placed at their destinations, and Remaining derives
// the residual move-set — exactly the element ranges still in flight when
// the run aborted. The residual is expressed against the same canonical
// (src, dst) payload ordering every executor uses (Moves), so a resumed
// execution finishes into the same destination arrays bit-identically to an
// uninterrupted run, whatever routes it picks for the leftovers.

// Span is a half-open range [Off, Off+Len) within the canonical payload of
// one (src, dst) pair.
type Span struct {
	Off, Len int
}

type pairKey struct{ src, dst uint64 }

// Delivered records, per (src, dst) processor pair, which spans of the
// canonical payload have been delivered and placed. It is built host-side
// (after an engine run has fully unwound), so it needs no synchronization;
// spans are normalized lazily on read.
type Delivered struct {
	m map[pairKey][]Span
}

// NewDelivered returns an empty delivery record.
func NewDelivered() *Delivered {
	return &Delivered{m: make(map[pairKey][]Span)}
}

// Add records delivery of the [off, off+n) span of the (src, dst) canonical
// payload. Overlapping and adjacent spans are coalesced on read.
func (d *Delivered) Add(src, dst uint64, off, n int) {
	if n <= 0 {
		return
	}
	k := pairKey{src, dst}
	d.m[k] = append(d.m[k], Span{Off: off, Len: n})
}

// normalize sorts and coalesces one pair's spans in place, returning the
// canonical form.
func normalize(spans []Span) []Span {
	if len(spans) <= 1 {
		return spans
	}
	slices.SortFunc(spans, func(a, b Span) int { return a.Off - b.Off })
	out := spans[:1]
	for _, s := range spans[1:] {
		last := &out[len(out)-1]
		if s.Off <= last.Off+last.Len {
			if end := s.Off + s.Len; end > last.Off+last.Len {
				last.Len = end - last.Off
			}
			continue
		}
		out = append(out, s)
	}
	return out
}

// Spans returns the delivered spans of one pair, sorted and coalesced. The
// returned slice is owned by the Delivered set.
func (d *Delivered) Spans(src, dst uint64) []Span {
	k := pairKey{src, dst}
	ns := normalize(d.m[k])
	if ns != nil {
		d.m[k] = ns
	}
	return ns
}

// Clone returns an independent deep copy of the delivery record. The
// multi-tenant service uses it to hand each tenant of a batched execution
// its own checkpoint: the tenants share the failed round's progress but
// must be resumable independently.
func (d *Delivered) Clone() *Delivered {
	out := NewDelivered()
	for k, spans := range d.m {
		out.m[k] = append([]Span(nil), spans...)
	}
	return out
}

// Elems returns the total number of delivered elements across all pairs.
func (d *Delivered) Elems() int {
	total := 0
	for k := range d.m {
		for _, s := range d.Spans(k.src, k.dst) {
			total += s.Len
		}
	}
	return total
}

// Residual is one undelivered range of one (src, dst) canonical payload —
// the unit of work a resumed execution must still move.
type Residual struct {
	Src, Dst uint64
	Off, Len int
}

func (r Residual) String() string {
	return fmt.Sprintf("%d->%d [%d,%d)", r.Src, r.Dst, r.Off, r.Off+r.Len)
}

// DirectSpans turns the network (src != dst) residuals into direct spans on
// an n-cube, in order: each carries its range, a dimension-order route and
// the given packet count; self pairs are skipped. The spans and their
// routes are cut from two presized arenas, not allocated one by one. Nil
// when no residual crosses a link.
func DirectSpans(res []Residual, n, packets int) []Flow {
	spans, hops := 0, 0
	for _, r := range res {
		if r.Src != r.Dst {
			spans++
			hops += bits.OnesCount64(r.Src ^ r.Dst)
		}
	}
	if spans == 0 {
		return nil
	}
	out := make([]Flow, 0, spans)
	route := make([]int, 0, hops)
	for _, r := range res {
		if r.Src == r.Dst {
			continue
		}
		lo := len(route)
		route = router.AppendEcube(route, r.Src, r.Dst, n)
		out = append(out, Flow{Src: r.Src, Dst: r.Dst, Off: r.Off, Len: r.Len,
			Dims: route[lo:len(route):len(route)], Packets: packets})
	}
	return out
}

// Remaining derives the residual move-set: for every (src, dst) pair of the
// plan's move-set — including the src == dst self pairs, which a resumed
// execution replays locally — the complement of the delivered spans within
// [0, PayloadLen). The result is in deterministic order (ascending src,
// self pair first, then ascending dst; ranges ascending), and empty exactly
// when the delivered set covers the whole move-set.
//
// delivered == nil means nothing was delivered: Remaining returns the full
// move-set.
func (p *Plan) Remaining(delivered *Delivered) []Residual {
	mv := p.moves
	var out []Residual
	appendPair := func(src, dst uint64) {
		total := mv.PayloadLen(src, dst)
		if total == 0 {
			return
		}
		next := 0
		if delivered != nil {
			for _, s := range delivered.Spans(src, dst) {
				if s.Off > next {
					out = append(out, Residual{Src: src, Dst: dst, Off: next, Len: s.Off - next})
				}
				if end := s.Off + s.Len; end > next {
					next = end
				}
			}
		}
		if next < total {
			out = append(out, Residual{Src: src, Dst: dst, Off: next, Len: total - next})
		}
	}
	for sp := 0; sp < mv.Before().N(); sp++ {
		src := uint64(sp)
		appendPair(src, src)
		for _, dst := range mv.Destinations(src) {
			appendPair(src, dst)
		}
	}
	return out
}
