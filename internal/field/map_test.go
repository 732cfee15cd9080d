package field

import (
	"fmt"
	mathbits "math/bits"
	"testing"

	"boolcube/internal/bits"
	"boolcube/internal/gray"
)

// The bit-at-a-time address arithmetic the run-based Map replaced, kept as
// the reference: masks rebuilt from Fields on every call, one loop
// iteration per address bit.

func refProc(l Layout, w uint64) uint64 {
	var proc uint64
	for _, f := range l.Fields {
		fw := f.Width()
		val := (w >> uint(f.Lo)) & bits.Mask(fw)
		if f.Enc == Gray {
			val = gray.Encode(val) & bits.Mask(fw)
		}
		proc = proc<<uint(fw) | val
	}
	return proc
}

func refVirtualMask(l Layout) uint64 {
	var real uint64
	for _, f := range l.Fields {
		real |= bits.Mask(f.Width()) << uint(f.Lo)
	}
	return bits.Mask(l.M()) &^ real
}

func refLocal(l Layout, w uint64) uint64 {
	var local uint64
	shift := 0
	for m := refVirtualMask(l); m != 0; m &= m - 1 {
		local |= (w >> uint(mathbits.TrailingZeros64(m)) & 1) << uint(shift)
		shift++
	}
	return local
}

func refAddr(l Layout, proc, local uint64) uint64 {
	var w uint64
	shift := l.NBits()
	for _, f := range l.Fields {
		fw := f.Width()
		shift -= fw
		val := (proc >> uint(shift)) & bits.Mask(fw)
		if f.Enc == Gray {
			val = gray.Decode(val) & bits.Mask(fw)
		}
		w |= val << uint(f.Lo)
	}
	i := 0
	for m := refVirtualMask(l); m != 0; m &= m - 1 {
		w |= (local >> uint(i)) & 1 << uint(mathbits.TrailingZeros64(m))
		i++
	}
	return w
}

// mapLayouts lists every constructor of field.go that is valid on a 2^p x
// 2^q matrix with n processor dimensions (the 16 one-dimensional embeddings
// of Tables 1 and 2, the two-dimensional variants of Section 6 and the
// banded example), plus Parse'd custom specs and hand-built layouts of many
// one-bit fields in non-monotone Lo order.
func mapLayouts(t testing.TB, p, q, n int) []Layout {
	var ls []Layout
	for _, enc := range []Encoding{Binary, Gray} {
		other := Gray - enc
		if n <= p {
			ls = append(ls, OneDimConsecutiveRows(p, q, n, enc), OneDimCyclicRows(p, q, n, enc))
		}
		if n <= q {
			ls = append(ls, OneDimConsecutiveCols(p, q, n, enc), OneDimCyclicCols(p, q, n, enc))
		}
		for off := 1; off+n <= p; off++ {
			ls = append(ls, CombinedContiguous(p, q, n, off, true, enc))
		}
		for off := 1; off+n <= q; off++ {
			ls = append(ls, CombinedContiguous(p, q, n, off, false, enc))
		}
		for s := 1; s < n; s++ {
			if n <= p {
				ls = append(ls, CombinedSplit(p, q, n, s, true, enc))
			}
			if n <= q {
				ls = append(ls, CombinedSplit(p, q, n, s, false, enc))
			}
		}
		for nr := 0; nr <= n; nr++ {
			if nc := n - nr; nr <= p && nc <= q {
				ls = append(ls,
					TwoDimConsecutive(p, q, nr, nc, enc),
					TwoDimCyclic(p, q, nr, nc, enc),
					TwoDimMixed(p, q, nr, nc, enc),
					TwoDimEncoded(p, q, nr, nc, enc, other))
			}
		}
		for nc := 0; 2*nc <= n; nc++ {
			if s := n - 2*nc; p-s >= q && q >= nc {
				ls = append(ls, BandedCombined(p, q, nc, s, enc))
			}
		}
	}
	if m := p + q; n >= 1 && n <= m {
		// n one-bit fields with alternating encodings: the odd address bits
		// from the top down, then the even ones from the bottom up — every
		// virtual run one bit wide, Lo order non-monotone.
		scattered := Layout{P: p, Q: q, Name: "scattered"}
		var order []int
		for lo := m - 1; lo >= 0; lo-- {
			if lo%2 == 1 {
				order = append(order, lo)
			}
		}
		for lo := 0; lo < m; lo += 2 {
			order = append(order, lo)
		}
		for i, lo := range order[:n] {
			scattered.Fields = append(scattered.Fields, Field{Lo: lo, Hi: lo + 1, Enc: Encoding(i % 2)})
		}
		ls = append(ls, scattered)
		spec := fmt.Sprintf("custom([%d,%d):gray)", m-n, m)
		if n >= 2 {
			spec = fmt.Sprintf("custom([0,1)+[%d,%d):gray)", m-n+1, m)
		}
		parsed, err := Parse(spec, p, q, n)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		ls = append(ls, parsed)
	}
	return ls
}

// checkParts holds the two halves of Addr to their contract for the element
// w = Addr(proc, local): they share no bit and OR back to w.
func checkParts(t testing.TB, l Layout, mp *Map, proc, local, w uint64) {
	pp, lp := mp.ProcPart(proc), mp.LocalPart(local)
	if pp&lp != 0 || pp|lp != w {
		t.Fatalf("%s: ProcPart(%d) = %#b, LocalPart(%d) = %#b, want disjoint and OR %#b", l, proc, pp, local, lp, w)
	}
}

// checkMap holds a compiled Map, and the per-element Layout functions, to
// the bit-at-a-time reference on every element of the matrix.
func checkMap(t testing.TB, l Layout) {
	mp, err := l.Map()
	if err != nil {
		t.Fatalf("%s: %v", l, err)
	}
	for w := uint64(0); w < 1<<uint(l.M()); w++ {
		proc, local := mp.Proc(w), mp.Local(w)
		if rp, rl := refProc(l, w), refLocal(l, w); proc != rp || local != rl {
			t.Fatalf("%s: w=%#b -> (%d,%d), reference (%d,%d)", l, w, proc, local, rp, rl)
		}
		if got, ref := mp.Addr(proc, local), refAddr(l, proc, local); got != w || ref != w {
			t.Fatalf("%s: Addr(%d,%d) = %#b, reference %#b, want %#b", l, proc, local, got, ref, w)
		}
		checkParts(t, l, &mp, proc, local, w)
		u, v := w>>uint(l.Q), w&^(^uint64(0)<<uint(l.Q))
		if l.ProcOf(u, v) != proc || l.LocalOf(u, v) != local {
			t.Fatalf("%s: per-element (%d,%d) -> (%d,%d), Map (%d,%d)",
				l, u, v, l.ProcOf(u, v), l.LocalOf(u, v), proc, local)
		}
		if gu, gv := l.ElementOf(proc, local); gu != u || gv != v {
			t.Fatalf("%s: ElementOf(%d,%d) = (%d,%d), want (%d,%d)", l, proc, local, gu, gv, u, v)
		}
	}
}

func TestMapAgreesWithReference(t *testing.T) {
	shapes := []struct{ p, q int }{
		{6, 6}, {4, 8}, {7, 3}, {3, 4}, {1, 1}, {0, 5}, {5, 0}, {0, 1},
	}
	checked := 0
	for _, s := range shapes {
		for n := 0; n <= s.p+s.q && n <= 7; n++ {
			for _, l := range mapLayouts(t, s.p, s.q, n) {
				checkMap(t, l)
				checked++
			}
		}
	}
	if checked < 500 {
		t.Errorf("only %d layouts checked; the constructor table shrank", checked)
	}
}

// refBlock is Map.Block bit by bit: the local bit of `to` each local bit of
// `from` lands on after the rotation (-1 on a processor bit), and the
// longest prefix of those that climbs by one from its first.
func refBlock(from, to Layout, rot int) (k, at int) {
	m := from.M()
	for i := 0; i < m-from.NBits(); i++ {
		w := refAddr(from, 0, 1<<uint(i))
		w = (w<<uint(rot) | w>>uint(m-rot)) & bits.Mask(m)
		local := refLocal(to, w)
		if refProc(to, w) != 0 || local == 0 {
			return k, at
		}
		pos := mathbits.TrailingZeros64(local)
		if k == 0 {
			at = pos
		} else if pos != at+k {
			return k, at
		}
		k++
	}
	return k, at
}

// Block agrees with the bit-at-a-time reference on every pair of
// constructor layouts, transposing (rotation p) and repartitioning (none).
func TestBlockAgreesWithReference(t *testing.T) {
	pairs := 0
	for _, s := range []struct{ p, q int }{{4, 3}, {0, 4}, {3, 0}, {2, 2}} {
		for n := 0; n <= 3; n++ {
			for _, from := range mapLayouts(t, s.p, s.q, n) {
				fm, _ := from.Map()
				for _, tr := range []struct{ p, q, rot int }{{s.q, s.p, s.p}, {s.p, s.q, 0}} {
					for na := 0; na <= 3; na++ {
						for _, to := range mapLayouts(t, tr.p, tr.q, na) {
							tm, _ := to.Map()
							k, at := fm.Block(&tm, tr.rot)
							if rk, rat := refBlock(from, to, tr.rot); k != rk || k > 0 && at != rat {
								t.Fatalf("%s -> %s (rot %d): Block = (%d,%d), reference (%d,%d)", from, to, tr.rot, k, at, rk, rat)
							}
							pairs++
						}
					}
				}
			}
		}
	}
	if pairs < 1000 {
		t.Errorf("only %d layout pairs checked", pairs)
	}
}

// Map rejects what Validate rejects, with Validate's error.
func TestMapRejectsInvalidLayouts(t *testing.T) {
	for _, l := range []Layout{
		{P: 2, Q: 2, Fields: []Field{{Lo: 0, Hi: 2}, {Lo: 1, Hi: 3}}}, // overlap
		{P: 2, Q: 2, Fields: []Field{{Lo: 2, Hi: 5}}},                 // past m
		{P: 2, Q: 2, Fields: []Field{{Lo: -1, Hi: 1}}},                // below 0
		{P: 2, Q: 2, Fields: []Field{{Lo: 2, Hi: 2}}},                 // empty field
		{P: 0, Q: 0},   // no address bits
		{P: 40, Q: 30}, // too wide
		{P: -1, Q: 4},
	} {
		_, err := l.Map()
		if verr := l.Validate(); err == nil || verr == nil || err.Error() != verr.Error() {
			t.Errorf("%v: Map() error %v, Validate() error %v", l, err, verr)
		}
	}
}

// The column-vector inverse: with Q == 0 there is no column index, so
// ElementOf must return v = 0 (it used to return u & 1).
func TestElementOfColumnVector(t *testing.T) {
	l := Layout{P: 3, Q: 0, Fields: []Field{{Lo: 1, Hi: 3, Enc: Gray}}}
	if u, v := l.ElementOf(l.ProcOf(5, 0), l.LocalOf(5, 0)); u != 5 || v != 0 {
		t.Errorf("ElementOf on a column vector = (%d,%d), want (5,0)", u, v)
	}
}
