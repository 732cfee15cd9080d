package field

import "testing"

// FuzzLayoutRoundTrip drives the (ProcOf, LocalOf) -> ElementOf inverse
// through arbitrary layout parameters and elements.
func FuzzLayoutRoundTrip(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint8(2), uint8(0), uint16(7), uint16(11))
	f.Add(uint8(5), uint8(3), uint8(3), uint8(1), uint16(30), uint16(5))
	f.Add(uint8(2), uint8(6), uint8(4), uint8(3), uint16(1), uint16(60))
	f.Add(uint8(3), uint8(0), uint8(2), uint8(0), uint16(5), uint16(0))  // column vector
	f.Add(uint8(0), uint8(5), uint8(3), uint8(1), uint16(0), uint16(21)) // row vector
	f.Fuzz(func(t *testing.T, ps, qs, ns, kind uint8, us, vs uint16) {
		// Either index may be empty (a vector), but not both: a layout
		// needs at least one address bit.
		p := int(ps) % 7
		q := int(qs) % 7
		if p+q == 0 {
			q = 1
		}
		var l Layout
		switch kind % 4 {
		case 0:
			n := int(ns) % (p + 1)
			l = OneDimConsecutiveRows(p, q, n, Binary)
		case 1:
			n := int(ns) % (q + 1)
			l = OneDimCyclicCols(p, q, n, Gray)
		case 2:
			nr := int(ns) % (min(p, q) + 1)
			l = TwoDimConsecutive(p, q, nr, nr, Gray)
		default:
			nr := int(ns) % (min(p, q) + 1)
			l = TwoDimCyclic(p, q, nr, nr, Binary)
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("constructor produced invalid layout: %v", err)
		}
		u := uint64(us) % (1 << uint(p))
		v := uint64(vs) % (1 << uint(q))
		proc, local := l.ProcOf(u, v), l.LocalOf(u, v)
		if proc >= uint64(l.N()) {
			t.Fatalf("proc %d out of range", proc)
		}
		if local >= uint64(l.LocalSize()) {
			t.Fatalf("local %d out of range", local)
		}
		gu, gv := l.ElementOf(proc, local)
		if gu != u || gv != v {
			t.Fatalf("%s: roundtrip (%d,%d) -> (%d,%d)", l, u, v, gu, gv)
		}
	})
}

// FuzzMapAgrees builds a layout from raw bytes — any number of fields, any
// order, any widths — and holds the compiled Map to the bit-at-a-time
// reference on one element; a layout Validate rejects must be rejected by
// Map the same way.
func FuzzMapAgrees(f *testing.F) {
	f.Add(uint8(4), uint8(4), []byte{6, 2, 1, 0, 2, 0}, uint16(0xbeef))
	f.Add(uint8(6), uint8(6), []byte{7, 1, 1, 2, 1, 0, 11, 1, 1, 4, 1, 0, 9, 1, 1, 0, 1, 0}, uint16(0x5a5))
	f.Add(uint8(5), uint8(0), []byte{1, 2, 1}, uint16(21))
	f.Add(uint8(2), uint8(2), []byte{0, 2, 0, 1, 2, 0}, uint16(3)) // overlap
	f.Fuzz(func(t *testing.T, ps, qs uint8, fields []byte, ws uint16) {
		l := Layout{P: int(ps) % 7, Q: int(qs) % 7, Name: "fuzz"}
		for ; len(fields) >= 3; fields = fields[3:] {
			lo := int(fields[0]) % 13
			l.Fields = append(l.Fields, Field{Lo: lo, Hi: lo + int(fields[1])%5, Enc: Encoding(fields[2] % 2)})
		}
		mp, err := l.Map()
		if verr := l.Validate(); verr != nil {
			if err == nil || err.Error() != verr.Error() {
				t.Fatalf("%s: Validate says %v, Map says %v", l, verr, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("%s: valid layout rejected by Map: %v", l, err)
		}
		w := uint64(ws) % (1 << uint(l.M()))
		proc, local := mp.Proc(w), mp.Local(w)
		if rp, rl := refProc(l, w), refLocal(l, w); proc != rp || local != rl {
			t.Fatalf("%s: w=%#b -> (%d,%d), reference (%d,%d)", l, w, proc, local, rp, rl)
		}
		if proc >= uint64(l.N()) || local >= uint64(l.LocalSize()) {
			t.Fatalf("%s: (%d,%d) out of range", l, proc, local)
		}
		if got := mp.Addr(proc, local); got != w {
			t.Fatalf("%s: Addr(%d,%d) = %#b, want %#b", l, proc, local, got, w)
		}
		checkParts(t, l, &mp, proc, local, w)
	})
}
