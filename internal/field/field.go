// Package field describes how the m = p+q address bits of a 2^p x 2^q matrix
// are split between real-processor dimensions and virtual-processor (local
// storage) dimensions, following Section 2 of the paper.
//
// The address of element a(u,v) is w = (u || v): the p highest-order bits
// encode the row index and the q lowest-order bits the column index. A
// Layout selects an ordered list of bit-fields of w as the real processor
// address; the remaining bits, read from high to low, form the local
// (virtual processor) address. Each real field may be encoded in binary or
// binary-reflected Gray code, producing the 16 one-dimensional embeddings of
// the paper's Tables 1 and 2 and the two-dimensional variants of Section 6.
package field

import (
	"fmt"
	mathbits "math/bits"
	"strings"

	"boolcube/internal/bits"
	"boolcube/internal/gray"
)

// Encoding selects how a real-processor bit-field is encoded.
type Encoding int

const (
	// Binary leaves the field bits as they are.
	Binary Encoding = iota
	// Gray applies the binary-reflected Gray code to the field.
	Gray
)

func (e Encoding) String() string {
	if e == Gray {
		return "gray"
	}
	return "binary"
}

// Field is one contiguous run of element-address bits used for real
// processor addressing. Bits [Lo, Hi) of the element address w form the
// field, with Hi-1 the field's most significant bit.
type Field struct {
	Lo, Hi int
	Enc    Encoding
}

// Width returns the number of bits in the field.
func (f Field) Width() int { return f.Hi - f.Lo }

// Layout maps matrix elements to processors and local storage slots.
type Layout struct {
	P, Q   int     // row bits p and column bits q; the matrix is 2^P x 2^Q
	Fields []Field // real-processor fields, most significant first
	Name   string  // human-readable description, e.g. "1d-cyclic-cols/binary"
}

// M returns the total number of element address bits, p+q.
func (l Layout) M() int { return l.P + l.Q }

// N returns the number of real processors 2^n used by the layout.
func (l Layout) N() int {
	n := l.NBits()
	if n < 0 || n > 62 {
		panic(fmt.Sprintf("field: %d real-processor bits out of range [0,62]", n))
	}
	return 1 << uint(n)
}

// checkShape panics when the layout's widths cannot index a 64-bit element
// address. Constructors and Validate bound this, but Layout is a plain
// struct and can be built by hand, so the address arithmetic re-checks
// before shifting.
func (l Layout) checkShape() {
	if l.P < 0 || l.Q < 0 || l.P+l.Q > 62 {
		panic(fmt.Sprintf("field: bad matrix shape p=%d q=%d", l.P, l.Q))
	}
}

// NBits returns the number of real-processor dimensions n.
func (l Layout) NBits() int {
	n := 0
	for _, f := range l.Fields {
		n += f.Width()
	}
	return n
}

// Validate checks internal consistency: fields in range, non-overlapping.
func (l Layout) Validate() error {
	m := l.M()
	if l.P < 0 || l.Q < 0 || m < 1 || m > 62 {
		return fmt.Errorf("field: bad matrix shape p=%d q=%d", l.P, l.Q)
	}
	used := make([]bool, m)
	for _, f := range l.Fields {
		if f.Lo < 0 || f.Hi > m || f.Lo >= f.Hi {
			return fmt.Errorf("field: field [%d,%d) out of range m=%d", f.Lo, f.Hi, m)
		}
		for i := f.Lo; i < f.Hi; i++ {
			if used[i] {
				return fmt.Errorf("field: bit %d used by two fields", i)
			}
			used[i] = true
		}
	}
	return nil
}

// realMask returns the element-address bits used for real processors as a
// bitmask. Fields are validated non-overlapping, so OR-ing them is exact.
func (l Layout) realMask() uint64 {
	var m uint64
	for _, f := range l.Fields {
		m |= bits.Mask(f.Width()) << uint(f.Lo)
	}
	return m
}

// virtualMask returns the element-address bits used for virtual processors
// (local addresses) as a bitmask: every address bit not in a real field.
func (l Layout) virtualMask() uint64 {
	return bits.Mask(l.M()) &^ l.realMask()
}

// RealBits returns the set of element-address bit positions used for real
// processors (the paper's R for this layout), in ascending order.
func (l Layout) RealBits() []int {
	return maskBits(l.realMask())
}

// VirtualBits returns the element-address bit positions used for virtual
// processors (local addresses), in ascending order.
func (l Layout) VirtualBits() []int {
	return maskBits(l.virtualMask())
}

// maskBits expands a bitmask into its set positions, ascending.
func maskBits(m uint64) []int {
	out := make([]int, 0, mathbits.OnesCount64(m))
	for ; m != 0; m &= m - 1 {
		out = append(out, mathbits.TrailingZeros64(m))
	}
	return out
}

// addr computes the concatenated element address w = (u || v).
func (l Layout) addr(u, v uint64) uint64 {
	l.checkShape()
	return u<<uint(l.Q) | v
}

// seg is one maximal run of element-address bits that moves as a unit: bits
// [lo, lo+width) of w are bits [out, out+width) of the processor address (a
// real field, Gray-coded when gray is set) or of the local address (a run of
// virtual bits). Every address function is an OR of seg moves.
type seg struct {
	mask    uint64 // width ones
	lo, out uint8
	gray    bool
}

func (s seg) width() int { return mathbits.OnesCount64(s.mask) }

// get moves the segment's bits of w to their processor/local position. The
// Gray code of a field value is v ^ v>>1, which stays inside the field.
func (s seg) get(w uint64) uint64 {
	v := w >> s.lo & s.mask
	if s.gray {
		v ^= v >> 1
	}
	return v << s.out
}

// put is the inverse of get: processor/local bits back to their place in w.
func (s seg) put(x uint64) uint64 {
	v := x >> s.out & s.mask
	if s.gray {
		v = gray.Decode(v)
	}
	return v << s.lo
}

// appendReal appends the real fields as segments. The last field holds the
// least significant processor bits.
func appendReal(segs []seg, fields []Field) []seg {
	out := 0
	for i := len(fields) - 1; i >= 0; i-- {
		f := fields[i]
		segs = append(segs, seg{lo: uint8(f.Lo), out: uint8(out), mask: bits.Mask(f.Width()), gray: f.Enc == Gray})
		out += f.Width()
	}
	return segs
}

// appendRuns appends the maximal contiguous runs of the virtual mask vm,
// ascending: the lowest virtual address bit is the lowest local bit, so the
// local address reads the virtual bits of w in their order of significance.
func appendRuns(segs []seg, vm uint64) []seg {
	out := 0
	for vm != 0 {
		lo := mathbits.TrailingZeros64(vm)
		width := mathbits.TrailingZeros64(^(vm >> uint(lo)))
		mask := bits.Mask(width)
		segs = append(segs, seg{lo: uint8(lo), out: uint8(out), mask: mask})
		out += width
		vm &^= mask << uint(lo)
	}
	return segs
}

// Map is a Layout compiled for address arithmetic over whole matrices: the
// real fields and the virtual runs as segment lists, validated once, so each
// address costs one shift-mask-or per field or run. Elements are named by
// their address w = (u || v); for a fixed processor, ascending local slot is
// ascending w.
type Map struct {
	real, virt []seg
}

// Map validates the layout and compiles it.
func (l Layout) Map() (Map, error) {
	if err := l.Validate(); err != nil {
		return Map{}, err
	}
	return l.compile(nil, nil), nil
}

// compile builds the layout's Map into the given buffers, unvalidated.
func (l Layout) compile(real, virt []seg) Map {
	real = appendReal(real, l.Fields)
	vm := bits.Mask(l.M())
	for _, s := range real {
		vm &^= s.mask << s.lo
	}
	return Map{real: real, virt: appendRuns(virt, vm)}
}

// Proc returns the real processor address holding element w.
func (m *Map) Proc(w uint64) (proc uint64) {
	for _, s := range m.real {
		proc |= s.get(w)
	}
	return proc
}

// Local returns the local storage slot of element w within its processor.
func (m *Map) Local(w uint64) (local uint64) {
	for _, s := range m.virt {
		local |= s.get(w)
	}
	return local
}

// ProcPart returns the address bits a processor fixes: the bits of w that
// every element held by proc shares. It is the loop-invariant half of Addr
// for a walk over one processor's slots.
func (m *Map) ProcPart(proc uint64) (w uint64) {
	for _, s := range m.real {
		w |= s.put(proc)
	}
	return w
}

// LocalPart returns the address bits a local slot fixes. The real fields and
// the virtual runs partition the address, so ProcPart and LocalPart never
// share a bit.
func (m *Map) LocalPart(local uint64) (w uint64) {
	for _, s := range m.virt {
		w |= s.put(local)
	}
	return w
}

// Addr inverts (Proc, Local): the address of the element a processor holds
// in a local slot.
func (m *Map) Addr(proc, local uint64) uint64 {
	return m.ProcPart(proc) | m.LocalPart(local)
}

// Block measures how much of m's local order survives into to when every
// address is rotated left by rot bits within the p+q address bits (the
// paper's sh^p for a transpose, 0 for a repartitioning). It returns the
// largest k such that m's local bits [0, k) become to's local bits
// [at, at+k), in order. Any aligned run of 2^k slots of one processor under m
// then lands on one processor under to, at slots spaced 2^at apart: the
// bits that vary inside the run are virtual on both sides, so they touch no
// processor bit and no Gray-coded field.
func (m *Map) Block(to *Map, rot int) (k, at int) {
	width := 0
	for _, s := range m.real {
		width += s.width()
	}
	for _, s := range m.virt {
		width += s.width()
	}
	for _, s := range m.virt {
		for b := int(s.lo); b < int(s.lo)+s.width(); b++ {
			pos, ok := to.localBit((b + rot) % width)
			if !ok || k > 0 && pos != at+k {
				return k, at
			}
			if k == 0 {
				at = pos
			}
			k++
		}
	}
	return k, at
}

// localBit returns the local-address bit that address bit b is stored in,
// or false when b is a processor bit.
func (m *Map) localBit(b int) (int, bool) {
	for _, s := range m.virt {
		if b >= int(s.lo) && b < int(s.lo)+s.width() {
			return int(s.out) + b - int(s.lo), true
		}
	}
	return 0, false
}

// The per-element functions below are the same arithmetic on a Map compiled
// into a stack buffer per call (unvalidated, like the hand-built layouts
// they accept); loops over whole matrices compile a Map once instead.

// ProcOf returns the real processor address holding element (u, v).
// The first field contributes the most significant processor bits.
func (l Layout) ProcOf(u, v uint64) uint64 {
	var buf [4]seg
	m := Map{real: appendReal(buf[:0], l.Fields)}
	return m.Proc(l.addr(u, v))
}

// LocalOf returns the local storage slot of element (u, v) within its
// processor: the virtual-processor bits of w in their order of significance.
func (l Layout) LocalOf(u, v uint64) uint64 {
	var rbuf, vbuf [4]seg
	m := l.compile(rbuf[:0], vbuf[:0])
	return m.Local(l.addr(u, v))
}

// LocalSize returns the number of elements stored per processor, 2^(m-n).
func (l Layout) LocalSize() int {
	k := l.M() - l.NBits()
	if k < 0 || k > 62 {
		panic(fmt.Sprintf("field: %d virtual-processor bits out of range [0,62]", k))
	}
	return 1 << uint(k)
}

// ElementOf inverts (proc, local) back to the element (u, v). It is the
// exact inverse of ProcOf/LocalOf and is used by placement verification.
func (l Layout) ElementOf(proc, local uint64) (u, v uint64) {
	l.checkShape()
	var rbuf, vbuf [4]seg
	m := l.compile(rbuf[:0], vbuf[:0])
	w := m.Addr(proc, local)
	return w >> uint(l.Q), w &^ (^uint64(0) << uint(l.Q))
}

// String renders the layout for diagnostics and golden tests.
func (l Layout) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s p=%d q=%d n=%d [", l.Name, l.P, l.Q, l.NBits())
	for i, f := range l.Fields {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s[%d,%d)", f.Enc, f.Lo, f.Hi)
	}
	sb.WriteByte(']')
	return sb.String()
}

// --- Constructors (Tables 1 and 2 and Section 6) ---

// trim drops zero-width fields so that n=0 (or nr/nc=0) partitionings are
// well-formed single-processor layouts.
func trim(l Layout) Layout {
	kept := l.Fields[:0:0]
	for _, f := range l.Fields {
		if f.Width() > 0 {
			kept = append(kept, f)
		}
	}
	l.Fields = kept
	return l
}

// OneDimConsecutiveRows assigns block rows consecutively: the n highest
// order row bits are the processor address (Table 1, "Binary, Row",
// consecutive).
func OneDimConsecutiveRows(p, q, n int, enc Encoding) Layout {
	m := p + q
	return trim(Layout{P: p, Q: q, Name: "1d-consecutive-rows/" + enc.String(),
		Fields: []Field{{Lo: m - n, Hi: m, Enc: enc}}})
}

// OneDimCyclicRows assigns rows cyclically: the n lowest order row bits are
// the processor address.
func OneDimCyclicRows(p, q, n int, enc Encoding) Layout {
	return trim(Layout{P: p, Q: q, Name: "1d-cyclic-rows/" + enc.String(),
		Fields: []Field{{Lo: q, Hi: q + n, Enc: enc}}})
}

// OneDimConsecutiveCols assigns block columns consecutively: the n highest
// order column bits are the processor address.
func OneDimConsecutiveCols(p, q, n int, enc Encoding) Layout {
	return trim(Layout{P: p, Q: q, Name: "1d-consecutive-cols/" + enc.String(),
		Fields: []Field{{Lo: q - n, Hi: q, Enc: enc}}})
}

// OneDimCyclicCols assigns columns cyclically: the n lowest order column
// bits are the processor address.
func OneDimCyclicCols(p, q, n int, enc Encoding) Layout {
	return trim(Layout{P: p, Q: q, Name: "1d-cyclic-cols/" + enc.String(),
		Fields: []Field{{Lo: 0, Hi: n, Enc: enc}}})
}

// TwoDimConsecutive partitions into 2^nr x 2^nc consecutive blocks: the nr
// highest row bits and nc highest column bits form the processor address
// (row field most significant).
func TwoDimConsecutive(p, q, nr, nc int, enc Encoding) Layout {
	m := p + q
	return trim(Layout{P: p, Q: q, Name: "2d-consecutive/" + enc.String(),
		Fields: []Field{
			{Lo: m - nr, Hi: m, Enc: enc},
			{Lo: q - nc, Hi: q, Enc: enc},
		}})
}

// TwoDimEncoded is TwoDimConsecutive with independent encodings for the row
// and column fields, as in Section 6.3's matrices with rows in binary code
// and columns in Gray code (or vice versa).
func TwoDimEncoded(p, q, nr, nc int, encRow, encCol Encoding) Layout {
	m := p + q
	return trim(Layout{P: p, Q: q,
		Name: "2d-consecutive/" + encRow.String() + "-rows/" + encCol.String() + "-cols",
		Fields: []Field{
			{Lo: m - nr, Hi: m, Enc: encRow},
			{Lo: q - nc, Hi: q, Enc: encCol},
		}})
}

// TwoDimCyclic partitions cyclically in both directions: the nr lowest row
// bits and nc lowest column bits form the processor address.
func TwoDimCyclic(p, q, nr, nc int, enc Encoding) Layout {
	return trim(Layout{P: p, Q: q, Name: "2d-cyclic/" + enc.String(),
		Fields: []Field{
			{Lo: q, Hi: q + nr, Enc: enc},
			{Lo: 0, Hi: nc, Enc: enc},
		}})
}

// TwoDimMixed uses consecutive assignment for rows and cyclic for columns
// (Section 6, "mixed assignment": rows consecutive, columns cyclic).
func TwoDimMixed(p, q, nr, nc int, enc Encoding) Layout {
	m := p + q
	return trim(Layout{P: p, Q: q, Name: "2d-mixed-consrow-cyccol/" + enc.String(),
		Fields: []Field{
			{Lo: m - nr, Hi: m, Enc: enc},
			{Lo: 0, Hi: nc, Enc: enc},
		}})
}

// CombinedContiguous places the processor field at an interior offset i of
// the row (or column) address: bits [top-i-n, top-i) where top is the top of
// the row/column field (Table 2, "Contiguous"). For rows top = m; for
// columns top = q.
func CombinedContiguous(p, q, n, offset int, rows bool, enc Encoding) Layout {
	top := q
	name := "combined-contiguous-cols/"
	if rows {
		top = p + q
		name = "combined-contiguous-rows/"
	}
	return trim(Layout{P: p, Q: q, Name: name + enc.String(),
		Fields: []Field{{Lo: top - offset - n, Hi: top - offset, Enc: enc}}})
}

// BandedCombined is the banded-matrix storage example of Section 2: the
// relevant elements sit in a 2^p x 2^q array, blocks of 2^(q-nc) x 2^(q-nc)
// elements are stored per processor on a 2^nc x 2^nc processor grid with
// block rows assigned cyclically over the row addresses, and the s highest
// order row bits address S = 2^s concurrent block rows. The real processor
// address field is (u_{p-1..p-s} || u_{q-1..q-nc} || v_{q-1..q-nc}), s+2nc
// dimensions in two row fields and one column field. Requires p-s >= q >= nc.
func BandedCombined(p, q, nc, s int, enc Encoding) Layout {
	m := p + q
	return trim(Layout{P: p, Q: q, Name: "banded-combined/" + enc.String(),
		Fields: []Field{
			{Lo: m - s, Hi: m, Enc: enc},        // u_{p-1} .. u_{p-s}
			{Lo: 2*q - nc, Hi: 2 * q, Enc: enc}, // u_{q-1} .. u_{q-nc}
			{Lo: q - nc, Hi: q, Enc: enc},       // v_{q-1} .. v_{q-nc}
		}})
}

// CombinedSplit splits the processor field in two: s bits from the top of
// the row (or column) address and n-s bits from the bottom (Table 2,
// "Non-contiguous"). The top field is most significant.
func CombinedSplit(p, q, n, s int, rows bool, enc Encoding) Layout {
	top, lo := q, 0
	name := "combined-split-cols/"
	if rows {
		top, lo = p+q, q
		name = "combined-split-rows/"
	}
	return trim(Layout{P: p, Q: q, Name: name + enc.String(),
		Fields: []Field{
			{Lo: top - s, Hi: top, Enc: enc},
			{Lo: lo, Hi: lo + n - s, Enc: enc},
		}})
}

// PermutedDims returns l with its processor address bits permuted (Section
// 7): the element-address bit l keeps at processor bit p moves to processor
// bit pi[p], so node x's data lands on the node whose bit pi[p] is x's bit p,
// and local storage is unchanged. A bit reversal is pi[p] = n-1-p. The result
// lists one field per maximal run of processor bits that stays a run of
// element bits. The bits of a Gray-coded field wider than one bit are not
// element bits, so such a layout is refused.
func PermutedDims(l Layout, pi []int) (Layout, error) {
	n := l.NBits()
	if len(pi) != n {
		return Layout{}, fmt.Errorf("field: dimension permutation %v of a %d-bit processor address", pi, n)
	}
	holds := make([]int, n) // holds[t]: the element bit processor bit t holds after
	seen := make([]bool, n)
	at := 0
	for i := len(l.Fields) - 1; i >= 0; i-- {
		f := l.Fields[i]
		if f.Enc == Gray && f.Width() > 1 {
			return Layout{}, fmt.Errorf("field: cannot permute the dimensions of %s: field [%d,%d) is Gray-coded", l.Name, f.Lo, f.Hi)
		}
		for b := f.Lo; b < f.Hi; b, at = b+1, at+1 {
			if t := pi[at]; t < 0 || t >= n || seen[t] {
				return Layout{}, fmt.Errorf("field: %v is not a permutation of %d dimensions", pi, n)
			}
			holds[pi[at]], seen[pi[at]] = b, true
		}
	}
	out := Layout{P: l.P, Q: l.Q, Name: l.Name + "/permuted"}
	for t := n - 1; t >= 0; t-- {
		if k := len(out.Fields) - 1; k >= 0 && out.Fields[k].Lo == holds[t]+1 {
			out.Fields[k].Lo--
		} else {
			out.Fields = append(out.Fields, Field{Lo: holds[t], Hi: holds[t] + 1})
		}
	}
	return out, nil
}
