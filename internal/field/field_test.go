package field

import (
	"testing"
	"testing/quick"
)

func allLayouts(p, q, n int) []Layout {
	var ls []Layout
	for _, enc := range []Encoding{Binary, Gray} {
		if n <= p {
			ls = append(ls,
				OneDimConsecutiveRows(p, q, n, enc),
				OneDimCyclicRows(p, q, n, enc),
			)
		}
		if n <= q {
			ls = append(ls,
				OneDimConsecutiveCols(p, q, n, enc),
				OneDimCyclicCols(p, q, n, enc),
			)
		}
		if n%2 == 0 && n/2 <= p && n/2 <= q {
			ls = append(ls,
				TwoDimConsecutive(p, q, n/2, n/2, enc),
				TwoDimCyclic(p, q, n/2, n/2, enc),
				TwoDimMixed(p, q, n/2, n/2, enc),
			)
		}
		if q > n {
			ls = append(ls, CombinedContiguous(p, q, n, 1, false, enc))
		}
		if p > n {
			ls = append(ls, CombinedContiguous(p, q, n, 1, true, enc))
		}
		if n >= 2 {
			if n-1 <= q {
				ls = append(ls, CombinedSplit(p, q, n, 1, false, enc))
			}
			if n-1 <= p {
				ls = append(ls, CombinedSplit(p, q, n, 1, true, enc))
			}
		}
	}
	return ls
}

func TestLayoutsValidate(t *testing.T) {
	for _, l := range allLayouts(4, 4, 2) {
		if err := l.Validate(); err != nil {
			t.Errorf("%s: %v", l, err)
		}
	}
	for _, l := range allLayouts(5, 3, 2) {
		if err := l.Validate(); err != nil {
			t.Errorf("%s: %v", l, err)
		}
	}
}

func TestValidateRejectsOverlap(t *testing.T) {
	l := Layout{P: 2, Q: 2, Fields: []Field{{Lo: 0, Hi: 2}, {Lo: 1, Hi: 3}}}
	if err := l.Validate(); err == nil {
		t.Error("overlapping fields not rejected")
	}
	l = Layout{P: 2, Q: 2, Fields: []Field{{Lo: 2, Hi: 5}}}
	if err := l.Validate(); err == nil {
		t.Error("out-of-range field not rejected")
	}
}

// Every layout must be a bijection: (ProcOf, LocalOf) followed by ElementOf
// must return the original element, and each processor must receive exactly
// LocalSize() elements.
func TestLayoutBijection(t *testing.T) {
	shapes := []struct{ p, q, n int }{
		{3, 3, 2}, {4, 4, 4}, {5, 3, 2}, {2, 6, 4}, {4, 4, 0},
		// Row and column vectors: one of the two index fields is empty.
		{0, 5, 2}, {5, 0, 2}, {0, 3, 0}, {3, 0, 3},
	}
	for _, s := range shapes {
		for _, l := range allLayouts(s.p, s.q, s.n) {
			counts := make(map[uint64]int)
			for u := uint64(0); u < 1<<uint(s.p); u++ {
				for v := uint64(0); v < 1<<uint(s.q); v++ {
					proc := l.ProcOf(u, v)
					local := l.LocalOf(u, v)
					if proc >= uint64(l.N()) {
						t.Fatalf("%s: proc %d out of range", l, proc)
					}
					if local >= uint64(l.LocalSize()) {
						t.Fatalf("%s: local %d out of range", l, local)
					}
					gu, gv := l.ElementOf(proc, local)
					if gu != u || gv != v {
						t.Fatalf("%s: ElementOf(ProcOf(%d,%d)) = (%d,%d)", l, u, v, gu, gv)
					}
					counts[proc]++
				}
			}
			for proc, c := range counts {
				if c != l.LocalSize() {
					t.Fatalf("%s: proc %d holds %d elements, want %d", l, proc, c, l.LocalSize())
				}
			}
			if len(counts) != l.N() {
				t.Fatalf("%s: %d processors used, want %d", l, len(counts), l.N())
			}
		}
	}
}

// Corollary 3 / Definition 6: in one-dimensional cyclic column partitioning
// column v goes to processor v mod N; consecutive column partitioning sends
// column v to floor(v / (Q/N)).
func TestDefinition6(t *testing.T) {
	p, q, n := 3, 4, 2
	N := uint64(1 << uint(n))
	cyc := OneDimCyclicCols(p, q, n, Binary)
	con := OneDimConsecutiveCols(p, q, n, Binary)
	blk := uint64(1<<uint(q)) / N
	for u := uint64(0); u < 1<<uint(p); u++ {
		for v := uint64(0); v < 1<<uint(q); v++ {
			if got := cyc.ProcOf(u, v); got != v%N {
				t.Fatalf("cyclic: elem(%d,%d) -> %d, want %d", u, v, got, v%N)
			}
			if got := con.ProcOf(u, v); got != v/blk {
				t.Fatalf("consecutive: elem(%d,%d) -> %d, want %d", u, v, got, v/blk)
			}
		}
	}
}

// Table 1 golden: processor addresses for an 8x8 matrix on a 3-cube.
func TestTable1(t *testing.T) {
	p, q, n := 3, 3, 3
	u, v := uint64(0b101), uint64(0b011)
	cases := []struct {
		l    Layout
		want uint64
	}{
		{OneDimConsecutiveRows(p, q, n, Binary), 0b101},              // (u2 u1 u0)
		{OneDimCyclicRows(p, q, n, Binary), 0b101},                   // n=p so same bits
		{OneDimConsecutiveCols(p, q, n, Binary), 0b011},              // (v2 v1 v0)
		{OneDimConsecutiveRows(p, q, n, Gray), 0b101 ^ (0b101 >> 1)}, // G(101)=111
		{OneDimConsecutiveCols(p, q, n, Gray), 0b011 ^ (0b011 >> 1)}, // G(011)=010
	}
	for _, c := range cases {
		if got := c.l.ProcOf(u, v); got != c.want {
			t.Errorf("%s: ProcOf(%03b,%03b) = %03b, want %03b", c.l, u, v, got, c.want)
		}
	}
}

// Table 2 golden: combined split encoding G(u_{p-1}..u_{p-s}) || G(u_{n-s-1}..u_0).
func TestTable2Split(t *testing.T) {
	p, q, n, s := 4, 4, 3, 1
	l := CombinedSplit(p, q, n, s, true, Gray)
	u, v := uint64(0b1011), uint64(0b0000)
	// Top field: u3 = 1, G(1) = 1. Bottom field: (u1 u0) = 11, G(11) = 10.
	want := uint64(0b1)<<2 | 0b10
	if got := l.ProcOf(u, v); got != want {
		t.Errorf("ProcOf = %03b, want %03b", got, want)
	}
}

func TestTrBit(t *testing.T) {
	p, q := 3, 5
	// Transposed address (v||u): new bits 0..2 are u0..u2 -> original 5..7;
	// new bits 3..7 are v0..v4 -> original 0..4.
	for i := 0; i < p; i++ {
		if got := TrBit(i, p, q); got != q+i {
			t.Errorf("TrBit(%d) = %d, want %d", i, got, q+i)
		}
	}
	for i := p; i < p+q; i++ {
		if got := TrBit(i, p, q); got != i-p {
			t.Errorf("TrBit(%d) = %d, want %d", i, got, i-p)
		}
	}
}

func TestTrBitIsPermutation(t *testing.T) {
	f := func(pseed, qseed uint8) bool {
		p := int(pseed)%10 + 1
		q := int(qseed)%10 + 1
		seen := make(map[int]bool)
		for i := 0; i < p+q; i++ {
			j := TrBit(i, p, q)
			if j < 0 || j >= p+q || seen[j] {
				return false
			}
			seen[j] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		name    string
		before  Layout
		after   Layout
		pattern Pattern
		k, l    int
	}{
		{
			name:    "1d consecutive rows -> consecutive rows: all-to-all",
			before:  OneDimConsecutiveRows(4, 4, 2, Binary),
			after:   OneDimConsecutiveRows(4, 4, 2, Binary),
			pattern: AllToAll, k: 0, l: 2,
		},
		{
			name:    "1d cyclic cols -> cyclic cols: all-to-all",
			before:  OneDimCyclicCols(4, 4, 3, Binary),
			after:   OneDimCyclicCols(4, 4, 3, Binary),
			pattern: AllToAll, k: 0, l: 3,
		},
		{
			name:    "2d square consecutive: pairwise",
			before:  TwoDimConsecutive(4, 4, 2, 2, Binary),
			after:   TwoDimConsecutive(4, 4, 2, 2, Binary),
			pattern: Pairwise, k: 0, l: 4,
		},
		{
			name:    "2d square cyclic: pairwise",
			before:  TwoDimCyclic(4, 4, 2, 2, Binary),
			after:   TwoDimCyclic(4, 4, 2, 2, Binary),
			pattern: Pairwise, k: 0, l: 4,
		},
		{
			name:    "2d consecutive -> cyclic: all-to-all (p,q >= 2n_r)",
			before:  TwoDimConsecutive(4, 4, 1, 1, Binary),
			after:   TwoDimCyclic(4, 4, 1, 1, Binary),
			pattern: AllToAll, k: 0, l: 2,
		},
		{
			name:    "some-to-all: fewer procs before",
			before:  OneDimConsecutiveCols(4, 2, 2, Binary),
			after:   OneDimConsecutiveCols(2, 4, 4, Binary),
			pattern: SomeToAll, k: 2, l: 2,
		},
		{
			name:    "all-to-some: fewer procs after",
			before:  OneDimConsecutiveCols(2, 4, 4, Binary),
			after:   OneDimConsecutiveCols(4, 2, 2, Binary),
			pattern: AllToSome, k: 2, l: 2,
		},
		{
			name:    "vector: local only",
			before:  Layout{P: 0, Q: 4},
			after:   Layout{P: 4, Q: 0},
			pattern: LocalOnly, k: 0, l: 0,
		},
	}
	for _, c := range cases {
		got, err := Classify(c.before, c.after)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got.Pattern != c.pattern || got.K != c.k || got.L != c.l {
			t.Errorf("%s: got %v k=%d l=%d, want %v k=%d l=%d (RB=%v RA=%v I=%v)",
				c.name, got.Pattern, got.K, got.L, c.pattern, c.k, c.l, got.RB, got.RA, got.I)
		}
	}
}

// Section 6: mixed assignment (consecutive rows, cyclic cols) with
// q-nc >= nr and p-nr >= nc gives I = empty and all-to-all communication.
func TestClassifyMixedAllToAll(t *testing.T) {
	before := TwoDimMixed(5, 5, 2, 2, Binary)
	after := TwoDimMixed(5, 5, 2, 2, Binary)
	got, err := Classify(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if got.Pattern != AllToAll {
		t.Errorf("mixed 2d: got %v (RB=%v RA=%v I=%v), want all-to-all",
			got.Pattern, got.RB, got.RA, got.I)
	}
}

func TestClassifyShapeMismatchRefused(t *testing.T) {
	if _, err := Classify(OneDimCyclicCols(3, 3, 2, Binary), OneDimCyclicCols(4, 4, 2, Binary)); err == nil {
		t.Error("Classify with mismatched shapes returned no error")
	}
}
