package matrix

import (
	"testing"

	"boolcube/internal/field"
)

func TestNewIotaAt(t *testing.T) {
	m := NewIota(2, 3)
	if m.Rows() != 4 || m.Cols() != 8 {
		t.Fatalf("shape %dx%d", m.Rows(), m.Cols())
	}
	if m.At(0, 0) != 0 || m.At(1, 0) != 8 || m.At(3, 7) != 31 {
		t.Errorf("iota values wrong: %v %v %v", m.At(0, 0), m.At(1, 0), m.At(3, 7))
	}
}

// The tiled Transposed against the naive double loop, on shapes below, at and
// above the tile, square and not, degenerate rows and columns included.
func TestTransposed(t *testing.T) {
	for _, sh := range [][2]int{{0, 0}, {0, 5}, {5, 0}, {1, 7}, {7, 1}, {2, 3}, {5, 5}, {6, 3}, {10, 9}} {
		m := NewIota(sh[0], sh[1])
		tr := m.Transposed()
		if tr.Rows() != m.Cols() || tr.Cols() != m.Rows() {
			t.Fatalf("(%d,%d): transposed shape %dx%d", sh[0], sh[1], tr.Rows(), tr.Cols())
		}
		for u := uint64(0); u < uint64(m.Rows()); u++ {
			for v := uint64(0); v < uint64(m.Cols()); v++ {
				if tr.At(v, u) != m.At(u, v) {
					t.Fatalf("(%d,%d): tr(%d,%d) != m(%d,%d)", sh[0], sh[1], v, u, u, v)
				}
			}
		}
		if !tr.Transposed().Equal(m) {
			t.Errorf("(%d,%d): double transpose is not identity", sh[0], sh[1])
		}
	}
}

func TestEqual(t *testing.T) {
	a, b := NewIota(2, 2), NewIota(2, 2)
	if !a.Equal(b) {
		t.Error("equal matrices reported unequal")
	}
	b.Set(1, 1, -1)
	if a.Equal(b) {
		t.Error("unequal matrices reported equal")
	}
	if a.Equal(NewIota(2, 3)) {
		t.Error("different shapes reported equal")
	}
}

func TestScatterGatherRoundTrip(t *testing.T) {
	m := NewIota(4, 4)
	layouts := []field.Layout{
		field.OneDimConsecutiveRows(4, 4, 2, field.Binary),
		field.OneDimCyclicCols(4, 4, 3, field.Gray),
		field.TwoDimConsecutive(4, 4, 2, 2, field.Binary),
		field.TwoDimCyclic(4, 4, 2, 2, field.Gray),
		field.TwoDimMixed(4, 4, 1, 2, field.Binary),
	}
	for _, l := range layouts {
		d := Scatter(m, l)
		if err := d.Verify(m); err != nil {
			t.Errorf("%s: scatter not verified: %v", l, err)
		}
		if !d.Gather().Equal(m) {
			t.Errorf("%s: gather != original", l)
		}
	}
}

// The failure report is pinned to the letter: the first mismatch in
// (processor, slot) order — not in element-address order, where the second
// corruption below (a(8,0), address 128) would come before a(13,10) — with
// the element's identity recovered through the layout's inverse (processor
// 11 = Gray 10||11 holds block row 3, block column 2).
func TestVerifyDetectsCorruption(t *testing.T) {
	m := NewIota(4, 4)
	l := field.TwoDimConsecutive(4, 4, 2, 2, field.Gray)
	d := Scatter(m, l)
	d.Local[11][6] = -42
	d.Local[12][0] = -7
	const want = "matrix: proc 11 slot 6: got -42, want a(13,10) = 218 " +
		"(layout 2d-consecutive/gray p=4 q=4 n=4 [gray[6,8) gray[2,4)])"
	if err := d.Verify(m); err == nil || err.Error() != want {
		t.Errorf("Verify = %v\nwant     %s", err, want)
	}
}

func TestVerifyDetectsShapeMismatch(t *testing.T) {
	m := NewIota(3, 3)
	l := field.OneDimCyclicCols(3, 3, 2, field.Binary)
	d := Scatter(m, l)
	if err := d.Verify(NewIota(3, 2)); err == nil {
		t.Error("shape mismatch not detected")
	}
}

func TestScatterPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Scatter with wrong layout shape did not panic")
		}
	}()
	Scatter(NewIota(3, 3), field.OneDimCyclicCols(2, 2, 1, field.Binary))
}

func TestLocalShape(t *testing.T) {
	m := NewIota(4, 3)
	// Row partitioning: contiguous row blocks.
	d := Scatter(m, field.OneDimConsecutiveRows(4, 3, 2, field.Binary))
	rows, cols, ok := d.LocalShape()
	if !ok || rows != 4 || cols != 8 {
		t.Fatalf("LocalShape = (%d,%d,%v), want (4,8,true)", rows, cols, ok)
	}
	// Every local row must be a contiguous matrix row.
	for proc := 0; proc < 4; proc++ {
		for r := 0; r < rows; r++ {
			row := d.LocalRow(proc, r)
			u := d.RowIndex(proc, r)
			for v := 0; v < cols; v++ {
				if row[v] != m.At(u, uint64(v)) {
					t.Fatalf("proc %d local row %d: element %d wrong", proc, r, v)
				}
			}
		}
	}
	// Cyclic rows also store full rows.
	d = Scatter(m, field.OneDimCyclicRows(4, 3, 2, field.Binary))
	if _, _, ok := d.LocalShape(); !ok {
		t.Error("cyclic rows should have a row-block local shape")
	}
	// Column partitioning does not.
	d = Scatter(m, field.OneDimConsecutiveCols(4, 3, 2, field.Binary))
	if _, _, ok := d.LocalShape(); ok {
		t.Error("column partitioning wrongly reported row blocks")
	}
	// Two-dimensional partitioning does not.
	d = Scatter(m, field.TwoDimConsecutive(4, 3, 1, 1, field.Binary))
	if _, _, ok := d.LocalShape(); ok {
		t.Error("2-D partitioning wrongly reported row blocks")
	}
}

func TestLocalRowPanicsOnBadLayout(t *testing.T) {
	d := Scatter(NewIota(3, 3), field.OneDimConsecutiveCols(3, 3, 2, field.Binary))
	defer func() {
		if recover() == nil {
			t.Error("LocalRow on a column layout did not panic")
		}
	}()
	d.LocalRow(0, 0)
}
