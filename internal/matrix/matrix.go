// Package matrix provides the dense 2^p x 2^q matrices the transposition
// algorithms act on, their distribution across processors under a
// field.Layout, and exhaustive placement verification. Element values encode
// their own (row, column) identity, so any misrouted element is detected
// exactly rather than statistically.
package matrix

import (
	"fmt"

	"boolcube/internal/field"
)

// Matrix is a dense 2^P x 2^Q matrix in row-major order (P and Q are bit
// counts, matching the paper's P = 2^p, Q = 2^q convention).
type Matrix struct {
	P, Q int // log2 of row and column counts
	Data []float64
}

// New returns a zero matrix with 2^p rows and 2^q columns.
func New(p, q int) *Matrix {
	if p < 0 || q < 0 || p+q > 26 {
		panic(fmt.Sprintf("matrix: bad shape p=%d q=%d", p, q))
	}
	return &Matrix{P: p, Q: q, Data: make([]float64, 1<<uint(p+q))}
}

// NewIota returns the matrix with a(u,v) = u*2^q + v, whose values identify
// their element exactly.
func NewIota(p, q int) *Matrix {
	m := New(p, q)
	for i := range m.Data {
		m.Data[i] = float64(i)
	}
	return m
}

// Rows returns the number of rows 2^P.
// The shape is bounded by New (p+q <= 26), so these shifts cannot wrap;
// the per-element accessors stay guard-free because they are the hot path.
func (m *Matrix) Rows() int { return 1 << uint(m.P) } //cubevet:ignore shiftwidth -- P bounded by New

// Cols returns the number of columns 2^Q.
func (m *Matrix) Cols() int { return 1 << uint(m.Q) } //cubevet:ignore shiftwidth -- Q bounded by New

// At returns a(u, v).
func (m *Matrix) At(u, v uint64) float64 {
	return m.Data[u<<uint(m.Q)|v] //cubevet:ignore shiftwidth -- Q bounded by New, index checked by runtime
}

// Set assigns a(u, v).
func (m *Matrix) Set(u, v uint64, x float64) {
	m.Data[u<<uint(m.Q)|v] = x //cubevet:ignore shiftwidth -- Q bounded by New, index checked by runtime
}

// transposeTile is the side of the square tile Transposed walks: 32×32
// float64 is 8 KB read plus 8 KB written, so both the tile's source rows and
// its destination rows stay in L1 while the strided writes land.
const transposeTile = 32

// Transposed returns a new matrix equal to m^T.
func (m *Matrix) Transposed() *Matrix {
	t := New(m.Q, m.P)
	rows, cols := m.Rows(), m.Cols()
	for u0 := 0; u0 < rows; u0 += transposeTile {
		u1 := min(u0+transposeTile, rows)
		for v0 := 0; v0 < cols; v0 += transposeTile {
			v1 := min(v0+transposeTile, cols)
			for u := u0; u < u1; u++ {
				for v, x := range m.Data[u*cols+v0 : u*cols+v1] {
					t.Data[(v0+v)*rows+u] = x
				}
			}
		}
	}
	return t
}

// Equal reports whether two matrices have identical shape and contents.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.P != o.P || m.Q != o.Q {
		return false
	}
	for i, v := range m.Data {
		if o.Data[i] != v {
			return false
		}
	}
	return true
}

// Dist is a matrix distributed across the processors of a cube according to
// a layout: Local[proc][slot] holds the element that the layout maps there.
type Dist struct {
	Layout field.Layout
	Local  [][]float64
}

// Scatter distributes m under the layout. The layout's shape must match m.
func Scatter(m *Matrix, l field.Layout) *Dist {
	if l.P != m.P || l.Q != m.Q {
		panic(fmt.Sprintf("matrix: layout shape (%d,%d) != matrix shape (%d,%d)", l.P, l.Q, m.P, m.Q))
	}
	mp, err := l.Map()
	if err != nil {
		panic("matrix: invalid layout: " + err.Error())
	}
	d := &Dist{Layout: l, Local: make([][]float64, l.N())}
	for proc := range d.Local {
		local := make([]float64, l.LocalSize())
		base := mp.ProcPart(uint64(proc))
		for slot := range local {
			local[slot] = m.Data[base|mp.LocalPart(uint64(slot))]
		}
		d.Local[proc] = local
	}
	return d
}

// Gather reassembles the dense matrix from the distributed pieces.
func (d *Dist) Gather() *Matrix {
	m := New(d.Layout.P, d.Layout.Q)
	mp, err := d.Layout.Map()
	if err != nil {
		panic("matrix: invalid layout: " + err.Error())
	}
	for proc, local := range d.Local {
		base := mp.ProcPart(uint64(proc))
		for slot, x := range local {
			m.Data[base|mp.LocalPart(uint64(slot))] = x
		}
	}
	return m
}

// LocalShape reports the shape of each processor's local data when it forms
// a contiguous row-major block of the matrix — the "two-dimensional local
// data array" of Section 5. That holds when every column bit is a virtual
// (local) bit: the local array then has 2^(number of virtual row bits) rows
// of full matrix width 2^Q, and local slot r*cols+c is matrix element
// (rowBase + r-th local row, c). ok is false for layouts whose local data
// is not a contiguous row block (column or two-dimensional partitionings).
func (d *Dist) LocalShape() (rows, cols int, ok bool) {
	l := d.Layout
	vb := l.VirtualBits()
	// All of bits [0, Q) must be virtual and be the lowest virtual bits.
	// The explicit width bound also keeps the shifts below word size for
	// hand-built layouts.
	if l.Q < 0 || len(vb) > 62 || len(vb) < l.Q {
		return 0, 0, false
	}
	for i := 0; i < l.Q; i++ {
		if vb[i] != i {
			return 0, 0, false
		}
	}
	rows = 1 << uint(len(vb)-l.Q)
	cols = 1 << uint(l.Q)
	return rows, cols, true
}

// LocalRow returns the slice of local storage holding local row r of proc's
// block (valid only when LocalShape reports ok). The row is a full matrix
// row; its matrix row index is recoverable with RowIndex.
func (d *Dist) LocalRow(proc, r int) []float64 {
	_, cols, ok := d.LocalShape()
	if !ok {
		panic("matrix: layout does not store contiguous row blocks")
	}
	return d.Local[proc][r*cols : (r+1)*cols]
}

// RowIndex returns the matrix row index of local row r at processor proc
// (valid only when LocalShape reports ok).
func (d *Dist) RowIndex(proc, r int) uint64 {
	_, cols, ok := d.LocalShape()
	if !ok {
		panic("matrix: layout does not store contiguous row blocks")
	}
	u, _ := d.Layout.ElementOf(uint64(proc), uint64(r*cols))
	return u
}

// Verify checks element-exactly that d holds the matrix want: every local
// slot of every processor must contain the value of the element the layout
// assigns there. It returns a descriptive error on the first mismatch.
func (d *Dist) Verify(want *Matrix) error {
	if d.Layout.P != want.P || d.Layout.Q != want.Q {
		return fmt.Errorf("matrix: shape mismatch: dist (%d,%d) vs want (%d,%d)",
			d.Layout.P, d.Layout.Q, want.P, want.Q)
	}
	mp, err := d.Layout.Map()
	if err != nil {
		return fmt.Errorf("matrix: invalid layout: %w", err)
	}
	for proc, local := range d.Local {
		if len(local) != d.Layout.LocalSize() {
			return fmt.Errorf("matrix: proc %d holds %d elements, want %d",
				proc, len(local), d.Layout.LocalSize())
		}
		base := mp.ProcPart(uint64(proc))
		for slot, x := range local {
			if x != want.Data[base|mp.LocalPart(uint64(slot))] {
				u, v := d.Layout.ElementOf(uint64(proc), uint64(slot))
				return fmt.Errorf("matrix: proc %d slot %d: got %v, want a(%d,%d) = %v (layout %s)",
					proc, slot, x, u, v, want.At(u, v), d.Layout)
			}
		}
	}
	return nil
}
