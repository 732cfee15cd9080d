// Package plantest holds what tests of the algorithm registry share across
// packages. It imports neither plan nor core, so plan's own tests can use it.
package plantest

import (
	"fmt"

	"boolcube/internal/field"
	"boolcube/internal/matrix"
)

// Row is the part of a registry row (plan.Algorithm) Pair reads.
type Row interface {
	fmt.Stringer
	Transposes() bool
}

// Pair returns a layout pair the registry row accepts for a 2^p x 2^q matrix
// on an n-cube split n/2 + n/2 (the conversions need p, q >= n), and whether
// the row transposes: sweeps over plan.Algorithms() call it instead of
// holding every row to one fixed pair. The default is the square
// two-dimensional consecutive pair; the Section 6.3 rows get the binary-rows /
// Gray-columns encodings they are about, the Section 6.2 rows their
// consecutive -> cyclic pair, the Section 7 permutations the bit reversal of
// one-dimensional consecutive rows, and the code conversion binary -> Gray
// of the same matrix.
func Pair(alg Row, p, q, n int) (before, after field.Layout, transposes bool) {
	h := n / 2
	if name := alg.String(); name == "permute" || name == "permute-two-phase" {
		before = field.OneDimConsecutiveRows(p, q, n, field.Binary)
		reversal := make([]int, n)
		for i := range reversal {
			reversal[i] = n - 1 - i
		}
		after, _ = field.PermutedDims(before, reversal) // binary fields always permute
		return before, after, false
	}
	before = field.TwoDimConsecutive(p, q, h, h, field.Binary)
	if !alg.Transposes() {
		return before, field.TwoDimConsecutive(p, q, h, h, field.Gray), false
	}
	switch alg.String() {
	case "mixed-naive", "mixed-combined":
		return field.TwoDimEncoded(p, q, h, h, field.Binary, field.Gray),
			field.TwoDimEncoded(q, p, h, h, field.Binary, field.Gray), true
	case "convert-1", "convert-2", "convert-3":
		return before, field.TwoDimCyclic(q, p, h, h, field.Binary), true
	}
	return before, field.TwoDimConsecutive(q, p, h, h, field.Binary), true
}

// Want returns what a run of such a row over m must produce.
func Want(m *matrix.Matrix, transposes bool) *matrix.Matrix {
	if transposes {
		return m.Transposed()
	}
	return m
}
