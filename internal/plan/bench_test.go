package plan

import (
	"testing"

	"boolcube/internal/field"
)

// BenchmarkNewMoves builds the move-set of the 512x512 transpose on an
// 8-cube (the two-dimensional exchange pair): the O(P·Q) part of every
// compile.
func BenchmarkNewMoves(b *testing.B) {
	before := field.TwoDimConsecutive(9, 9, 4, 4, field.Gray)
	after := field.TwoDimConsecutive(9, 9, 4, 4, field.Gray)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewMoves(before, after, true); err != nil {
			b.Fatal(err)
		}
	}
}
