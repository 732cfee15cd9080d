package matrix

import (
	"testing"

	"boolcube/internal/field"
)

// BenchmarkScatterVerify distributes one 512x512 matrix over an 8-cube and
// verifies the placement element-exactly: what every executed plan pays on
// the way in and on the way out.
func BenchmarkScatterVerify(b *testing.B) {
	m := NewIota(9, 9)
	l := field.TwoDimConsecutive(9, 9, 4, 4, field.Gray)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Scatter(m, l).Verify(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransposed builds the ground truth of a 1024x1024 transpose: what
// every experiment cell pays before it can Verify.
func BenchmarkTransposed(b *testing.B) {
	m := NewIota(10, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if t := m.Transposed(); t.Data[1] != 1024 {
			b.Fatal("wrong transpose")
		}
	}
}
