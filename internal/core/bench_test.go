package core

import (
	"testing"

	"boolcube/internal/field"
	"boolcube/internal/machine"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
)

// BenchmarkExchangeCheckpointed times the exchange executor — per-block
// delivery recording, always-on checksums, checkpoint bookkeeping — on the
// repeated 8-cube exchange transpose (256 nodes, 2^18 elements, iPSC).
func BenchmarkExchangeCheckpointed(b *testing.B) {
	p, q, n := 9, 9, 8
	before := field.TwoDimConsecutive(p, q, n/2, n/2, field.Binary)
	after := field.TwoDimConsecutive(q, p, n/2, n/2, field.Binary)
	pl, err := plan.Default.Compile(plan.Exchange, before, after,
		plan.Config{Machine: machine.IPSC()})
	if err != nil {
		b.Fatal(err)
	}
	d := matrix.Scatter(matrix.NewIota(p, q), before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := execExchange(pl, d, ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
