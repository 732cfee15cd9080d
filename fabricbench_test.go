package boolcube

import "testing"

// The fabric benchmark pair: one compiled 8-cube SBnT all-to-all plan,
// replayed on both registered backends. The simnet run measures how fast
// the host simulates the transpose (its Stats.Time is the virtual time the
// machine model predicts); the livenet run measures a real 256-goroutine
// transpose end to end (its Stats.Time is wall-clock elapsed). Both report
// Stats.Time as the custom metric stats-us/op, model time beside wall time;
// `go run ./bench` reports the same comparison as livenet.replay_ms against
// core.execute_ms.

func benchFabricSetup(b *testing.B) (*CompiledTranspose, *Dist, *Matrix) {
	b.Helper()
	p, q, n := 8, 8, 8
	before := TwoDimConsecutive(p, q, n/2, n/2, Binary)
	after := TwoDimConsecutive(q, p, n/2, n/2, Binary)
	m := NewIotaMatrix(p, q)
	ct, err := Compile(before, after, Options{Algorithm: SBnT, Machine: IPSCNPort()})
	if err != nil {
		b.Fatal(err)
	}
	return ct, Scatter(m, before), m
}

func benchFabric(b *testing.B, backend string) {
	ct, d, m := benchFabricSetup(b)
	statsUs := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ct.ExecuteWith(d, ExecOptions{Backend: backend})
		if err != nil {
			b.Fatal(err)
		}
		statsUs = res.Stats.Time
		if i == 0 {
			b.StopTimer()
			if err := res.Dist.Verify(m.Transposed()); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	b.ReportMetric(statsUs, "stats-us/op")
}

func BenchmarkFabricSimnet8Cube(b *testing.B)  { benchFabric(b, "simnet") }
func BenchmarkFabricLivenet8Cube(b *testing.B) { benchFabric(b, "livenet") }
