package plan

import (
	"testing"

	"boolcube/internal/comm"
	"boolcube/internal/field"
	"boolcube/internal/machine"
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

// BenchmarkMovesReplay replays that move-set: Gather and Scatter over every
// (source, destination) pair, the per-element work every execution pays.
func BenchmarkMovesReplay(b *testing.B) {
	l := field.TwoDimConsecutive(9, 9, 4, 4, field.Gray)
	mv := MustMoves(l, l, true)
	src, dst := make([][]float64, l.N()), make([][]float64, l.N())
	for i := range src {
		src[i], dst[i] = make([]float64, l.LocalSize()), make([]float64, l.LocalSize())
	}
	buf := make([]float64, l.LocalSize())
	pair := func(s, d uint64) {
		mv.Scatter(d, dst[d], s, buf[:mv.GatherInto(s, src[s], d, buf)])
	}
	b.ReportAllocs()
	b.SetBytes(int64(8 * l.N() * l.LocalSize()))
	for i := 0; i < b.N; i++ {
		for sp := range src {
			s := uint64(sp)
			pair(s, s)
			for _, dp := range mv.Destinations(s) {
				pair(s, dp)
			}
		}
	}
}

var priceSink Price

// BenchmarkPrice prices two compiled plans of the benchmark's shapes: exbuf8
// (the 512x512 Buffered exchange from one-dimensional rows on the 8-cube
// iPSC), whose walk reads its lowered schedule, and the 512x512 MPT from
// two-dimensional storage on the 8-cube n-port iPSC, whose walk is the
// flows' hop schedule. The exchange lowers in the first call, outside the
// timing.
func BenchmarkPrice(b *testing.B) {
	for _, c := range []struct {
		name   string
		alg    Algorithm
		layout field.Layout
		cfg    Config
	}{
		{"exbuf8", Exchange, field.OneDimConsecutiveRows(9, 9, 8, field.Binary), Config{Machine: machine.IPSC(), Strategy: comm.Buffered}},
		{"mpt8", MPT, field.TwoDimConsecutive(9, 9, 4, 4, field.Binary), Config{Machine: machine.IPSCNPort()}},
	} {
		b.Run(c.name, func(b *testing.B) {
			p, err := Compile(c.alg, c.layout, c.layout, c.cfg)
			if err != nil {
				b.Fatal(err)
			}
			p.Price()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				priceSink = p.Price()
			}
		})
	}
}
