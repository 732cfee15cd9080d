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
		data := buf[:mv.PayloadLen(s, d)]
		mv.GatherInto(s, src[s], d, data)
		mv.Scatter(d, dst[d], s, data)
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
