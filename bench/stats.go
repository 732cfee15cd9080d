package main

import (
	"math"
	"runtime"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of the samples by linear
// interpolation between order statistics; NaN for an empty sample.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

// summary is what the human-readable report prints beside every timing: the
// sample count, the median and the quartiles.
type summary struct {
	N   int     `json:"n"`
	P25 float64 `json:"p25"`
	P50 float64 `json:"p50"`
	P75 float64 `json:"p75"`
}

func summarize(samples []float64) summary {
	return summary{N: len(samples), P25: quantile(samples, 0.25), P50: median(samples), P75: quantile(samples, 0.75)}
}

// quartileExclusive is the q-quantile by the "exclusive" method (position
// q·(n+1), clamped), which is what Python's statistics.quantiles(values, n=4)
// computes: the acceptance rule for this benchmark is stated in those terms.
func quartileExclusive(samples []float64, q float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0]
	}
	pos := q*float64(n+1) - 1
	lo := int(math.Floor(pos))
	if lo < 0 {
		lo = 0
	}
	if lo > n-2 {
		lo = n - 2
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

// relSpread is the distance between the first and third quartile as a share
// of the median — the run-to-run spread compared with a metric's bound.
func relSpread(values []float64) float64 {
	m := median(values)
	if len(values) < 2 || m == 0 {
		return 0
	}
	return (quartileExclusive(values, 0.75) - quartileExclusive(values, 0.25)) / math.Abs(m)
}

// heapAlloc returns the live heap after a collection.
func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// mallocBytes returns the cumulative bytes allocated by this process.
func mallocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
