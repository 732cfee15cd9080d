package router

import (
	"fmt"
	"math"
	"testing"

	"boolcube/internal/bits"
	"boolcube/internal/machine"
)

// cutThroughOracle is CutThrough as it stood before links were numbered
// densely, moved here verbatim as the reference the indexed scheduler is held
// to: linkFree and linkBytes are maps keyed by (from, dim), hashed once per
// edge per candidate per pick.
func cutThroughOracle(n int, p machine.Params, flows []Flow) (CutThroughStats, error) {
	type linkID struct {
		from uint64
		dim  int
	}
	type pending struct {
		idx   int
		edges []linkID
		dur   float64
		bytes int
	}
	var st CutThroughStats
	linkFree := make(map[linkID]float64)
	linkBytes := make(map[linkID]int64)

	items := make([]pending, 0, len(flows))
	for i, f := range flows {
		x := f.Src
		edges := make([]linkID, 0, len(f.Dims))
		for _, d := range f.Dims {
			if d < 0 || d >= n {
				return st, fmt.Errorf("router: flow %d dimension %d out of range", i, d)
			}
			edges = append(edges, linkID{from: x, dim: d})
			x ^= 1 << uint(d)
		}
		if x != f.Dst {
			return st, fmt.Errorf("router: flow %d route ends at %d, not %d", i, x, f.Dst)
		}
		if len(edges) == 0 {
			continue // local
		}
		bytes := len(f.Data) * p.ElemBytes
		dur := p.Tau + float64(len(edges)-1)*HopLatency*p.Tau + float64(bytes)*p.Tc
		items = append(items, pending{idx: i, edges: edges, dur: dur, bytes: bytes})
	}

	remaining := items
	for len(remaining) > 0 {
		best := -1
		bestT := math.Inf(1)
		for j, it := range remaining {
			t := 0.0
			for _, e := range it.edges {
				if f := linkFree[e]; f > t {
					t = f
				}
			}
			if t < bestT || (t == bestT && (best == -1 || remaining[j].idx < remaining[best].idx)) {
				bestT = t
				best = j
			}
		}
		it := remaining[best]
		remaining = append(remaining[:best:best], remaining[best+1:]...)
		end := bestT + it.dur
		for _, e := range it.edges {
			linkFree[e] = end
			linkBytes[e] += int64(it.bytes)
		}
		st.Startups++
		st.Bytes += int64(it.bytes)
		if bestT > st.MaxWait {
			st.MaxWait = bestT
		}
		if end > st.Time {
			st.Time = end
		}
	}
	for _, b := range linkBytes {
		if b > st.MaxLinkBytes {
			st.MaxLinkBytes = b
		}
	}
	return st, nil
}

// transposeFlows is the flow set EcubeCutThroughAllPairs schedules for the
// transpose permutation: one e-cube flow of elems elements per processor
// that moves, ascending source.
func transposeFlows(n, elems int) []Flow {
	var flows []Flow
	for s := uint64(0); s < 1<<uint(n); s++ {
		d := bits.RotL(s, n/2, n)
		if d == s {
			continue
		}
		flows = append(flows, Flow{Src: s, Dst: d, Dims: Ecube(s, d, n), Data: make([]float64, elems)})
	}
	return flows
}

// The indexed scheduler against the map-based one on every flow set the
// cmrouter experiment runs, field for field (the times are sums of the same
// terms in the same order, so they compare exactly), plus a set with local,
// repeated and reversed flows.
func TestCutThroughMatchesOracle(t *testing.T) {
	p := machine.ConnectionMachine()
	check := func(name string, n int, flows []Flow) {
		t.Helper()
		got, err := CutThrough(n, p, flows)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := cutThroughOracle(n, p, flows)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		if got != want {
			t.Errorf("%s: got %+v, oracle %+v", name, got, want)
		}
	}
	for _, n := range []int{6, 8, 10} {
		if n == 10 && testing.Short() {
			continue // the oracle's 10-cube scan is seconds under -race
		}
		for _, elems := range []int{1, 16, 64} {
			check(fmt.Sprintf("cmrouter n=%d elems=%d", n, elems), n, transposeFlows(n, elems))
		}
	}
	mixed := transposeFlows(4, 3)
	mixed = append(mixed, Flow{Src: 5, Dst: 5, Data: make([]float64, 9)})
	mixed = append(mixed, mixed[2], mixed[0])
	for i := len(mixed) - 1; i >= 0; i-- {
		mixed = append(mixed, Flow{Src: mixed[i].Src, Dst: mixed[i].Dst, Dims: mixed[i].Dims, Data: make([]float64, i)})
	}
	check("mixed", 4, mixed)
}

// BenchmarkCutThrough schedules the cmrouter experiment's 8-cube flow set:
// 240 circuit-switched flows, the O(F²) earliest-start scan.
func BenchmarkCutThrough(b *testing.B) {
	p := machine.ConnectionMachine()
	flows := transposeFlows(8, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := CutThrough(8, p, flows); err != nil {
			b.Fatal(err)
		}
	}
}
