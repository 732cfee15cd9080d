package router

import (
	"testing"

	"boolcube/internal/machine"
	"boolcube/internal/simnet"
)

// TestRunFlowsAllocs holds the packet path to O(nodes + flows) allocations
// per run, independent of packets × hops: a single-packet all-to-all on a
// 6-cube (4,032 flows, 12,288 packet hops) — engine construction included —
// stays under a constant plus a per-node budget. Per-packet queue growth,
// per-flow chunk slices or a per-node reassembly buffer each blow it.
func TestRunFlowsAllocs(t *testing.T) {
	const n = 6
	N := uint64(1) << n
	var flows []Flow
	for s := range N {
		for d := range N {
			if s != d {
				flows = append(flows, Flow{Src: s, Dst: d, Dims: Ecube(s, d, n), Data: []float64{float64(s<<n | d)}})
			}
		}
	}
	allocs := testing.AllocsPerRun(3, func() {
		e, err := simnet.New(n, machine.Ideal(machine.OnePort))
		if err != nil {
			t.Fatal(err)
		}
		done, err := RunFlows(e, flows)
		if err != nil || len(done.FlowIdx) != len(flows) {
			t.Fatalf("run: %v, %d of %d flows", err, len(done.FlowIdx), len(flows))
		}
	})
	t.Logf("%d flows on %d nodes: %.0f allocations per run", len(flows), N, allocs)
	if limit := 64 + 16*float64(N); allocs > limit {
		t.Errorf("%.0f allocations per run, want at most %.0f (64 + 16 per node)", allocs, limit)
	}
}
