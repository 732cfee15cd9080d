package simnet

import (
	"errors"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"boolcube/internal/fabric"
	"boolcube/internal/fault"
	"boolcube/internal/machine"
	"boolcube/internal/remap"
	"boolcube/internal/router"
)

// resumeFlows builds two partner flows per node with self-describing
// payloads (each element encodes its flow's endpoints and offset), so a
// recovered run can be verified as a multiset without re-deriving the
// delivery attribution.
func resumeFlows(n, elems int) []router.Flow {
	N := uint64(1) << uint(n)
	masks := []uint64{21 & (N - 1), 42 & (N - 1)}
	var flows []router.Flow
	for s := uint64(0); s < N; s++ {
		for _, mk := range masks {
			d := s ^ mk
			if d == s {
				continue
			}
			data := make([]float64, elems)
			for i := range data {
				data[i] = float64(s)*1e6 + float64(d)*1e3 + float64(i)
			}
			flows = append(flows, router.Flow{Src: s, Dst: d, Dims: router.Ecube(s, d, n), Data: data})
		}
	}
	return flows
}

// flattenSorted collects payload element values into one sorted slice.
func flattenSorted(chunks ...[]float64) []float64 {
	var out []float64
	for _, c := range chunks {
		out = append(out, c...)
	}
	sort.Float64s(out)
	return out
}

// crashResumeOutcome is everything one checkpoint/resume cycle on a crashed
// sharded run exposes, for invariance comparison across shard counts.
type crashResumeOutcome struct {
	errText   string
	nodes     []uint64
	at        float64
	detect    float64
	stats     fabric.Stats
	doneIdx   []int     // flows salvaged complete from the failed run
	recovered []float64 // multiset of every element delivered across both runs
}

// runCrashResume runs the flow set under a kill of node `victim` at
// crashAt with P shard workers, then resumes the residual on a fresh
// engine (same shard count) with the logical cube folded onto the
// survivors.
func runCrashResume(t *testing.T, n, elems, shards int, victim uint64, crashAt float64) crashResumeOutcome {
	t.Helper()
	flows := resumeFlows(n, elems)

	e := ideal(t, n, machine.OnePort)
	fp, err := fault.Compile(fault.NodeCrash(victim, crashAt), n)
	if err != nil {
		t.Fatal(err)
	}
	e.SetFaults(fp, fabric.RetryPolicy{})
	e.SetShards(shards)
	_, part, rerr := router.RunRecover(e, flows)
	var nde *fabric.NodeDownError
	if !errors.As(rerr, &nde) {
		t.Fatalf("RunRecover(shards=%d) = %v, want *fabric.NodeDownError", shards, rerr)
	}

	out := crashResumeOutcome{
		errText: rerr.Error(),
		nodes:   nde.Nodes,
		at:      nde.At,
		detect:  nde.DetectedAt,
		stats:   e.Stats(),
		doneIdx: append([]int(nil), part.FlowIdx...),
	}
	var salvaged [][]float64
	salvaged = append(salvaged, part.Data...)

	// The checkpoint: completed flows are durable, everything else is the
	// residual. Relabel the residual onto the survivors (the victim is an
	// active endpoint, so the remap folds the cube) and rerun it on a fresh
	// engine with the same shard count.
	done := make(map[int]bool, len(part.FlowIdx))
	for _, fi := range part.FlowIdx {
		done[fi] = true
	}
	var active []uint64
	seen := make(map[uint64]bool)
	for i, f := range flows {
		if done[i] {
			continue
		}
		for _, nd := range [2]uint64{f.Src, f.Dst} {
			if !seen[nd] {
				seen[nd] = true
				active = append(active, nd)
			}
		}
	}
	asg, err := remap.Plan(n, []uint64{victim}, active)
	if err != nil {
		t.Fatal(err)
	}
	if !asg.Degraded() {
		t.Fatalf("victim %d was an active endpoint but the remap stayed identity", victim)
	}
	var residual []router.Flow
	for i, f := range flows {
		if done[i] {
			continue
		}
		residual = append(residual, router.Flow{
			Src: asg.Phys(f.Src), Dst: asg.Phys(f.Dst),
			Dims: router.Ecube(asg.Phys(f.Src), asg.Phys(f.Dst), n), Data: f.Data,
		})
	}
	e2 := ideal(t, n, machine.OnePort)
	e2.SetShards(shards)
	deliveries, _, err := router.RunRecover(e2, residual)
	if err != nil {
		t.Fatalf("resumed run (shards=%d) failed: %v", shards, err)
	}
	for _, ds := range deliveries {
		for _, dl := range ds {
			salvaged = append(salvaged, dl.Data)
		}
	}
	out.recovered = flattenSorted(salvaged...)
	return out
}

// The sharded-engine checkpoint/resume invariance: a node crash-stops
// mid-run, the failure identity (typed error, dead set, times, Stats) and
// the salvaged checkpoint are bit-identical for P ∈ {1, 2, 4, GOMAXPROCS}
// shard workers, and the folded resume recovers the full payload multiset
// element-exact under every P.
func TestShardedCrashCheckpointResumeInvariant(t *testing.T) {
	const (
		n      = 6
		elems  = 32
		victim = 11
	)
	flows := resumeFlows(n, elems)
	want := make([][]float64, len(flows))
	for i, f := range flows {
		want[i] = f.Data
	}
	expected := flattenSorted(want...)

	// Fault-free makespan, to place the kill mid-run; scan a few fractions
	// for one that leaves residual work (deterministic, so the instant
	// found is stable).
	base := ideal(t, n, machine.OnePort)
	if _, _, err := router.RunRecover(base, resumeFlows(n, elems)); err != nil {
		t.Fatal(err)
	}
	makespan := base.Stats().Time

	var ref crashResumeOutcome
	found := false
	for _, frac := range []float64{0.5, 0.3, 0.7} {
		ref = runCrashResume(t, n, elems, 1, victim, frac*makespan)
		if len(ref.doneIdx) < len(flows) {
			found = true
			if !reflect.DeepEqual(ref.recovered, expected) {
				t.Fatalf("one-worker recovery at %.1f of makespan not element-exact: %d/%d elements",
					frac, len(ref.recovered), len(expected))
			}
			for _, p := range []int{2, 4, runtime.GOMAXPROCS(0)} {
				got := runCrashResume(t, n, elems, p, victim, frac*makespan)
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("shards=%d checkpoint/resume outcome diverged from one worker:\n got  %+v\n want %+v",
						p, got, ref)
				}
			}
			break
		}
	}
	if !found {
		t.Fatal("no crash instant left residual work")
	}
	if !reflect.DeepEqual(ref.nodes, []uint64{victim}) {
		t.Fatalf("dead set = %v, want [%d]", ref.nodes, victim)
	}
}
