package router

import (
	"errors"
	"reflect"
	"testing"
)

// downSet builds a down predicate from explicit (from, dim) pairs.
func downSet(pairs ...[2]int) func(uint64, int) bool {
	m := make(map[[2]int]bool, len(pairs))
	for _, p := range pairs {
		m[p] = true
	}
	return func(from uint64, dim int) bool { return m[[2]int{int(from), dim}] }
}

func TestFailoverNoFaultsIsIdentity(t *testing.T) {
	flows := []Flow{
		{Src: 0, Dst: 3, Dims: []int{0, 1}},
		{Src: 3, Dst: 0, Dims: []int{1, 0}},
	}
	kept, idx, rep, err := Failover(flows, 2, downSet(), false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(kept, flows) || !reflect.DeepEqual(idx, []int{0, 1}) {
		t.Fatalf("fault-free failover changed the flow set: %v %v", kept, idx)
	}
	if rep != (FailoverReport{}) {
		t.Fatalf("fault-free failover reported degradation: %+v", rep)
	}
}

func TestFailoverMovesBlockedFlow(t *testing.T) {
	orig := []int{0, 1}
	flows := []Flow{{Src: 0, Dst: 3, Dims: orig}}
	// First hop 0-(dim 0)->1 is down.
	kept, idx, rep, err := Failover(flows, 2, downSet([2]int{0, 0}), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 1 || idx[0] != 0 {
		t.Fatalf("kept = %v idx = %v", kept, idx)
	}
	if rep.Rerouted != 1 {
		t.Fatalf("report = %+v, want 1 reroute", rep)
	}
	// The alternative shortest path crosses dim 1 first.
	if want := []int{1, 0}; !reflect.DeepEqual(kept[0].Dims, want) {
		t.Fatalf("rerouted dims = %v, want %v", kept[0].Dims, want)
	}
	// The input flow's route slice must be untouched (plans share it).
	if !reflect.DeepEqual(flows[0].Dims, []int{0, 1}) || &flows[0].Dims[0] != &orig[0] {
		t.Fatal("Failover mutated the input route slice")
	}
	if rep.ExtraHops != 0 {
		t.Fatalf("H-length alternative should cost no extra hops: %+v", rep)
	}
}

func TestFailoverDetourCostsExtraHops(t *testing.T) {
	// Distance-1 pair on a 2-cube: the only other disjoint path is the
	// H+2 detour. Block the direct hop.
	flows := []Flow{{Src: 0, Dst: 1, Dims: []int{0}}}
	kept, _, rep, err := Failover(flows, 2, downSet([2]int{0, 0}), false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rerouted != 1 || rep.ExtraHops != 2 {
		t.Fatalf("report = %+v, want 1 reroute with 2 extra hops", rep)
	}
	if len(kept[0].Dims) != 3 {
		t.Fatalf("detour dims = %v, want length 3", kept[0].Dims)
	}
}

func TestFailoverSkipsPathsUsedBySamePair(t *testing.T) {
	// Two flows of the same (0,3) pair over the two shortest disjoint
	// paths; block the first flow's route. The only unused alternatives
	// are the detours, because [1,0] already carries the second flow.
	flows := []Flow{
		{Src: 0, Dst: 3, Dims: []int{0, 1}},
		{Src: 0, Dst: 3, Dims: []int{1, 0}},
	}
	kept, _, rep, err := Failover(flows, 3, downSet([2]int{0, 0}), false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rerouted != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if reflect.DeepEqual(kept[0].Dims, []int{1, 0}) {
		t.Fatal("reroute stole the path already used by the same pair")
	}
	if len(kept[0].Dims) != 4 {
		t.Fatalf("expected an H+2 detour, got %v", kept[0].Dims)
	}
}

func TestFailoverNoRouteTypedError(t *testing.T) {
	// On a 1-cube the pair (0,1) has exactly one path; blocking it leaves
	// no alternative.
	flows := []Flow{{Src: 0, Dst: 1, Dims: []int{0}}}
	_, _, _, err := Failover(flows, 1, downSet([2]int{0, 0}), false)
	var re *RouteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RouteError", err)
	}
	if !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err %v does not unwrap to ErrNoRoute", err)
	}
	if re.Src != 0 || re.Dst != 1 || re.Flow != 0 {
		t.Fatalf("route error fields: %+v", re)
	}
}

func TestFailoverDropsUnroutableFlowOnRequest(t *testing.T) {
	flows := []Flow{
		{Src: 0, Dst: 1, Dims: []int{0}},
		{Src: 1, Dst: 0, Dims: []int{0}},
	}
	kept, idx, rep, err := Failover(flows, 1, downSet([2]int{0, 0}), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 1 || idx[0] != 1 || kept[0].Src != 1 {
		t.Fatalf("kept = %v idx = %v, want only the reverse flow", kept, idx)
	}
	if rep.Abandoned != 1 {
		t.Fatalf("report = %+v, want 1 abandoned", rep)
	}
}

func TestFailoverFindsBlockPastFirstHop(t *testing.T) {
	flows := []Flow{
		{Src: 0, Dst: 3, Dims: []int{0, 1}}, // 0->1->3: second hop is 1-(dim 1)->3
		{Src: 3, Dst: 0, Dims: []int{1, 0}}, // 3->1->0 uses the opposite direction
	}
	kept, idx, rep, err := Failover(flows, 2, downSet([2]int{1, 1}), false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(idx, []int{0, 1}) || rep.Rerouted != 1 {
		t.Fatalf("idx = %v report = %+v, want both flows kept and 1 reroute", idx, rep)
	}
	if want := []int{1, 0}; !reflect.DeepEqual(kept[0].Dims, want) {
		t.Fatalf("rerouted dims = %v, want %v", kept[0].Dims, want)
	}
	if &kept[1].Dims[0] != &flows[1].Dims[0] {
		t.Fatal("the flow clear of the down link was not kept as is")
	}
}
