package router

import (
	"math"
	"strings"
	"testing"

	"boolcube/internal/bits"
	"boolcube/internal/machine"
	"boolcube/internal/simnet"
)

func TestCutThroughSingleFlow(t *testing.T) {
	p := machine.ConnectionMachine()
	flows := []Flow{{Src: 0, Dst: 7, Dims: []int{0, 1, 2}, Data: make([]float64, 100)}}
	st, err := CutThrough(3, p, flows)
	if err != nil {
		t.Fatal(err)
	}
	want := p.Tau + 2*HopLatency*p.Tau + 400*p.Tc
	if math.Abs(st.Time-want) > 1e-9 {
		t.Errorf("time = %v, want %v", st.Time, want)
	}
	if st.Startups != 1 || st.Bytes != 400 {
		t.Errorf("stats = %+v", st)
	}
}

// Distance is nearly free under cut-through: doubling the path length adds
// only header latency, not a full message time.
func TestCutThroughDistanceInsensitive(t *testing.T) {
	p := machine.ConnectionMachine()
	short := []Flow{{Src: 0, Dst: 1, Dims: []int{0}, Data: make([]float64, 1000)}}
	long := []Flow{{Src: 0, Dst: 63, Dims: []int{0, 1, 2, 3, 4, 5}, Data: make([]float64, 1000)}}
	s1, err := CutThrough(6, p, short)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := CutThrough(6, p, long)
	if err != nil {
		t.Fatal(err)
	}
	if extra := s2.Time - s1.Time; extra > p.Tau {
		t.Errorf("6 hops cost %v more than 1 hop; cut-through should add only headers", extra)
	}
}

// Conflicting paths serialize: two flows sharing a link take twice as long
// as independent ones.
func TestCutThroughContention(t *testing.T) {
	p := machine.ConnectionMachine()
	shared := []Flow{
		{Src: 0, Dst: 1, Dims: []int{0}, Data: make([]float64, 1000)},
		{Src: 0, Dst: 3, Dims: []int{0, 1}, Data: make([]float64, 1000)},
	}
	st, err := CutThrough(2, p, shared)
	if err != nil {
		t.Fatal(err)
	}
	single, err := CutThrough(2, p, shared[:1])
	if err != nil {
		t.Fatal(err)
	}
	if st.Time < 2*single.Time*0.9 {
		t.Errorf("sharing flows not serialized: %v vs single %v", st.Time, single.Time)
	}
	disjoint := []Flow{
		{Src: 0, Dst: 1, Dims: []int{0}, Data: make([]float64, 1000)},
		{Src: 2, Dst: 3, Dims: []int{0}, Data: make([]float64, 1000)},
	}
	st2, err := CutThrough(2, p, disjoint)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Time > single.Time+1e-9 {
		t.Errorf("disjoint flows serialized: %v vs %v", st2.Time, single.Time)
	}
}

func TestCutThroughValidation(t *testing.T) {
	p := machine.ConnectionMachine()
	if _, err := CutThrough(2, p, []Flow{{Src: 0, Dst: 3, Dims: []int{0}}}); err == nil {
		t.Error("bad route accepted")
	}
	if _, err := CutThrough(2, p, []Flow{{Src: 0, Dst: 1, Dims: []int{5}}}); err == nil {
		t.Error("bad dim accepted")
	}
	// Endpoints outside the cube: the route is self-consistent (4 -> 5 along
	// dimension 0), but neither node exists in a 2-cube.
	_, err := CutThrough(2, p, []Flow{{Src: 0, Dst: 1, Dims: []int{0}}, {Src: 4, Dst: 5, Dims: []int{0}}})
	if err == nil || !strings.Contains(err.Error(), "flow 1") {
		t.Errorf("out-of-range endpoints: err = %v, want one naming flow 1", err)
	}
	if _, err := CutThrough(2, p, []Flow{{Src: 4, Dst: 4}}); err == nil {
		t.Error("out-of-range local flow accepted")
	}
	for _, n := range []int{-1, 31, 64} {
		if _, err := CutThrough(n, p, nil); err == nil {
			t.Errorf("cube dimension %d accepted", n)
		}
	}
}

func TestCutThroughLocalFlowsFree(t *testing.T) {
	p := machine.ConnectionMachine()
	st, err := CutThrough(3, p, []Flow{{Src: 2, Dst: 2, Data: make([]float64, 10)}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Time != 0 || st.Startups != 0 {
		t.Errorf("local flow cost something: %+v", st)
	}
}

// The transpose permutation under cut-through: all N flows, edge contention
// resolved deterministically; repeated runs agree.
func TestEcubeCutThroughDeterministic(t *testing.T) {
	p := machine.ConnectionMachine()
	n := 6
	perm := func(x uint64) uint64 { return bits.RotL(x, n/2, n) }
	a, err := EcubeCutThroughAllPairs(n, p, perm, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EcubeCutThroughAllPairs(n, p, perm, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
	if a.Startups == 0 || a.Time <= 0 {
		t.Errorf("implausible stats %+v", a)
	}
}

// Cut-through vs store-and-forward on the same flow set: cut-through must
// win for long paths with large payloads.
func TestCutThroughBeatsStoreAndForward(t *testing.T) {
	p := machine.ConnectionMachine()
	n := 6
	perm := func(x uint64) uint64 { return bits.RotL(x, n/2, n) }
	ct, err := EcubeCutThroughAllPairs(n, p, perm, 256)
	if err != nil {
		t.Fatal(err)
	}
	// Store-and-forward of the same flows on the simulated engine.
	e, err := simnet.New(n, p)
	if err != nil {
		t.Fatal(err)
	}
	flows := transposeFlows(n, 256)
	if _, _, err := RunRecover(e, flows); err != nil {
		t.Fatal(err)
	}
	if ct.Time >= e.Stats().Time {
		t.Errorf("cut-through (%v) not faster than store-and-forward (%v)",
			ct.Time, e.Stats().Time)
	}
}
