package router

import (
	"strings"
	"testing"

	"boolcube/internal/cube"
	"boolcube/internal/machine"
	"boolcube/internal/simnet"
)

func engine(t *testing.T, n int, ports machine.PortModel) *simnet.Engine {
	t.Helper()
	e, err := simnet.New(n, machine.Ideal(ports))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSingleFlow(t *testing.T) {
	e := engine(t, 3, machine.NPort)
	flows := []Flow{{Src: 0, Dst: 7, Dims: []int{0, 1, 2}, Data: []float64{1, 2, 3}}}
	got, _, err := RunRecover(e, flows)
	if err != nil {
		t.Fatal(err)
	}
	ds := got[7]
	if len(ds) != 1 || ds[0].Src != 0 || len(ds[0].Data) != 3 {
		t.Fatalf("deliveries = %+v", got)
	}
	// 3 hops, each τ=1 + 3 bytes = 4: store-and-forward = 12.
	if e.Stats().Time != 12 {
		t.Errorf("time = %v, want 12", e.Stats().Time)
	}
}

func TestLocalFlow(t *testing.T) {
	e := engine(t, 2, machine.OnePort)
	flows := []Flow{{Src: 1, Dst: 1, Data: []float64{5}}}
	got, _, err := RunRecover(e, flows)
	if err != nil {
		t.Fatal(err)
	}
	if len(got[1]) != 1 || got[1][0].Data[0] != 5 {
		t.Fatalf("local delivery broken: %+v", got)
	}
	if e.Stats().Sends != 0 {
		t.Errorf("local flow generated traffic")
	}
}

func TestPacketSplitReassembly(t *testing.T) {
	e := engine(t, 2, machine.NPort)
	data := []float64{0, 1, 2, 3, 4, 5, 6}
	flows := []Flow{{Src: 0, Dst: 3, Dims: []int{1, 0}, Data: data, Packets: 3}}
	got, _, err := RunRecover(e, flows)
	if err != nil {
		t.Fatal(err)
	}
	d := got[3][0]
	if len(d.Data) != len(data) {
		t.Fatalf("reassembled %d elems, want %d", len(d.Data), len(data))
	}
	for i, v := range d.Data {
		if v != float64(i) {
			t.Fatalf("reassembly out of order: %v", d.Data)
		}
	}
}

// Packet pipelining: k packets over an h-hop path should take about
// (h + k - 1) packet-times, not h*k.
func TestStoreAndForwardPipelining(t *testing.T) {
	e := engine(t, 4, machine.NPort)
	data := make([]float64, 40) // 4 packets of 10 bytes: packet time 11
	flows := []Flow{{Src: 0, Dst: 15, Dims: []int{0, 1, 2, 3}, Data: data, Packets: 4}}
	if _, _, err := RunRecover(e, flows); err != nil {
		t.Fatal(err)
	}
	got := e.Stats().Time
	want := float64(4+4-1) * 11 // (h + k - 1) * packet time
	if got != want {
		t.Errorf("pipelined time = %v, want %v", got, want)
	}
}

func TestRouteValidation(t *testing.T) {
	e := engine(t, 2, machine.OnePort)
	if _, _, err := RunRecover(e, []Flow{{Src: 0, Dst: 3, Dims: []int{0}}}); err == nil ||
		!strings.Contains(err.Error(), "ends at") {
		t.Errorf("bad route accepted: %v", err)
	}
	if _, _, err := RunRecover(e, []Flow{{Src: 0, Dst: 1, Dims: []int{7}}}); err == nil {
		t.Error("bad dimension accepted")
	}
	if _, _, err := RunRecover(e, []Flow{{Src: 9, Dst: 1, Dims: []int{0}}}); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
}

func TestEcube(t *testing.T) {
	dims := Ecube(0b001, 0b110, 3)
	want := []int{0, 1, 2}
	if len(dims) != 3 {
		t.Fatalf("ecube dims = %v", dims)
	}
	for i := range want {
		if dims[i] != want[i] {
			t.Fatalf("ecube dims = %v, want %v", dims, want)
		}
	}
	if len(Ecube(5, 5, 3)) != 0 {
		t.Error("self route not empty")
	}
	if end := cube.PathEnd(0b001, dims); end != 0b110 {
		t.Errorf("ecube route ends at %b", end)
	}
}

// All-to-all over e-cube routes: every node gets N-1 deliveries with the
// right payloads, under both port models.
func TestEcubeAllToAll(t *testing.T) {
	for _, ports := range []machine.PortModel{machine.OnePort, machine.NPort} {
		n := 3
		N := uint64(1) << uint(n)
		e := engine(t, n, ports)
		var flows []Flow
		for s := uint64(0); s < N; s++ {
			for d := uint64(0); d < N; d++ {
				if s == d {
					continue
				}
				flows = append(flows, Flow{
					Src: s, Dst: d, Dims: Ecube(s, d, n),
					Data: []float64{float64(s*100 + d)},
				})
			}
		}
		got, _, err := RunRecover(e, flows)
		if err != nil {
			t.Fatal(err)
		}
		for d := uint64(0); d < N; d++ {
			if len(got[d]) != int(N)-1 {
				t.Fatalf("%v: node %d got %d deliveries", ports, d, len(got[d]))
			}
			for _, del := range got[d] {
				if del.Data[0] != float64(del.Src*100+d) {
					t.Fatalf("%v: wrong payload %v from %d at %d", ports, del.Data, del.Src, d)
				}
			}
		}
	}
}

// MPT flows from the cube package must execute conflict-aware and deliver
// the full payload.
func TestMPTFlowsDeliver(t *testing.T) {
	n := 6
	N := uint64(1) << uint(n)
	e := engine(t, n, machine.NPort)
	var flows []Flow
	for x := uint64(0); x < N; x++ {
		paths := cube.MPTPaths(x, n)
		if len(paths) == 0 {
			continue
		}
		payload := make([]float64, 4*len(paths)) // 4H packets over 2H paths
		for i := range payload {
			payload[i] = float64(x)
		}
		chunk := len(payload) / len(paths)
		for pi, dims := range paths {
			flows = append(flows, Flow{
				Src: x, Dst: cube.Tr(x, n), Dims: dims,
				Data:    payload[pi*chunk : (pi+1)*chunk],
				Packets: 2,
			})
		}
	}
	got, _, err := RunRecover(e, flows)
	if err != nil {
		t.Fatal(err)
	}
	for x := uint64(0); x < N; x++ {
		tr := cube.Tr(x, n)
		if x == tr {
			continue
		}
		total := 0
		for _, d := range got[tr] {
			if d.Src == x {
				total += len(d.Data)
				for _, v := range d.Data {
					if v != float64(x) {
						t.Fatalf("corrupted payload at %d from %d", tr, x)
					}
				}
			}
		}
		if total != 8*cube.HalfHamming(x, n) { // 4 elems per path, 2H paths
			t.Fatalf("node %b delivered %d elems to %b", x, total, tr)
		}
	}
}

func TestDeterministicStats(t *testing.T) {
	build := func() (*simnet.Engine, []Flow) {
		e := engine(t, 4, machine.OnePort)
		var flows []Flow
		N := uint64(16)
		for s := uint64(0); s < N; s++ {
			d := (s + 5) % N
			flows = append(flows, Flow{Src: s, Dst: d, Dims: Ecube(s, d, 4),
				Data: make([]float64, int(s)+1), Packets: 2})
		}
		return e, flows
	}
	e1, f1 := build()
	if _, _, err := RunRecover(e1, f1); err != nil {
		t.Fatal(err)
	}
	e2, f2 := build()
	if _, _, err := RunRecover(e2, f2); err != nil {
		t.Fatal(err)
	}
	if e1.Stats() != e2.Stats() {
		t.Errorf("nondeterministic: %+v vs %+v", e1.Stats(), e2.Stats())
	}
}
