package simnet

import (
	"math"
	"strings"
	"testing"

	"boolcube/internal/fabric"
	"boolcube/internal/machine"
)

func ideal(t *testing.T, n int, ports machine.PortModel) *Engine {
	t.Helper()
	e, err := New(n, machine.Ideal(ports))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSingleExchange(t *testing.T) {
	e := ideal(t, 1, machine.OnePort)
	var got [2]float64
	err := e.Run(func(nd fabric.Node) {
		m := nd.Exchange(0, fabric.Msg{Src: nd.ID(), Data: []float64{float64(nd.ID())}})
		got[nd.ID()] = m.Data[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 0 {
		t.Errorf("exchange payloads = %v", got)
	}
	// Ideal machine: τ=1, tc=1/byte, 1 elem = 1 byte: dur = 2. Both sends
	// start at 0, arrive at 2: makespan 2, total startups 2.
	st := e.Stats()
	if st.Time != 2 {
		t.Errorf("time = %v, want 2", st.Time)
	}
	if st.Startups != 2 || st.Sends != 2 || st.Bytes != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// One-port: consecutive sends from the same node serialize on the send port.
func TestOnePortSerializesSends(t *testing.T) {
	e := ideal(t, 2, machine.OnePort)
	err := e.Run(func(nd fabric.Node) {
		switch nd.ID() {
		case 0:
			nd.Send(0, fabric.Msg{Data: []float64{1}}) // dur 2
			nd.Send(1, fabric.Msg{Data: []float64{1}}) // dur 2, starts at 2
		case 1:
			nd.Recv(0)
		case 2:
			nd.Recv(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Time; got != 4 {
		t.Errorf("one-port two sends: time = %v, want 4", got)
	}
}

// n-port: the same two sends overlap.
func TestNPortOverlapsSends(t *testing.T) {
	e := ideal(t, 2, machine.NPort)
	err := e.Run(func(nd fabric.Node) {
		switch nd.ID() {
		case 0:
			nd.Send(0, fabric.Msg{Data: []float64{1}})
			nd.Send(1, fabric.Msg{Data: []float64{1}})
		case 1:
			nd.Recv(0)
		case 2:
			nd.Recv(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Time; got != 2 {
		t.Errorf("n-port two sends: time = %v, want 2", got)
	}
}

// One-port receive serialization: two messages arriving concurrently on
// different dims complete one transmission time apart.
func TestOnePortSerializesReceives(t *testing.T) {
	e := ideal(t, 2, machine.OnePort)
	var clock3 float64
	err := e.Run(func(nd fabric.Node) {
		switch nd.ID() {
		case 1, 2:
			// 1 -> 3 over dim 1; 2 -> 3 over dim 0. Both start at 0, dur 2.
			d := 1
			if nd.ID() == 2 {
				d = 0
			}
			nd.Send(d, fabric.Msg{Data: []float64{9}})
		case 3:
			nd.RecvAny()
			nd.RecvAny()
			clock3 = nd.Clock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// First completes at 2, second serializes: max(2, 2+2) = 4.
	if clock3 != 4 {
		t.Errorf("one-port recv completion = %v, want 4", clock3)
	}
}

func TestNPortParallelReceives(t *testing.T) {
	e := ideal(t, 2, machine.NPort)
	var clock3 float64
	err := e.Run(func(nd fabric.Node) {
		switch nd.ID() {
		case 1, 2:
			d := 1
			if nd.ID() == 2 {
				d = 0
			}
			nd.Send(d, fabric.Msg{Data: []float64{9}})
		case 3:
			nd.RecvAny()
			nd.RecvAny()
			clock3 = nd.Clock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if clock3 != 2 {
		t.Errorf("n-port recv completion = %v, want 2", clock3)
	}
}

func TestPacketizationStartups(t *testing.T) {
	p := machine.IPSC() // Bm = 1024
	e, err := New(1, p)
	if err != nil {
		t.Fatal(err)
	}
	elems := 600 // 2400 bytes -> 3 packets
	err = e.Run(func(nd fabric.Node) {
		if nd.ID() == 0 {
			nd.Send(0, fabric.Msg{Data: make([]float64, elems)})
		} else {
			nd.Recv(0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Startups; got != 3 {
		t.Errorf("startups = %d, want 3", got)
	}
	wantT := 3*p.Tau + 2400*p.Tc
	if got := e.Stats().Time; math.Abs(got-wantT) > 1e-9 {
		t.Errorf("time = %v, want %v", got, wantT)
	}
}

func TestCopyAndAdvance(t *testing.T) {
	p := machine.IPSC()
	e, err := New(0, p)
	if err != nil {
		t.Fatal(err)
	}
	err = e.Run(func(nd fabric.Node) {
		nd.Copy(256)
		nd.Advance(100)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := p.CopyTime(256) + 100
	if got := e.Stats().Time; math.Abs(got-want) > 1e-9 {
		t.Errorf("time = %v, want %v", got, want)
	}
	if e.Stats().CopyBytes != 256 {
		t.Errorf("copy bytes = %d", e.Stats().CopyBytes)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := ideal(t, 2, machine.OnePort)
	err := e.Run(func(nd fabric.Node) {
		nd.Recv(0) // everyone waits, nobody sends
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
}

func TestPartialDeadlockDetected(t *testing.T) {
	e := ideal(t, 1, machine.OnePort)
	err := e.Run(func(nd fabric.Node) {
		if nd.ID() == 0 {
			return // finishes immediately
		}
		nd.Recv(0) // never satisfied
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
}

// Determinism: two identical runs produce identical stats.
func TestDeterminism(t *testing.T) {
	run := func() fabric.Stats {
		e := ideal(t, 4, machine.NPort)
		err := e.Run(func(nd fabric.Node) {
			n := nd.Dims()
			// All-to-all exchange over all dims with varying payloads.
			for d := 0; d < n; d++ {
				size := int(nd.ID())%3 + 1
				nd.Exchange(d, fabric.Msg{Src: nd.ID(), Data: make([]float64, size)})
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return e.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("nondeterministic stats:\n%+v\n%+v", a, b)
	}
}

// Dimension-scan exchange on an ideal one-port machine must cost exactly
// n * (τ + B·tc) when every node exchanges B bytes per dimension.
func TestExchangeScanTiming(t *testing.T) {
	n, B := 4, 16
	e := ideal(t, n, machine.OnePort)
	err := e.Run(func(nd fabric.Node) {
		for d := n - 1; d >= 0; d-- {
			nd.Exchange(d, fabric.Msg{Data: make([]float64, B)})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(n) * (1 + float64(B))
	if got := e.Stats().Time; got != want {
		t.Errorf("scan time = %v, want %v", got, want)
	}
}

// RecvAny picks the earliest arrival.
func TestRecvAnyOrder(t *testing.T) {
	e := ideal(t, 2, machine.NPort)
	var first float64
	err := e.Run(func(nd fabric.Node) {
		switch nd.ID() {
		case 1: // arrives later: big message on dim 0 towards node 3
			nd.Send(1, fabric.Msg{Data: make([]float64, 100)})
		case 2: // arrives earlier: small message towards node 3
			nd.Send(0, fabric.Msg{Data: []float64{7}})
		case 3:
			m := nd.RecvAny()
			first = m.Data[0]
			nd.RecvAny()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != 7 {
		t.Errorf("RecvAny returned the slower message first")
	}
}

func TestMsgClone(t *testing.T) {
	m := fabric.Msg{Data: []float64{1, 2}, Path: []int{3}}
	c := m.Clone()
	c.Data[0] = 99
	c.Path[0] = 0
	if m.Data[0] != 1 || m.Path[0] != 3 {
		t.Error("Clone shares backing arrays")
	}
}

func TestZeroDimCube(t *testing.T) {
	e := ideal(t, 0, machine.OnePort)
	ran := false
	err := e.Run(func(nd fabric.Node) {
		ran = true
		nd.Advance(5)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ran || e.Stats().Time != 5 {
		t.Errorf("zero-dim run broken: ran=%v time=%v", ran, e.Stats().Time)
	}
}

// Pipelined machines pay τ once regardless of message size.
func TestPipelinedSingleStartup(t *testing.T) {
	p := machine.ConnectionMachine()
	e, err := New(1, p)
	if err != nil {
		t.Fatal(err)
	}
	err = e.Run(func(nd fabric.Node) {
		if nd.ID() == 0 {
			nd.Send(0, fabric.Msg{Data: make([]float64, 100000)})
		} else {
			nd.Recv(0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Startups; got != 1 {
		t.Errorf("startups = %d, want 1", got)
	}
}

func TestMaxLinkStats(t *testing.T) {
	e := ideal(t, 1, machine.NPort)
	err := e.Run(func(nd fabric.Node) {
		if nd.ID() == 0 {
			nd.Send(0, fabric.Msg{Data: make([]float64, 10)})
			nd.Send(0, fabric.Msg{Data: make([]float64, 10)})
		} else {
			nd.Recv(0)
			nd.Recv(0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats().MaxLinkBytes != 20 {
		t.Errorf("max link bytes = %d, want 20", e.Stats().MaxLinkBytes)
	}
}

// Asymmetric exchange: the two sides may carry different payload sizes; the
// slower transmission bounds both completions.
func TestAsymmetricExchange(t *testing.T) {
	e := ideal(t, 1, machine.OnePort)
	var clock0, clock1 float64
	err := e.Run(func(nd fabric.Node) {
		size := 1
		if nd.ID() == 1 {
			size = 100
		}
		nd.Exchange(0, fabric.Msg{Data: make([]float64, size)})
		if nd.ID() == 0 {
			clock0 = nd.Clock()
		} else {
			clock1 = nd.Clock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 receives the 100-byte message: completes at 101. Node 1
	// receives the 1-byte message at 2.
	if clock0 != 101 {
		t.Errorf("node 0 clock = %v, want 101", clock0)
	}
	if clock1 != 2 {
		t.Errorf("node 1 clock = %v, want 2", clock1)
	}
}
