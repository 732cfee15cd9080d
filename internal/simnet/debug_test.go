package simnet

import (
	"fmt"
	"strings"
	"testing"

	"boolcube/internal/fabric"
	"boolcube/internal/machine"
)

// TestDebugCleanRun checks that SIMNET_DEBUG assertions are silent on a
// correct program: the engine's own serialization keeps send intervals
// disjoint per port, so a healthy run must complete normally.
func TestDebugCleanRun(t *testing.T) {
	t.Setenv("SIMNET_DEBUG", "1")
	e, err := New(2, machine.IPSC())
	if err != nil {
		t.Fatal(err)
	}
	if !e.debug {
		t.Fatal("SIMNET_DEBUG not snapshotted by New")
	}
	err = e.Run(func(nd fabric.Node) {
		// Every node exchanges with both neighbors: two sends per node on
		// the single port of a one-port machine.
		for dim := 0; dim < 2; dim++ {
			nd.Send(dim, fabric.Msg{Src: nd.ID(), Data: make([]float64, 4)})
		}
		for dim := 0; dim < 2; dim++ {
			nd.Recv(dim)
		}
	})
	if err != nil {
		t.Fatalf("debug run failed: %v", err)
	}
}

// TestDebugDetectsOverlappingSends corrupts the one-port send bookkeeping
// from inside a node program (white-box: same package) and checks that the
// debug assertion catches the resulting pair of in-flight sends, naming the
// node and the virtual times involved. The second send runs wherever the
// scheduler executes it — eagerly on the node's goroutine, where the panic
// comes back as Run's error, or on the scheduler's — so the message is
// accepted from either.
func TestDebugDetectsOverlappingSends(t *testing.T) {
	t.Setenv("SIMNET_DEBUG", "1")
	e, err := New(2, machine.IPSC())
	if err != nil {
		t.Fatal(err)
	}
	var msg string
	func() {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		err := e.Run(func(nd fabric.Node) {
			if nd.ID() == 0 {
				nd.Send(0, fabric.Msg{Src: 0, Data: make([]float64, 16)})
				// Simulate a port-serialization bug: forget that the single
				// send port is busy. The second send targets a different link
				// (dim 1), so only the port resource should force it to wait —
				// and with the bookkeeping corrupted, nothing does.
				nd.(*Node).sendFree[0] = 0
				nd.Send(1, fabric.Msg{Src: 0, Data: make([]float64, 16)})
			}
		})
		if err != nil {
			msg = err.Error()
		}
	}()
	if msg == "" {
		t.Fatal("Run finished without tripping the debug assertion")
	}
	for _, want := range []string{"node 0", "two in-flight sends"} {
		if !strings.Contains(msg, want) {
			t.Errorf("assertion message %q missing %q", msg, want)
		}
	}
}
