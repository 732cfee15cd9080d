package router

import (
	"errors"
	"testing"

	"boolcube/internal/fabric"
	"boolcube/internal/machine"
	"boolcube/internal/simnet"
)

// corrupting is a fabric whose links flip one element of one packet of one
// flow in flight, after the source stamped the flow's checksum.
type corrupting struct {
	*simnet.Engine
	flow, packet int
}

func (c *corrupting) Run(prog func(fabric.Node)) error {
	return c.Engine.Run(func(nd fabric.Node) { prog(&corruptingNode{Node: nd, c: c}) })
}

type corruptingNode struct {
	fabric.Node
	c *corrupting
}

func (nd *corruptingNode) Send(dim int, m fabric.Msg) {
	if m.Tag == nd.c.flow && m.Rel == uint64(nd.c.packet) && m.Src == nd.ID() {
		m.Data = append([]float64(nil), m.Data...)
		m.Data[0]++
	}
	nd.Node.Send(dim, m)
}

// TestCorruptFlowAborts: a payload corrupted in flight fails the
// destination's end-of-program audit with a typed *fabric.AuditError naming
// the flow, at the same virtual instant whatever the packet's position in
// the flow, and the salvaged result never exposes the corrupt flow while
// keeping the clean ones.
func TestCorruptFlowAborts(t *testing.T) {
	build := func() []Flow {
		var flows []Flow
		for s := uint64(0); s < 8; s++ {
			d := s ^ 7
			data := make([]float64, 6)
			for i := range data {
				data[i] = float64(10*s) + float64(i)
			}
			flows = append(flows, Flow{Src: s, Dst: d, Dims: Ecube(s, d, 3), Data: data, Packets: 3})
		}
		return flows
	}
	// The audit runs once node 2 has received its last packet: the clean
	// run's trace says when.
	clean, err := simnet.New(3, machine.Ideal(machine.OnePort))
	if err != nil {
		t.Fatal(err)
	}
	var lastRecv lastRecvAt
	clean.SetTracer(&lastRecv)
	if _, err := RunFlows(clean, build()); err != nil {
		t.Fatal(err)
	}
	for _, packet := range []int{0, 2} {
		e, err := simnet.New(3, machine.Ideal(machine.OnePort))
		if err != nil {
			t.Fatal(err)
		}
		flows := build()
		done, err := RunFlows(&corrupting{Engine: e, flow: 5, packet: packet}, flows)
		var ae *fabric.AuditError
		if !errors.As(err, &ae) || ae.What != "flow" || ae.Src != 5 || ae.Dst != 2 || ae.Node != 2 {
			t.Fatalf("packet %d: err = %v, want a flow audit failure of 5 -> 2 at node 2", packet, err)
		}
		if got, want := e.Stats().Time, lastRecv[2]; got != want {
			t.Errorf("packet %d: run stopped at t=%v, want %v (node 2's last receive)", packet, got, want)
		}
		if len(done.FlowIdx) == 0 {
			t.Fatalf("packet %d: no clean flow salvaged", packet)
		}
		for k, fi := range done.FlowIdx {
			if fi == 5 {
				t.Fatalf("packet %d: corrupt flow salvaged", packet)
			}
			for i, v := range done.Data[k] {
				if v != flows[fi].Data[i] {
					t.Fatalf("packet %d: salvaged flow %d element %d = %v", packet, fi, i, v)
				}
			}
		}
	}
}

// lastRecvAt records each node's last receive completion of a 3-cube run.
type lastRecvAt [8]float64

func (l *lastRecvAt) Record(ev fabric.TraceEvent) {
	if ev.Kind == "recv" {
		l[ev.Node] = max(l[ev.Node], ev.End)
	}
}
