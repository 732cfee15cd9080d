package simnet

import (
	"math"
	"testing"

	"boolcube/internal/fabric"
	"boolcube/internal/fault"
)

// Drop trace events carry enough detail to debug a faulted run from the
// trace alone: the 1-based attempt that failed, and how long the link
// stays down (+Inf for a permanent failure, the window end for transient).
func TestDropTraceCarriesAttemptAndWindow(t *testing.T) {
	e := faultEngine(t, 1, fault.FlakyLink(0, 0, 1), fabric.RetryPolicy{Attempts: 3})
	tr := &recordTracer{}
	e.SetTracer(tr)
	e.Run(func(nd fabric.Node) {
		if nd.ID() == 0 {
			nd.Send(0, fabric.Msg{Data: []float64{1}})
		} else {
			nd.Recv(0)
		}
	})
	var drops []fabric.TraceEvent
	for _, ev := range tr.events {
		if ev.Kind == "drop" {
			drops = append(drops, ev)
		}
	}
	if len(drops) != 3 {
		t.Fatalf("got %d drop events, want 3 (retry budget)", len(drops))
	}
	for i, ev := range drops {
		if ev.Attempt != i+1 {
			t.Errorf("drop %d: Attempt = %d, want %d", i, ev.Attempt, i+1)
		}
	}
}

func TestDownWindowInDropTrace(t *testing.T) {
	// A link down on [0, 10) with a zero retry budget: the failed send's
	// drop event must report DownUntil = 10.
	spec := fault.Spec{Rules: []fault.Rule{
		{Kind: fault.LinkDown, Link: fault.Link{From: 0, Dim: 0}, Start: 0, End: 10},
	}}
	e := faultEngine(t, 1, spec, fabric.RetryPolicy{})
	tr := &recordTracer{}
	e.SetTracer(tr)
	err := e.Run(func(nd fabric.Node) {
		if nd.ID() == 0 {
			nd.Send(0, fabric.Msg{Data: []float64{1}})
		} else {
			nd.Recv(0)
		}
	})
	if err != nil {
		t.Fatalf("transient window should be waited out, got %v", err)
	}
	sawWindow := false
	for _, ev := range tr.events {
		if ev.Kind == "drop" && ev.DownUntil == 10 {
			sawWindow = true
		}
	}
	if !sawWindow {
		t.Fatal("waited-out transient window left no drop event with DownUntil=10")
	}
	// Permanent failures must report an unbounded window.
	e2 := faultEngine(t, 1, fault.SingleLinkDown(0, 0), fabric.RetryPolicy{})
	tr2 := &recordTracer{}
	e2.SetTracer(tr2)
	e2.Run(func(nd fabric.Node) {
		if nd.ID() == 0 {
			nd.Send(0, fabric.Msg{Data: []float64{1}})
		} else {
			nd.Recv(0)
		}
	})
	found := false
	for _, ev := range tr2.events {
		if ev.Kind == "drop" {
			found = true
			if !math.IsInf(ev.DownUntil, 1) {
				t.Errorf("permanent link drop: DownUntil = %v, want +Inf", ev.DownUntil)
			}
			if ev.Attempt != 1 {
				t.Errorf("Attempt = %d, want 1", ev.Attempt)
			}
		}
	}
	if !found {
		t.Fatal("no drop event for a permanently-down link")
	}
}
