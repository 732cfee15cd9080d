package trace

import (
	"strings"
	"testing"

	"boolcube/internal/fabric"
	"boolcube/internal/machine"
	"boolcube/internal/simnet"
)

func tracedRun(t *testing.T, n int, prog func(fabric.Node)) *Recorder {
	t.Helper()
	e, err := simnet.New(n, machine.Ideal(machine.OnePort))
	if err != nil {
		t.Fatal(err)
	}
	rec := New()
	e.SetTracer(rec)
	if err := e.Run(prog); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestRecorderCapturesOps(t *testing.T) {
	rec := tracedRun(t, 1, func(nd fabric.Node) {
		nd.Copy(10)
		nd.Advance(5)
		nd.Exchange(0, fabric.Msg{Data: []float64{1, 2}})
	})
	kinds := map[string]int{}
	for _, ev := range rec.Events {
		kinds[ev.Kind]++
	}
	if kinds["copy"] != 2 || kinds["compute"] != 2 || kinds["send"] != 2 || kinds["recv"] != 2 {
		t.Errorf("event counts: %v", kinds)
	}
	lo, hi := rec.Span()
	if lo != 0 || hi <= 0 {
		t.Errorf("span = %v..%v", lo, hi)
	}
}

func TestEventsOrderedAndConsistent(t *testing.T) {
	rec := tracedRun(t, 2, func(nd fabric.Node) {
		for d := 0; d < 2; d++ {
			nd.Exchange(d, fabric.Msg{Data: make([]float64, 4)})
		}
	})
	for _, ev := range rec.Events {
		if ev.End < ev.Start {
			t.Fatalf("event ends before it starts: %+v", ev)
		}
		if ev.Kind == "send" || ev.Kind == "recv" {
			if ev.Dim < 0 || ev.Dim >= 2 {
				t.Fatalf("bad dim: %+v", ev)
			}
			if ev.Bytes != 4 {
				t.Fatalf("bad bytes: %+v", ev)
			}
		}
	}
	per := rec.PerNode()
	if len(per) != 4 {
		t.Fatalf("events for %d nodes, want 4", len(per))
	}
	for id, evs := range per {
		for i := 1; i < len(evs); i++ {
			if evs[i].Start < evs[i-1].Start {
				t.Fatalf("node %d events out of order", id)
			}
		}
	}
}

func TestBusyTotals(t *testing.T) {
	rec := tracedRun(t, 0, func(nd fabric.Node) {
		nd.Advance(7)
		nd.Advance(3)
	})
	busy := rec.Busy()
	if got := busy[0]["compute"]; got != 10 {
		t.Errorf("compute busy = %v, want 10", got)
	}
}

func TestGanttRendering(t *testing.T) {
	rec := tracedRun(t, 1, func(nd fabric.Node) {
		nd.Exchange(0, fabric.Msg{Data: make([]float64, 8)})
		nd.Copy(100)
	})
	g := rec.Gantt(40)
	if !strings.Contains(g, "node    0") || !strings.Contains(g, "node    1") {
		t.Errorf("gantt missing node rows:\n%s", g)
	}
	for _, glyph := range []string{"S", "C", "legend"} {
		if !strings.Contains(g, glyph) {
			t.Errorf("gantt missing %q:\n%s", glyph, g)
		}
	}
	if rec2 := New(); !strings.Contains(rec2.Gantt(40), "no events") {
		t.Error("empty recorder should render a placeholder")
	}
}

func TestSummaryRendering(t *testing.T) {
	rec := tracedRun(t, 1, func(nd fabric.Node) {
		nd.Exchange(0, fabric.Msg{Data: make([]float64, 8)})
	})
	s := rec.Summary()
	if !strings.Contains(s, "send") || !strings.Contains(s, "0") {
		t.Errorf("summary malformed:\n%s", s)
	}
}

// The trace must be identical across runs (engine determinism carries over).
func TestTraceDeterminism(t *testing.T) {
	run := func() []fabric.TraceEvent {
		rec := tracedRun(t, 3, func(nd fabric.Node) {
			for d := 2; d >= 0; d-- {
				nd.Exchange(d, fabric.Msg{Data: make([]float64, int(nd.ID())+1)})
			}
		})
		return rec.Events
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
