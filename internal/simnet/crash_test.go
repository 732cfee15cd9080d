package simnet

import (
	"errors"
	"reflect"
	"testing"

	"boolcube/internal/fabric"
	"boolcube/internal/fault"
	"boolcube/internal/machine"
)

// ringProg is a program with steady all-dimension traffic: every node sends
// its id across every dimension in turn and receives the neighbor's.
func ringProg(rounds int) func(fabric.Node) {
	return func(nd fabric.Node) {
		for r := 0; r < rounds; r++ {
			for d := 0; d < nd.Dims(); d++ {
				nd.Send(d, fabric.Msg{Data: []float64{float64(nd.ID())}})
				nd.Recv(d)
			}
		}
	}
}

func TestCrashStopSurfacesNodeDownError(t *testing.T) {
	e := faultEngine(t, 3, fault.NodeCrash(5, 30), fabric.RetryPolicy{})
	err := e.Run(ringProg(8))
	var nde *fabric.NodeDownError
	if !errors.As(err, &nde) {
		t.Fatalf("Run() = %v, want *fabric.NodeDownError", err)
	}
	if !errors.Is(err, fabric.ErrNodeDown) {
		t.Fatalf("error %v does not unwrap to ErrNodeDown", err)
	}
	if nde.Node != 5 || len(nde.Nodes) != 1 || nde.Nodes[0] != 5 {
		t.Fatalf("dead nodes = %d %v, want node 5 only", nde.Node, nde.Nodes)
	}
	if nde.At != 30 {
		t.Fatalf("At = %g, want the scheduled crash time 30", nde.At)
	}
	if nde.LastHeard > nde.At {
		t.Fatalf("LastHeard = %g after the crash time %g", nde.LastHeard, nde.At)
	}
	if nde.DetectedAt < nde.At {
		t.Fatalf("DetectedAt = %g before the crash time %g", nde.DetectedAt, nde.At)
	}
	if st := e.Stats(); st.Time != nde.DetectedAt {
		t.Fatalf("Stats.Time = %g, want detection time %g", st.Time, nde.DetectedAt)
	}
}

func TestCrashBeforeAnyWorkKillsImmediately(t *testing.T) {
	e := faultEngine(t, 2, fault.NodeCrash(0, 0), fabric.RetryPolicy{})
	err := e.Run(ringProg(1))
	var nde *fabric.NodeDownError
	if !errors.As(err, &nde) {
		t.Fatalf("Run() = %v, want *fabric.NodeDownError", err)
	}
	if nde.Node != 0 || nde.At != 0 {
		t.Fatalf("got node %d at %g, want node 0 at 0", nde.Node, nde.At)
	}
}

func TestCrashAfterProgramEndIsHarmless(t *testing.T) {
	// The program finishes long before t=1e9, so the kill never fires.
	e := faultEngine(t, 2, fault.NodeCrash(1, 1e9), fabric.RetryPolicy{})
	if err := e.Run(ringProg(2)); err != nil {
		t.Fatalf("Run() = %v, want clean completion before the crash", err)
	}
}

func TestCrashOfBlockedNodeFiresAtQuiesce(t *testing.T) {
	// Node 1 only ever receives; node 0 sends once then stops. After the
	// single exchange the system quiesces with node 1 blocked, and its
	// pending crash is the only remaining event.
	e := faultEngine(t, 1, fault.NodeCrash(1, 500), fabric.RetryPolicy{})
	err := e.Run(func(nd fabric.Node) {
		if nd.ID() == 0 {
			nd.Send(0, fabric.Msg{Data: []float64{1}})
			return
		}
		nd.Recv(0)
		nd.Recv(0) // never satisfied: the sender is done
	})
	var nde *fabric.NodeDownError
	if !errors.As(err, &nde) {
		t.Fatalf("Run() = %v, want *fabric.NodeDownError", err)
	}
	if nde.Node != 1 {
		t.Fatalf("dead node = %d, want 1", nde.Node)
	}
	if nde.DetectedAt < 500 {
		t.Fatalf("DetectedAt = %g, want >= crash time 500 (time jumps to the crash)", nde.DetectedAt)
	}
}

func TestCrashTwoNodesReportsBothAscending(t *testing.T) {
	spec := fault.Spec{Rules: []fault.Rule{
		{Kind: fault.Crash, Node: 6, Start: 25},
		{Kind: fault.Crash, Node: 2, Start: 40},
	}}
	e := faultEngine(t, 3, spec, fabric.RetryPolicy{})
	err := e.Run(ringProg(8))
	var nde *fabric.NodeDownError
	if !errors.As(err, &nde) {
		t.Fatalf("Run() = %v, want *fabric.NodeDownError", err)
	}
	if !reflect.DeepEqual(nde.Nodes, []uint64{2, 6}) {
		t.Fatalf("Nodes = %v, want [2 6] ascending", nde.Nodes)
	}
	if nde.Node != 2 || nde.At != 40 {
		t.Fatalf("canonical culprit = node %d at %g, want node 2 at 40", nde.Node, nde.At)
	}
}

func TestCrashWithFaultErrorFirstWinsByTime(t *testing.T) {
	// A permanent link-down hit at the very first send aborts the run as a
	// FaultError even though a crash is scheduled later: failures surface in
	// execution order, and a crash only aborts once the system cannot
	// progress.
	spec := fault.Spec{Rules: []fault.Rule{
		{Kind: fault.LinkDown, Link: fault.Link{From: 0, Dim: 0}},
		{Kind: fault.Crash, Node: 3, Start: 1e6},
	}}
	e := faultEngine(t, 2, spec, fabric.RetryPolicy{})
	err := e.Run(ringProg(4))
	var fe *fabric.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("Run() = %v, want *FaultError (link failure executes first)", err)
	}
}

func TestAfterTranslatesFiredCrashToDownLinks(t *testing.T) {
	fp := fault.MustCompile(fault.NodeCrash(3, 50), 3)
	view := fp.After(80)
	// The fired crash leaves the schedule...
	if _, ok := view.CrashAt(3); ok {
		t.Fatalf("fired crash still scheduled in the After view")
	}
	// ...and every incident directed link is permanently down.
	for d := 0; d < 3; d++ {
		if !view.PermanentlyDown(3, d) {
			t.Fatalf("outbound link (3, dim %d) not permanently down in view", d)
		}
		if !view.PermanentlyDown(3^uint64(1)<<uint(d), d) {
			t.Fatalf("inbound link into 3 over dim %d not permanently down in view", d)
		}
	}
}

func TestAfterShiftsFutureCrash(t *testing.T) {
	fp := fault.MustCompile(fault.NodeCrash(2, 100), 2)
	view := fp.After(40)
	ct, ok := view.CrashAt(2)
	if !ok || ct != 60 {
		t.Fatalf("CrashAt(2) = %g, %v; want 60, true", ct, ok)
	}
	// The un-fired crash must not down any links yet.
	if view.PermanentlyDown(2, 0) {
		t.Fatalf("future crash already downed a link in the view")
	}
}

func TestAfterCrashExactlyAtCutIsDead(t *testing.T) {
	fp := fault.MustCompile(fault.NodeCrash(1, 25), 2)
	view := fp.After(25)
	if _, ok := view.CrashAt(1); ok {
		t.Fatalf("crash at exactly the cut time should have fired")
	}
	if !view.PermanentlyDown(1, 0) {
		t.Fatalf("node dead at the cut must have its links down in the view")
	}
}

func TestCrashCapabilityDeclared(t *testing.T) {
	e := ideal(t, 2, machine.OnePort)
	if !e.Capabilities().CrashStop {
		t.Fatalf("simnet must declare the CrashStop capability")
	}
}
