package livenet

import (
	"errors"
	"testing"
	"time"

	"boolcube/internal/fabric"
	"boolcube/internal/fault"
	"boolcube/internal/machine"
)

func liveEngine(t *testing.T, n int) *Engine {
	t.Helper()
	e, err := New(n, machine.Ideal(machine.OnePort))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func liveCrashEngine(t *testing.T, n int, spec fault.Spec) *Engine {
	t.Helper()
	e := liveEngine(t, n)
	fp, err := fault.Compile(spec, n)
	if err != nil {
		t.Fatal(err)
	}
	e.SetFaults(fp, fabric.RetryPolicy{})
	return e
}

// chatter keeps every node exchanging across all dimensions with a short
// real compute phase per round, so a mid-run kill leaves survivors blocked
// on the dead node's silence.
func chatter(rounds int, computeUS float64) func(fabric.Node) {
	return func(nd fabric.Node) {
		for r := 0; r < rounds; r++ {
			nd.Advance(computeUS)
			for d := 0; d < nd.Dims(); d++ {
				nd.Send(d, fabric.Msg{Data: []float64{float64(nd.ID())}})
				nd.Recv(d)
			}
		}
	}
}

func TestCrashStopDetectedByHeartbeat(t *testing.T) {
	// Kill node 3 10ms into a run that would otherwise last much longer.
	// The suspicion timeout bounds detection latency: the detector cannot
	// fire before the dead node has been silent for the timeout, and must
	// fire within the timeout plus a few detector ticks.
	const timeout = 100 * time.Millisecond
	e := liveCrashEngine(t, 2, fault.NodeCrash(3, 10_000))
	e.SetParams(Params{SuspicionTimeout: timeout})
	err := e.Run(chatter(10_000, 500))
	var nde *fabric.NodeDownError
	if !errors.As(err, &nde) {
		t.Fatalf("Run() = %v, want *fabric.NodeDownError", err)
	}
	if !errors.Is(err, fabric.ErrNodeDown) {
		t.Fatalf("error %v does not unwrap to fabric.ErrNodeDown", err)
	}
	if nde.Node != 3 {
		t.Fatalf("dead node = %d, want 3", nde.Node)
	}
	if nde.At != 10_000 {
		t.Fatalf("At = %g, want the scheduled kill time 10000", nde.At)
	}
	timeoutUS := float64(timeout) / float64(time.Microsecond)
	if silent := nde.DetectedAt - nde.LastHeard; silent < timeoutUS {
		t.Fatalf("detected after only %gµs of silence, want >= the %gµs suspicion timeout", silent, timeoutUS)
	}
	// Upper bound: timeout + detector tick (timeout/4) + heartbeat interval
	// (timeout/8), with generous slack for CI scheduling.
	slackUS := float64(time.Second) / float64(time.Microsecond)
	if lat := nde.DetectedAt - nde.At; lat > timeoutUS+timeoutUS/4+timeoutUS/8+slackUS {
		t.Fatalf("detection latency %gµs exceeds the configured bound", lat)
	}
}

func TestCrashAfterProgramEndNeverFires(t *testing.T) {
	e := liveCrashEngine(t, 1, fault.NodeCrash(1, 1e9)) // ~17 minutes out
	if err := e.Run(chatter(2, 0)); err != nil {
		t.Fatalf("Run() = %v, want clean completion before the kill", err)
	}
}

func TestCrashSurfacesEvenWhenSurvivorsFinish(t *testing.T) {
	// Nobody ever needs node 1 again, so no survivor wedges and the
	// detector (timeout pushed way out) never fires; the run must still
	// fail — the dead node's own program did not complete.
	e := liveCrashEngine(t, 1, fault.NodeCrash(1, 5_000))
	e.SetParams(Params{SuspicionTimeout: 10 * time.Second})
	err := e.Run(func(nd fabric.Node) {
		nd.Advance(40_000) // 40ms: the kill lands mid-sleep
	})
	var nde *fabric.NodeDownError
	if !errors.As(err, &nde) {
		t.Fatalf("Run() = %v, want *fabric.NodeDownError", err)
	}
	if nde.Node != 1 || nde.At != 5_000 {
		t.Fatalf("got node %d at %g, want node 1 at 5000", nde.Node, nde.At)
	}
}

func TestStallSurfacesTypedErrorWithBlockedNodes(t *testing.T) {
	// Node 1 waits for a message that never comes; a configured 200ms
	// stall window turns that into a typed *StallError naming it.
	e := liveEngine(t, 1)
	e.SetParams(Params{StallWindow: 200 * time.Millisecond})
	err := e.Run(func(nd fabric.Node) {
		if nd.ID() == 1 {
			nd.Recv(0) // never satisfied
		}
	})
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("Run() = %v, want *StallError", err)
	}
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("error %v does not unwrap to ErrStalled", err)
	}
	if se.Window != 200*time.Millisecond {
		t.Fatalf("Window = %v, want the configured 200ms", se.Window)
	}
	if len(se.Blocked) != 1 || se.Blocked[0].Node != 1 || se.Blocked[0].Dim != 0 {
		t.Fatalf("Blocked = %v, want node 1 on dim 0", se.Blocked)
	}
}

func TestSetParamsDefaultsAndOverrides(t *testing.T) {
	e := liveEngine(t, 1)
	d := e.SupervisionParams()
	if d.StallWindow != 5*time.Second || d.SuspicionTimeout != 250*time.Millisecond {
		t.Fatalf("defaults = %+v, want 5s stall window and 250ms suspicion timeout", d)
	}
	if d.heartbeat() != d.SuspicionTimeout/8 {
		t.Fatalf("default heartbeat %v, want timeout/8", d.heartbeat())
	}
	e.SetParams(Params{StallWindow: time.Second, SuspicionTimeout: 80 * time.Millisecond})
	p := e.SupervisionParams()
	if p.StallWindow != time.Second || p.SuspicionTimeout != 80*time.Millisecond || p.heartbeat() != 10*time.Millisecond {
		t.Fatalf("overrides not honored: %+v", p)
	}
}
