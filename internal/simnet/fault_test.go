package simnet

import (
	"errors"
	"reflect"
	"testing"

	"boolcube/internal/fabric"
	"boolcube/internal/fault"
	"boolcube/internal/machine"
)

// faultEngine builds an ideal one-port engine with a compiled fault plan.
func faultEngine(t *testing.T, n int, spec fault.Spec, rp fabric.RetryPolicy) *Engine {
	t.Helper()
	e := ideal(t, n, machine.OnePort)
	fp, err := fault.Compile(spec, n)
	if err != nil {
		t.Fatal(err)
	}
	e.SetFaults(fp, rp)
	return e
}

func TestPermanentLinkDownAbortsWithTypedError(t *testing.T) {
	e := faultEngine(t, 1, fault.SingleLinkDown(0, 0), fabric.RetryPolicy{})
	err := e.Run(func(nd fabric.Node) {
		if nd.ID() == 0 {
			nd.Send(0, fabric.Msg{Data: []float64{1}})
		} else {
			nd.Recv(0)
		}
	})
	var fe *fabric.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("Run() = %v, want *FaultError", err)
	}
	if !errors.Is(err, fabric.ErrLinkDown) {
		t.Fatalf("error %v does not unwrap to ErrLinkDown", err)
	}
	if fe.From != 0 || fe.To != 1 || fe.Dim != 0 || fe.Attempts != 1 {
		t.Fatalf("fault error fields: %+v", fe)
	}
	if st := e.Stats(); st.FaultedSends != 1 {
		t.Fatalf("FaultedSends = %d, want 1", st.FaultedSends)
	}
}

func TestTrySendSurfacesErrorWithoutAborting(t *testing.T) {
	e := faultEngine(t, 1, fault.SingleLinkDown(0, 0), fabric.RetryPolicy{})
	var sawErr error
	err := e.Run(func(nd fabric.Node) {
		if nd.ID() == 0 {
			sawErr = nd.TrySend(0, fabric.Msg{Data: []float64{1}})
		}
	})
	if err != nil {
		t.Fatalf("Run() = %v, want nil (program handled the fault)", err)
	}
	if !errors.Is(sawErr, fabric.ErrLinkDown) {
		t.Fatalf("TrySend error = %v, want ErrLinkDown", sawErr)
	}
}

func TestTransientWindowWaitedOut(t *testing.T) {
	spec := fault.Spec{Rules: []fault.Rule{
		{Kind: fault.LinkDown, Link: fault.Link{From: 0, Dim: 0}, Start: 0, End: 10},
	}}
	e := faultEngine(t, 1, spec, fabric.RetryPolicy{})
	var got float64
	err := e.Run(func(nd fabric.Node) {
		if nd.ID() == 0 {
			nd.Send(0, fabric.Msg{Data: []float64{42}})
		} else {
			got = nd.Recv(0).Data[0]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("payload = %v, want 42", got)
	}
	st := e.Stats()
	if st.Retries != 1 || st.Drops != 0 {
		t.Fatalf("stats = %+v, want 1 retry, 0 drops", st)
	}
	// The send could only start once the window closed at t=10.
	if st.Time < 10 {
		t.Fatalf("makespan %v predates the link recovery at t=10", st.Time)
	}
}

func TestRetryBudgetExhaustedOnAlwaysDropLink(t *testing.T) {
	e := faultEngine(t, 1, fault.FlakyLink(0, 0, 1), fabric.RetryPolicy{Attempts: 3})
	err := e.Run(func(nd fabric.Node) {
		if nd.ID() == 0 {
			nd.Send(0, fabric.Msg{Data: []float64{1}})
		} else {
			nd.Recv(0)
		}
	})
	var fe *fabric.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("Run() = %v, want *FaultError", err)
	}
	if !errors.Is(err, fabric.ErrRetryBudget) {
		t.Fatalf("error %v does not unwrap to ErrRetryBudget", err)
	}
	if fe.Attempts != 3 {
		t.Fatalf("Attempts = %d, want 3", fe.Attempts)
	}
	if st := e.Stats(); st.Drops != 3 || st.Retries != 2 {
		t.Fatalf("stats = %+v, want 3 drops, 2 retries", st)
	}
}

func TestFlakyLinkRetransmitsAndDelivers(t *testing.T) {
	const msgs = 20
	e := faultEngine(t, 1, fault.FlakyLink(0, 0, 0.5), fabric.RetryPolicy{Attempts: 64})
	var got []float64
	err := e.Run(func(nd fabric.Node) {
		if nd.ID() == 0 {
			for i := 0; i < msgs; i++ {
				nd.Send(0, fabric.Msg{Data: []float64{float64(i)}})
			}
		} else {
			for i := 0; i < msgs; i++ {
				got = append(got, nd.Recv(0).Data[0])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != float64(i) {
			t.Fatalf("message %d carried %v (FIFO order broken by retransmits)", i, v)
		}
	}
	st := e.Stats()
	if st.Drops == 0 {
		t.Fatal("p=0.5 over 20 transmissions produced no drops")
	}
	if st.Retries != st.Drops {
		t.Fatalf("retries %d != drops %d for a drop-only fault", st.Retries, st.Drops)
	}
}

// recordTracer captures events for determinism comparison.
type recordTracer struct{ events []fabric.TraceEvent }

func (r *recordTracer) Record(ev fabric.TraceEvent) { r.events = append(r.events, ev) }

func TestFaultedRunDeterminism(t *testing.T) {
	run := func() (fabric.Stats, []fabric.TraceEvent) {
		spec := fault.Spec{Seed: 11, Rules: []fault.Rule{
			{Kind: fault.LinkFlaky, Link: fault.Link{From: 0, Dim: 1}, Prob: 0.5},
			{Kind: fault.LinkDown, Link: fault.Link{From: 2, Dim: 0}, Start: 0, End: 6},
		}}
		e := faultEngine(t, 2, spec, fabric.RetryPolicy{Attempts: 32})
		tr := &recordTracer{}
		e.SetTracer(tr)
		err := e.Run(func(nd fabric.Node) {
			for d := 0; d < nd.Dims(); d++ {
				nd.Exchange(d, fabric.Msg{Data: []float64{float64(nd.ID())}})
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return e.Stats(), tr.events
	}
	st1, tr1 := run()
	st2, tr2 := run()
	if st1 != st2 {
		t.Fatalf("stats diverge across identical faulted runs:\n%+v\n%+v", st1, st2)
	}
	if !reflect.DeepEqual(tr1, tr2) {
		t.Fatal("trace diverges across identical faulted runs")
	}
	if st1.Drops == 0 && st1.Retries == 0 {
		t.Fatalf("faulted run shows no fault activity: %+v", st1)
	}
	// Drop events must be labeled for the Gantt renderer.
	sawDrop := false
	for _, ev := range tr1 {
		if ev.Kind == "drop" {
			sawDrop = true
			break
		}
	}
	if st1.Drops > 0 && !sawDrop {
		t.Fatal("drops counted but no drop trace events recorded")
	}
}
