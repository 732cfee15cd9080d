package simnet

import (
	"errors"
	"testing"

	"boolcube/internal/fabric"
	"boolcube/internal/fault"
	"boolcube/internal/machine"
)

func TestDeadlineAbortsWithTypedError(t *testing.T) {
	// Ideal one-port, 1 elem = dur 2: a chain of sends crosses t=3 on the
	// second hop's start.
	e := ideal(t, 1, machine.OnePort)
	e.SetDeadline(3)
	err := e.Run(func(nd fabric.Node) {
		if nd.ID() == 0 {
			nd.Send(0, fabric.Msg{Data: []float64{1}})
			nd.Recv(0)
		} else {
			m := nd.Recv(0)
			nd.Send(0, m) // starts at t=2+copy... within budget? keep sending
			nd.Recv(0)
		}
	})
	var de *fabric.DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("Run() = %v, want *DeadlineError", err)
	}
	if !errors.Is(err, fabric.ErrDeadline) {
		t.Fatalf("error %v does not unwrap to ErrDeadline", err)
	}
	if de.Deadline != 3 {
		t.Fatalf("Deadline = %v, want 3", de.Deadline)
	}
	if de.NextAt <= de.Deadline {
		t.Fatalf("aborting operation starts at t=%v, within budget t=%v", de.NextAt, de.Deadline)
	}
	// Stats survive the abort and never exceed the deadline's start bound.
	if st := e.Stats(); st.Sends == 0 {
		t.Fatalf("no pre-deadline progress recorded: %+v", st)
	}
}

func TestDeadlineGenerousRunCompletes(t *testing.T) {
	e := ideal(t, 2, machine.NPort)
	e.SetDeadline(1e9)
	err := e.Run(func(nd fabric.Node) {
		for d := 0; d < nd.Dims(); d++ {
			nd.Exchange(d, fabric.Msg{Data: []float64{float64(nd.ID())}})
		}
	})
	if err != nil {
		t.Fatalf("generous deadline aborted the run: %v", err)
	}
}

// The deadline check is strict (> t): an operation whose action time equals
// the deadline executes, so a budget of exactly the makespan admits the run.
func TestDeadlineBoundaryIsInclusive(t *testing.T) {
	e := ideal(t, 1, machine.OnePort)
	e.SetDeadline(2) // sends start at t=0, receives act exactly at t=2
	err := e.Run(func(nd fabric.Node) {
		nd.Exchange(0, fabric.Msg{Data: []float64{float64(nd.ID())}})
	})
	if err != nil {
		t.Fatalf("run acting exactly at the deadline aborted: %v", err)
	}
	if st := e.Stats(); st.Time != 2 {
		t.Fatalf("makespan = %v, want 2", st.Time)
	}
}

// A deadline abort is as deterministic as any other outcome: identical
// engines produce identical typed errors, stats and traces.
func TestDeadlineAbortDeterministic(t *testing.T) {
	run := func() (string, fabric.Stats, []fabric.TraceEvent) {
		e := ideal(t, 3, machine.OnePort)
		fp, err := fault.Compile(fault.Spec{Seed: 5, Rules: []fault.Rule{
			{Kind: fault.LinkFlaky, Link: fault.Link{From: 1, Dim: 0}, Prob: 0.5},
		}}, 3)
		if err != nil {
			t.Fatal(err)
		}
		e.SetFaults(fp, fabric.RetryPolicy{Attempts: 64})
		tr := &recordTracer{}
		e.SetTracer(tr)
		e.SetDeadline(40)
		rerr := e.Run(func(nd fabric.Node) {
			for rep := 0; rep < 8; rep++ {
				for d := 0; d < nd.Dims(); d++ {
					nd.Exchange(d, fabric.Msg{Data: []float64{1, 2, 3, 4}})
				}
			}
		})
		if rerr == nil {
			t.Fatal("deadline t=40 did not abort an 8-round exchange storm")
		}
		if !errors.Is(rerr, fabric.ErrDeadline) {
			t.Fatalf("abort error = %v, want ErrDeadline", rerr)
		}
		return rerr.Error(), e.Stats(), tr.events
	}
	m1, s1, t1 := run()
	m2, s2, t2 := run()
	if m1 != m2 {
		t.Fatalf("abort messages diverge:\n%s\n%s", m1, m2)
	}
	if s1 != s2 {
		t.Fatalf("stats diverge:\n%+v\n%+v", s1, s2)
	}
	if len(t1) != len(t2) {
		t.Fatalf("trace lengths diverge: %d vs %d", len(t1), len(t2))
	}
}
