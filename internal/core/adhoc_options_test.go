package core

import (
	"errors"
	"testing"

	"boolcube/internal/fabric"
	"boolcube/internal/fault"
	"boolcube/internal/field"
	"boolcube/internal/machine"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
)

// firstSend remembers the first directed link a run transmits on — by
// construction a link on a used route.
type firstSend struct {
	seen bool
	link fault.Link
}

func (f *firstSend) Record(ev fabric.TraceEvent) {
	if !f.seen && ev.Kind == "send" {
		f.seen, f.link = true, fault.Link{From: ev.Node, Dim: ev.Dim}
	}
}

// The four entry points that used to run outside any compiled plan cost, with
// zero options, exactly what they always did (Stats pinned below). The two
// conversions are registry rows now, run through Transpose (each case keeps
// the name of the entry point it replaced), so Options.Deadline and
// Options.Faults get a plan's treatment: a deadline abort is an *ExecError
// whose checkpoint Recover finishes, and a permanently-down used link is
// refused pre-flight (the exchange phases have no alternative routes) or
// routed around (the encoding conversion's flows fail over like any flow
// plan's). The Section 5 transcriptions are option-free test oracles; only
// their cost is pinned.
func TestAdHocEntryPointsHonourExecOptions(t *testing.T) {
	mach := machine.IPSC()
	m := matrix.NewIota(4, 4)
	rows := field.OneDimConsecutiveRows(4, 4, 3, field.Binary)
	oracle := func(f func(*matrix.Dist, field.Layout, machine.Params) (*Result, error)) func(Options) (*Result, error) {
		return func(o Options) (*Result, error) { return f(matrix.Scatter(m, rows), rows, o.Machine) }
	}
	cases := []struct {
		name      string
		n         int
		transpose bool
		plan      bool // a compiled plan: exec options apply
		reroutes  bool // a flow plan: a down link is failed over
		run       func(Options) (*Result, error)
		want      fabric.Stats // fault-free, no deadline
	}{
		{"ConvertEncoding", 3, false, true, true, func(o Options) (*Result, error) {
			return Transpose(plan.ConvertEncoding, matrix.Scatter(m, rows), field.OneDimConsecutiveRows(4, 4, 3, field.Gray), o)
		}, fabric.Stats{Time: 10256, Startups: 8, Sends: 8, Bytes: 1024, MaxLinkBytes: 128, MaxLinkBusy: 5128}},
		{"ConvertConsecutiveToCyclic", 4, true, true, false, func(o Options) (*Result, error) {
			d := matrix.Scatter(m, field.TwoDimConsecutive(4, 4, 2, 2, field.Binary))
			return Transpose(plan.Convert1, d, field.TwoDimCyclic(4, 4, 2, 2, field.Binary), o)
		}, fabric.Stats{Time: 43784.312, Startups: 96, Sends: 128, Bytes: 4096, CopyBytes: 1024, CopyTime: 54404.99199999998, MaxLinkBytes: 96, MaxLinkBusy: 10096}},
		{"TransposeExchangePseudocode", 3, true, false, false, oracle(TransposeExchangePseudocode),
			fabric.Stats{Time: 15192, Startups: 24, Sends: 24, Bytes: 1536, MaxLinkBytes: 64, MaxLinkBusy: 5064}},
		{"TransposeSBnTPseudocode", 3, true, false, false, oracle(TransposeSBnTPseudocode),
			fabric.Stats{Time: 35192, Startups: 56, Sends: 72, Bytes: 1536, MaxLinkBytes: 64, MaxLinkBusy: 15064}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := m
			if c.transpose {
				want = m.Transposed()
			}
			var used firstSend
			res, err := c.run(Options{Machine: mach, Tracer: &used})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats != c.want {
				t.Errorf("zero-option Stats moved:\ngot  %+v\nwant %+v", res.Stats, c.want)
			}
			if err := res.Dist.Verify(want); err != nil {
				t.Error(err)
			}
			if !c.plan {
				return
			}
			if !used.seen {
				t.Fatal("fault-free run sent nothing; no used link to fail")
			}

			_, err = c.run(Options{Machine: mach, Deadline: 1})
			var de *fabric.DeadlineError
			var ee *ExecError
			if !errors.As(err, &de) || !errors.Is(err, fabric.ErrDeadline) || !errors.As(err, &ee) {
				t.Fatalf("Deadline 1: err = %v, want *ExecError wrapping *fabric.DeadlineError", err)
			}
			if de.Deadline != 1 {
				t.Errorf("Deadline 1: error reports deadline %v", de.Deadline)
			}
			if res, err = Recover(ee.Checkpoint, ExecOptions{}); err != nil {
				t.Fatalf("Recover after the deadline abort: %v", err)
			} else if err := res.Dist.Verify(want); err != nil {
				t.Errorf("Recover after the deadline abort: %v", err)
			}

			down := fault.MustCompile(fault.SingleLinkDown(used.link.From, used.link.Dim), c.n)
			res, err = c.run(Options{Machine: mach, Faults: down})
			if c.reroutes {
				if err != nil {
					t.Fatalf("link %v down: %v, want a rerouted run", used.link, err)
				}
				if res.Stats.Rerouted == 0 {
					t.Errorf("link %v down: run succeeded without rerouting", used.link)
				}
				if err := res.Dist.Verify(want); err != nil {
					t.Errorf("link %v down: %v", used.link, err)
				}
				return
			}
			var ie *InfeasibleError
			if !errors.As(err, &ie) || !errors.Is(err, fabric.ErrLinkDown) {
				t.Errorf("link %v down, exchange plan: err = %v, want *InfeasibleError wrapping ErrLinkDown", used.link, err)
			}
		})
	}
}
