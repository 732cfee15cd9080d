package core

import (
	"errors"
	"testing"

	"boolcube/internal/fabric"
	"boolcube/internal/fault"
	"boolcube/internal/field"
	"boolcube/internal/machine"
	"boolcube/internal/matrix"
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

// The four entry points that run outside any compiled plan build their
// engine through newEngine like a plan execution does, so they honour
// Options.Deadline and Options.Faults with the same typed errors — and with
// zero options cost exactly what they always did (Stats pinned below).
func TestAdHocEntryPointsHonourExecOptions(t *testing.T) {
	mach := machine.IPSC()
	m := matrix.NewIota(4, 4)
	rows := field.OneDimConsecutiveRows(4, 4, 3, field.Binary)
	cases := []struct {
		name string
		n    int
		run  func(Options) (*Result, error)
		want fabric.Stats // fault-free, no deadline
	}{
		{"ConvertEncoding", 3, func(o Options) (*Result, error) {
			return ConvertEncoding(matrix.Scatter(m, rows), field.OneDimConsecutiveRows(4, 4, 3, field.Gray), o)
		}, fabric.Stats{Time: 10256, Startups: 8, Sends: 8, Bytes: 1024, MaxLinkBytes: 128, MaxLinkBusy: 5128}},
		{"ConvertConsecutiveToCyclic", 4, func(o Options) (*Result, error) {
			return ConvertConsecutiveToCyclic(matrix.Scatter(m, field.TwoDimConsecutive(4, 4, 2, 2, field.Binary)), Convert1, o)
		}, fabric.Stats{Time: 43784.312, Startups: 96, Sends: 128, Bytes: 4096, CopyBytes: 1024, CopyTime: 54404.99199999998, MaxLinkBytes: 96, MaxLinkBusy: 10096}},
		{"TransposeExchangePseudocode", 3, func(o Options) (*Result, error) {
			return TransposeExchangePseudocode(matrix.Scatter(m, rows), rows, o)
		}, fabric.Stats{Time: 15192, Startups: 24, Sends: 24, Bytes: 1536, MaxLinkBytes: 64, MaxLinkBusy: 5064}},
		{"TransposeSBnTPseudocode", 3, func(o Options) (*Result, error) {
			return TransposeSBnTPseudocode(matrix.Scatter(m, rows), rows, o)
		}, fabric.Stats{Time: 35192, Startups: 56, Sends: 72, Bytes: 1536, MaxLinkBytes: 64, MaxLinkBusy: 15064}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var used firstSend
			res, err := c.run(Options{Machine: mach, Tracer: &used})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats != c.want {
				t.Errorf("zero-option Stats moved:\ngot  %+v\nwant %+v", res.Stats, c.want)
			}
			if !used.seen {
				t.Fatal("fault-free run sent nothing; no used link to fail")
			}

			_, err = c.run(Options{Machine: mach, Deadline: 1})
			var de *fabric.DeadlineError
			if !errors.As(err, &de) || !errors.Is(err, fabric.ErrDeadline) {
				t.Errorf("Deadline 1: err = %v, want *fabric.DeadlineError", err)
			} else if de.Deadline != 1 {
				t.Errorf("Deadline 1: error reports deadline %v", de.Deadline)
			}

			down := fault.MustCompile(fault.SingleLinkDown(used.link.From, used.link.Dim), c.n)
			_, err = c.run(Options{Machine: mach, Faults: down})
			var fe *fabric.FaultError
			if !errors.As(err, &fe) || !errors.Is(err, fabric.ErrLinkDown) {
				t.Errorf("link %v down: err = %v, want *fabric.FaultError wrapping ErrLinkDown", used.link, err)
			} else if fe.From != used.link.From || fe.Dim != used.link.Dim {
				t.Errorf("link %v down: error names link %d dim %d", used.link, fe.From, fe.Dim)
			}
		})
	}
}
