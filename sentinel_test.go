package boolcube_test

import (
	"errors"
	"testing"

	"boolcube"
)

// A caller outside the module names a faulted run's failure through the root
// package's sentinels alone: an exchange run over a link that fails for good
// after the run has started (so the pre-flight check passes it) fails with an
// error that is boolcube.ErrLinkDown.
func TestExchangeLinkDownMidRunIsRootSentinel(t *testing.T) {
	p, q, n := 4, 4, 4
	m := boolcube.NewIotaMatrix(p, q)
	before := boolcube.TwoDimConsecutive(p, q, n/2, n/2, boolcube.Binary)
	after := boolcube.TwoDimConsecutive(q, p, n/2, n/2, boolcube.Binary)
	ct, err := boolcube.Compile(before, after, boolcube.Options{Algorithm: boolcube.Exchange, Machine: boolcube.IPSCNPort()})
	if err != nil {
		t.Fatal(err)
	}
	for from := uint64(0); from < 1<<n; from++ {
		for d := 0; d < n; d++ {
			spec := boolcube.FaultSpec{Rules: []boolcube.FaultRule{{Kind: boolcube.FaultLinkDown, Link: boolcube.FaultLink{From: from, Dim: d}, Start: 1}}}
			fp, err := boolcube.CompileFaults(spec, n)
			if err != nil {
				t.Fatal(err)
			}
			_, err = ct.ExecuteWith(boolcube.Scatter(m, before), boolcube.ExecOptions{Faults: fp})
			if err == nil {
				continue // the run no longer uses this link after t = 1
			}
			if !errors.Is(err, boolcube.ErrLinkDown) {
				t.Fatalf("link %d/%d down: %v is not boolcube.ErrLinkDown", from, d, err)
			}
			if errors.Is(err, boolcube.ErrRetryBudget) || errors.Is(err, boolcube.ErrInfeasible) {
				t.Fatalf("link %d/%d down: %v claims an exhausted retry budget or a pre-flight refusal", from, d, err)
			}
			return
		}
	}
	t.Fatal("no link failing mid-run hit the exchange")
}
