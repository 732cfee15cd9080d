package boolcube_test

import (
	"errors"
	"testing"

	"boolcube"
)

// A caller outside the module names a faulted run's failure through the root
// package's sentinels alone: with failover off, an SPT run over a permanently
// down link it uses fails with an error that is boolcube.ErrLinkDown.
func TestFailoverNoneLinkDownIsRootSentinel(t *testing.T) {
	p, q, n := 4, 4, 4
	m := boolcube.NewIotaMatrix(p, q)
	before := boolcube.TwoDimConsecutive(p, q, n/2, n/2, boolcube.Binary)
	after := boolcube.TwoDimConsecutive(q, p, n/2, n/2, boolcube.Binary)
	ct, err := boolcube.Compile(before, after, boolcube.Options{Algorithm: boolcube.SPT, Machine: boolcube.IPSCNPort()})
	if err != nil {
		t.Fatal(err)
	}
	for from := uint64(0); from < 1<<n; from++ {
		for d := 0; d < n; d++ {
			fp, err := boolcube.CompileFaults(boolcube.SingleLinkDown(from, d), n)
			if err != nil {
				t.Fatal(err)
			}
			_, err = ct.ExecuteWith(boolcube.Scatter(m, before), boolcube.ExecOptions{Faults: fp, Failover: boolcube.FailoverNone})
			if err == nil {
				continue // the SPT routes do not use this link
			}
			if !errors.Is(err, boolcube.ErrLinkDown) {
				t.Fatalf("link %d/%d down: %v is not boolcube.ErrLinkDown", from, d, err)
			}
			if errors.Is(err, boolcube.ErrRetryBudget) {
				t.Fatalf("link %d/%d down: %v claims an exhausted retry budget", from, d, err)
			}
			return
		}
	}
	t.Fatal("no single link failure hit an SPT route")
}
