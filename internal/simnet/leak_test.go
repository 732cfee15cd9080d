package simnet_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"boolcube/internal/fabric"
	"boolcube/internal/fault"
	"boolcube/internal/machine"
	"boolcube/internal/simnet"
)

// TestNoCoroutineOutlivesRun: a node program is a coroutine, and a coroutine
// that never finishes is a leaked goroutine. On every way a run can end —
// success and each abort path, crashed and still-parked nodes included — the
// goroutine count returns to what it was before Run, and the spent engine
// still refuses a second Run.
func TestNoCoroutineOutlivesRun(t *testing.T) {
	const n = 6
	scan := func(nd fabric.Node) {
		for d := nd.Dims() - 1; d >= 0; d-- {
			nd.Recycle(nd.Exchange(d, fabric.Msg{Data: nd.AllocData(4)}))
		}
	}
	// after runs one exchange (so every node is mid-program, parked or
	// runnable, when node 5 ends the run) and then lets node 5 do then.
	after := func(then func(nd fabric.Node)) func(fabric.Node) {
		return func(nd fabric.Node) {
			nd.Exchange(0, fabric.Msg{Data: []float64{1}})
			if nd.ID() == 5 {
				then(nd)
			}
			scan(nd)
		}
	}
	errBoom := errors.New("boom")
	var faultErr *fabric.FaultError
	var deadlineErr *fabric.DeadlineError
	var downErr *fabric.NodeDownError
	cases := []struct {
		name  string
		setup func(e *simnet.Engine)
		prog  func(fabric.Node)
		check func(err error) bool
	}{
		{"success", nil, scan, func(err error) bool { return err == nil }},
		{"nd.Fail", nil, after(func(nd fabric.Node) { nd.Fail(errBoom) }),
			func(err error) bool { return errors.Is(err, errBoom) }},
		{"panic", nil, after(func(fabric.Node) { panic("boom") }),
			func(err error) bool { return err != nil && strings.Contains(err.Error(), "node 5 panicked: boom") }},
		{"fault abort", func(e *simnet.Engine) {
			e.SetFaults(fault.MustCompile(fault.SingleLinkDown(5, 3), n), fabric.RetryPolicy{})
		}, scan, func(err error) bool { return errors.As(err, &faultErr) }},
		{"deadline", func(e *simnet.Engine) { e.SetDeadline(3 * machine.IPSC().Tau) }, scan,
			func(err error) bool { return errors.As(err, &deadlineErr) }},
		{"deadlock", nil, func(nd fabric.Node) {
			nd.Exchange(0, fabric.Msg{Data: []float64{1}})
			if nd.ID() != 5 {
				nd.Recv(1) // nobody sends on dimension 1: every node ends up parked
			}
			scan(nd)
		}, func(err error) bool { return err != nil && strings.Contains(err.Error(), "deadlock") }},
		{"crash-stop with survivors", func(e *simnet.Engine) {
			e.SetFaults(fault.MustCompile(fault.NodeCrash(5, 2*machine.IPSC().Tau), n), fabric.RetryPolicy{})
		}, scan, func(err error) bool { return errors.As(err, &downErr) && len(downErr.Nodes) == 1 }},
	}
	for _, tc := range cases {
		for _, p := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/P%d", tc.name, p), func(t *testing.T) {
				e, err := simnet.New(n, machine.IPSC())
				if err != nil {
					t.Fatal(err)
				}
				e.SetShards(p)
				if tc.setup != nil {
					tc.setup(e)
				}
				before := runtime.NumGoroutine()
				if err := e.Run(tc.prog); !tc.check(err) {
					t.Fatalf("Run() = %v: not the outcome this case is about", err)
				}
				// The epoch workers of a sharded run exit just after the
				// barrier releases the coordinator: poll briefly.
				now := runtime.NumGoroutine()
				for wait := time.Millisecond; now > before && wait < time.Second; wait *= 2 {
					time.Sleep(wait)
					now = runtime.NumGoroutine()
				}
				if now > before {
					t.Errorf("%d goroutines before Run, %d after: node coroutines leaked", before, now)
				}
				if err := e.Run(tc.prog); err == nil || !strings.Contains(err.Error(), "already ran") {
					t.Errorf("second Run() = %v, want the already-ran error", err)
				}
			})
		}
	}
}
