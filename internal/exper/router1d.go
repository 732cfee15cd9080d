package exper

import (
	"fmt"

	"boolcube/internal/comm"
	"boolcube/internal/core"
	"boolcube/internal/field"
	"boolcube/internal/machine"
	"boolcube/internal/plan"
)

func init() {
	register("sec81router", sec81Router)
}

// sec81Router reproduces the Section 8.1 claim: realizing the
// one-dimensional transpose's all-to-all personalized communication by
// calling the machine router 2(N-1) times per node is always inferior to
// the optimum buffering exchange algorithm, by a factor of 5 up to two
// orders of magnitude depending on matrix and cube size.
func sec81Router() (*Table, error) {
	t := &Table{
		ID:      "sec81router",
		Title:   "1-D all-to-all transpose: iPSC router direct sends vs optimum buffering",
		Columns: []string{"cube dims n", "matrix KB", "router (ms)", "buffered exchange (ms)", "router/buffered"},
		Notes: []string{
			"paper: router always inferior, by 5x to two orders of magnitude [14]",
		},
	}
	mach := machine.IPSC()
	for _, n := range []int{3, 4, 5, 6, 7} {
		for _, logBytes := range []int{12, 16, 18} {
			logElems := logBytes - 2
			p, q := shapeFor(logElems)
			if n > p || n > q {
				continue
			}
			before := field.OneDimConsecutiveRows(p, q, n, field.Binary)
			after := field.OneDimConsecutiveRows(q, p, n, field.Binary)
			router, err := verified(plan.RoutingLogic, before, after, core.Options{Machine: mach})
			if err != nil {
				return nil, err
			}
			buffered, err := verified(plan.Exchange, before, after,
				core.Options{Machine: mach, Strategy: comm.Buffered})
			if err != nil {
				return nil, err
			}
			t.AddRow(n, 1<<uint(logBytes-10), router.Time/1000, buffered.Time/1000,
				fmt.Sprintf("%.1f", router.Time/buffered.Time))
		}
	}
	return t, nil
}
