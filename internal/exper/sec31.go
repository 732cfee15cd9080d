package exper

import (
	mathbits "math/bits"

	"boolcube/internal/comm"
	"boolcube/internal/core"
	"boolcube/internal/cost"
	"boolcube/internal/field"
	"boolcube/internal/machine"
	"boolcube/internal/plan"
	"boolcube/internal/simnet"
)

func init() {
	register("sec31scatter", sec31Scatter)
}

// sec31Scatter reproduces the Section 3.1 comparison for one-to-all
// personalized communication: single SBT (one-port optimal within 2x) vs n
// rotated SBTs vs the spanning balanced n-tree, with the paper's model
// times printed next to the simulation. The single SBT is the exchange row
// from one node to all: a matrix held whole by node 0 into one-dimensional
// consecutive rows of its transpose, whose scan splits the data over each
// dimension in turn.
func sec31Scatter() (*Table, error) {
	t := &Table{
		ID:    "sec31scatter",
		Title: "one-to-all personalized communication: SBT vs n rotated SBTs vs SBnT (n-port iPSC costs)",
		Columns: []string{"cube dims n", "total KB", "SBT sim (ms)", "rotated sim (ms)", "SBnT sim (ms)",
			"model 1-port (ms)", "model n-port (ms)", "lower bound (ms)"},
		Notes: []string{
			"the transfer term drops by ~n with n-port trees (Section 3.1);",
			"the SBT's bottleneck is its N/2-node root subtree on one link;",
			"the simulation forwards whole subtree bundles store-and-forward, so",
			"absolute times sit above the pipelined models while the ordering holds",
		},
	}
	mach := machine.IPSCNPort()
	for _, n := range []int{4, 6, 8} {
		for _, logBytes := range []int{14, 18} {
			M := 1 << uint(logBytes)
			elems := M / mach.ElemBytes / (1 << uint(n)) // per destination
			p, q := mathbits.Len(uint(elems))-1, n
			sbt, err := verified(plan.Exchange, field.OneDimConsecutiveRows(p, q, 0, field.Binary),
				field.OneDimConsecutiveRows(q, p, n, field.Binary), core.Options{Machine: mach})
			if err != nil {
				return nil, err
			}
			row := []interface{}{n, 1 << uint(logBytes-10), sbt.Time / 1000}
			for _, kind := range []comm.TreeKind{comm.KindRotatedSBTs, comm.KindSBnT} {
				e, err := simnet.New(n, mach)
				if err != nil {
					return nil, err
				}
				_, err = comm.OneToAll(e, kind, 0, func(dst uint64) []float64 {
					return make([]float64, elems)
				})
				if err != nil {
					return nil, err
				}
				row = append(row, e.Stats().Time/1000)
			}
			Mf := float64(M)
			row = append(row,
				cost.OneToAllSBT(Mf, n, mach)/1000,
				cost.OneToAllNPort(Mf, n, mach)/1000,
				cost.OneToAllLowerBound(Mf, n, mach)/1000)
			t.AddRow(row...)
		}
	}
	return t, nil
}
