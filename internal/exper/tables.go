package exper

import (
	"fmt"

	"boolcube/internal/core"
	"boolcube/internal/cost"
	"boolcube/internal/field"
	"boolcube/internal/machine"
	"boolcube/internal/plan"
)

func init() {
	register("table1", table1)
	register("table2", table2)
	register("table3", table3)
}

// table1 reproduces Table 1: the processor address of a matrix element for
// consecutive and cyclic assignments under binary and Gray encodings, shown
// for a concrete 16x16 matrix element on a 2-cube-per-direction.
func table1() (*Table, error) {
	p, q, n := 4, 4, 2
	u, v := uint64(0b1011), uint64(0b0110)
	t := &Table{
		ID:      "table1",
		Title:   fmt.Sprintf("processor address of element (u,v)=(%04b,%04b), 16x16 matrix, n=%d", u, v, n),
		Columns: []string{"encoding/partitioning", "consecutive", "cyclic"},
	}
	row := func(name string, cons, cyc field.Layout) {
		t.AddRow(name,
			fmt.Sprintf("%0*b", n, cons.ProcOf(u, v)),
			fmt.Sprintf("%0*b", n, cyc.ProcOf(u, v)))
	}
	row("binary, row",
		field.OneDimConsecutiveRows(p, q, n, field.Binary),
		field.OneDimCyclicRows(p, q, n, field.Binary))
	row("binary, column",
		field.OneDimConsecutiveCols(p, q, n, field.Binary),
		field.OneDimCyclicCols(p, q, n, field.Binary))
	row("gray, row",
		field.OneDimConsecutiveRows(p, q, n, field.Gray),
		field.OneDimCyclicRows(p, q, n, field.Gray))
	row("gray, column",
		field.OneDimConsecutiveCols(p, q, n, field.Gray),
		field.OneDimCyclicCols(p, q, n, field.Gray))
	return t, nil
}

// table2 reproduces Table 2: combined (contiguous and split) assignments.
func table2() (*Table, error) {
	p, q, n, s := 5, 5, 3, 1
	u, v := uint64(0b10110), uint64(0b01101)
	t := &Table{
		ID:      "table2",
		Title:   fmt.Sprintf("combined encodings of element (u,v)=(%05b,%05b), n=%d, s=%d", u, v, n, s),
		Columns: []string{"encoding/partitioning", "contiguous (offset 1)", "non-contiguous (split s=1)"},
	}
	row := func(name string, rows bool, enc field.Encoding) {
		cont := field.CombinedContiguous(p, q, n, 1, rows, enc)
		split := field.CombinedSplit(p, q, n, s, rows, enc)
		t.AddRow(name,
			fmt.Sprintf("%0*b", n, cont.ProcOf(u, v)),
			fmt.Sprintf("%0*b", n, split.ProcOf(u, v)))
	}
	row("binary, row", true, field.Binary)
	row("binary, column", false, field.Binary)
	row("gray, row", true, field.Gray)
	row("gray, column", false, field.Gray)
	return t, nil
}

// table3 reproduces Table 3: estimated vs simulated time for some-to-all
// personalized communication with k splitting and l exchange steps, for
// one-port and n-port communication on the iPSC cost structure.
func table3() (*Table, error) {
	t := &Table{
		ID:      "table3",
		Title:   "some-to-all personalized communication: k splitting + l all-to-all steps (iPSC costs)",
		Columns: []string{"k", "l", "model 1-port (µs)", "sim 1-port (µs)", "model n-port (µs)", "sim n-port (µs)"},
		Notes: []string{
			"total data M = 256 KB spread over the 2^l sources",
			"simulated with splitting performed first (Theorem 1 optimal order)",
			"the simulation runs the dimension-sequential exchange schedule, which cannot",
			"exploit multiple ports, so the n-port simulation matches the one-port one;",
			"the n-port model column is the bound achievable with tree-pipelined routing",
		},
	}
	// M = 256 KB: a 2^8 x 2^8 matrix of four-byte elements.
	const logElems, totalBytes = 16, 4 << 16
	cases := []struct{ k, l int }{{1, 5}, {2, 4}, {3, 3}, {4, 2}, {5, 1}, {0, 6}, {6, 0}}
	for _, c := range cases {
		one, err := simulateSomeToAll(logElems, c.k, c.l, machine.IPSC())
		if err != nil {
			return nil, err
		}
		np, err := simulateSomeToAll(logElems, c.k, c.l, machine.IPSCNPort())
		if err != nil {
			return nil, err
		}
		t.AddRow(c.k, c.l,
			cost.SomeToAllOnePort(totalBytes, c.k, c.l, machine.IPSC()), one,
			cost.SomeToAllNPort(totalBytes, c.k, c.l, machine.IPSCNPort()), np)
	}
	return t, nil
}

// simulateSomeToAll runs k splitting and l exchange steps as the registry's
// exchange row: transposing a matrix of 2^logElems elements from 1-D
// consecutive rows over 2^l nodes into 1-D consecutive rows over 2^(k+l)
// sends one block from each source to every node of the cube. The row
// scans the k split dimensions first, Theorem 1's order for some-to-all.
func simulateSomeToAll(logElems, k, l int, mach machine.Params) (float64, error) {
	p, q := shapeFor(logElems)
	before := field.OneDimConsecutiveRows(p, q, l, field.Binary)
	after := field.OneDimConsecutiveRows(q, p, k+l, field.Binary)
	st, err := verified(plan.Exchange, before, after, core.Options{Machine: mach})
	return st.Time, err
}
