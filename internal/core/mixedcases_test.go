package core

import (
	"fmt"
	"testing"

	"boolcube/internal/bits"
	"boolcube/internal/fabric"
	"boolcube/internal/field"
	"boolcube/internal/machine"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
)

// The Section 6.3 combined conversion-transpose transcribed as the paper
// prints it: n/2 iterations, each with two routing steps chosen by the case
// table over (even-block-row, even-parity-block-column, bit j+n/2, bit j) of
// the node's own address. Like the Section 5 programs in pseudocode5_test.go
// it is a test oracle, not product code: it builds a bare engine, takes no
// run options, and validates the published program, action for action,
// against the route-based plan.MixedCombined.

// ctrl selects how a direction of the program is gated across iterations:
// by the node's bit in the previous iteration's dimension ("even block"), or
// by the running parity of the processed bits ("even parity").
type ctrl int

const (
	ctrlBlock ctrl = iota
	ctrlParity
)

// pseudocodeControls returns the row and column control modes for the
// encoding combination (before -> after), or an error for unsupported
// pairs. The modes follow from the invariant that after the iterations
// above j, each direction's processed dimensions hold the TARGET encoding
// bits of the block currently at the node:
//
//   - crossRow(j) = rowBit_j XOR colBit_j XOR T_row, where T_row
//     reconstructs the next-higher bit of the source encoding in the row
//     direction: the node's previous row bit when the target row bits are
//     plain (block mode), or the parity of the processed row bits when the
//     target row bits are a Gray code (parity mode). Symmetrically for
//     crossCol(j) with the column direction.
//
// Base case (binary rows / Gray columns, unchanged): target row bits are
// the plain v (block), target column bits are G(u) (parity) — the paper's
// even-block-rows and even-parity-block-columns. Pure binary to transposed
// pure Gray: targets are G(v) and G(u), both parity. Pure Gray to
// transposed pure binary: targets are v and u, both block.
func pseudocodeControls(before, after field.Layout) (row, col ctrl, err error) {
	if len(before.Fields) != 2 || len(after.Fields) != 2 {
		return 0, 0, fmt.Errorf("core: pseudocode transpose needs two-field layouts")
	}
	br, bc := before.Fields[0].Enc, before.Fields[1].Enc
	ar, ac := after.Fields[0].Enc, after.Fields[1].Enc
	switch {
	case br == field.Binary && bc == field.Gray && ar == field.Binary && ac == field.Gray:
		return ctrlBlock, ctrlParity, nil
	case br == field.Binary && bc == field.Binary && ar == field.Gray && ac == field.Gray:
		return ctrlParity, ctrlParity, nil
	case br == field.Gray && bc == field.Gray && ar == field.Binary && ac == field.Binary:
		return ctrlBlock, ctrlBlock, nil
	}
	return 0, 0, fmt.Errorf("core: pseudocode transpose does not support %v/%v -> %v/%v", br, bc, ar, ac)
}

// mixedCaseAction classifies one iteration's behaviour for one node.
type mixedCaseAction int

const (
	// actForward: recv(tmp, j+n/2); send(tmp, j) — pass a transit block on.
	actForward mixedCaseAction = iota
	// actRowFirst: send(buf, j+n/2); recv(buf, j).
	actRowFirst
	// actColFirst: send(buf, j); recv(buf, j+n/2).
	actColFirst
)

// mixedCase returns the action of the paper's case table.
func mixedCase(evenRow, evenParityCol bool, bitRow, bitCol uint64) mixedCaseAction {
	key := [4]bool{evenRow, evenParityCol, bitRow == 1, bitCol == 1}
	switch key {
	case [4]bool{true, true, false, false}, [4]bool{true, true, true, true},
		[4]bool{false, false, false, true}, [4]bool{false, false, true, false}:
		return actForward
	case [4]bool{true, true, false, true}, [4]bool{true, true, true, false},
		[4]bool{false, false, false, false}, [4]bool{false, false, true, true},
		[4]bool{true, false, false, true}, [4]bool{true, false, true, false},
		[4]bool{false, true, false, false}, [4]bool{false, true, true, true}:
		return actRowFirst
	default:
		// (TF00), (TF11), (FT01), (FT10)
		return actColFirst
	}
}

// mixedProgramOracle runs the published per-node program on the before
// layout's cube, gated by the control modes of the encoding combination. The
// move-set must be a node permutation: every node hands its whole block to
// one destination.
func mixedProgramOracle(d *matrix.Dist, after field.Layout, mach machine.Params) (*Result, error) {
	before := d.Layout
	n := before.NBits()
	if n%2 != 0 {
		return nil, fmt.Errorf("core: pseudocode transpose needs even n")
	}
	rowCtrl, colCtrl, err := pseudocodeControls(before, after)
	if err != nil {
		return nil, err
	}
	mv, err := plan.NewMoves(before, after, true)
	if err != nil {
		return nil, err
	}
	for id := uint64(0); id < uint64(before.N()); id++ {
		if dsts := mv.Destinations(id); len(dsts) > 1 {
			return nil, fmt.Errorf("core: pseudocode transpose needs a node permutation; node %d sends to %d nodes", id, len(dsts))
		}
	}
	e, err := fabric.New("", n, mach)
	if err != nil {
		return nil, err
	}
	h := n / 2
	loc := newLocal(after, e.Nodes())
	err = e.Run(func(nd fabric.Node) {
		id := nd.ID()
		// buf travels with its source identity so the receiver can place it.
		buf := fabric.Msg{Src: id, Data: nil}
		if dsts := mv.Destinations(id); len(dsts) == 1 {
			buf.Data = mv.Gather(id, d.Local[id], dsts[0])
		} else {
			// Diagonal-fixed node: data stays, but the node still plays its
			// role in the case table (its block may circulate and return).
			buf.Data = mv.Gather(id, d.Local[id], id)
		}

		evenRow := true
		evenCol := true
		for j := h - 1; j >= 0; j-- {
			rowDim, colDim := j+h, j
			bitRow := bits.Bit(id, rowDim)
			bitCol := bits.Bit(id, colDim)
			switch mixedCase(evenRow, evenCol, bitRow, bitCol) {
			case actForward:
				tmp := nd.Recv(rowDim)
				nd.Send(colDim, tmp)
			case actRowFirst:
				nd.Send(rowDim, buf)
				buf = nd.Recv(colDim)
			case actColFirst:
				nd.Send(colDim, buf)
				buf = nd.Recv(rowDim)
			}
			switch rowCtrl {
			case ctrlBlock:
				evenRow = bitRow == 0
			case ctrlParity:
				if bitRow == 1 {
					evenRow = !evenRow
				}
			}
			switch colCtrl {
			case ctrlBlock:
				evenCol = bitCol == 0
			case ctrlParity:
				if bitCol == 1 {
					evenCol = !evenCol
				}
			}
		}
		mv.Scatter(id, loc[id], buf.Src, buf.Data)
	})
	if err != nil {
		return nil, err
	}
	return &Result{Dist: finishDist(after, loc), Stats: e.Stats()}, nil
}

// The literal Section 6.3 pseudocode must produce the same transposed
// placement as the route-based combined algorithm, on several cube sizes.
func TestTransposeMixedPseudocode(t *testing.T) {
	for _, n := range []int{2, 4, 6, 8} {
		h := n / 2
		p, q := h+1, h+1 // a couple of elements per block
		if n == 8 {
			p, q = h, h // one element per processor
		}
		before := field.TwoDimEncoded(p, q, h, h, field.Binary, field.Gray)
		after := field.TwoDimEncoded(q, p, h, h, field.Binary, field.Gray)
		m := matrix.NewIota(p, q)
		d := matrix.Scatter(m, before)
		res, err := mixedProgramOracle(d, after, machine.IPSC())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if verr := res.Dist.Verify(m.Transposed()); verr != nil {
			t.Fatalf("n=%d: %v", n, verr)
		}
	}
}

// The pseudocode and the route-based algorithm should cost about the same
// (both are n routing steps of full blocks).
func TestPseudocodeMatchesCombinedCost(t *testing.T) {
	h := 3
	p, q := 5, 5
	before := field.TwoDimEncoded(p, q, h, h, field.Binary, field.Gray)
	after := field.TwoDimEncoded(q, p, h, h, field.Binary, field.Gray)
	m := matrix.NewIota(p, q)

	d1 := matrix.Scatter(m, before)
	pseudo, err := mixedProgramOracle(d1, after, machine.IPSC())
	if err != nil {
		t.Fatal(err)
	}
	d2 := matrix.Scatter(m, before)
	combined, err := Transpose(plan.MixedCombined, d2, after, opts(machine.IPSC()))
	if err != nil {
		t.Fatal(err)
	}
	ratio := pseudo.Stats.Time / combined.Stats.Time
	if ratio < 0.5 || ratio > 2.5 {
		t.Errorf("pseudocode time %v vs combined %v (ratio %.2f)",
			pseudo.Stats.Time, combined.Stats.Time, ratio)
	}
}

func TestPseudocodeRejectsWrongEncodings(t *testing.T) {
	before := field.TwoDimConsecutive(4, 4, 2, 2, field.Binary)
	after := field.TwoDimConsecutive(4, 4, 2, 2, field.Binary)
	d := matrix.Scatter(matrix.NewIota(4, 4), before)
	if _, err := mixedProgramOracle(d, after, machine.IPSC()); err == nil {
		t.Error("pure binary layouts accepted")
	}
}

// The Section 6.3 closing variants: pure binary to transposed pure Gray
// (columns switch to even-block control) and pure Gray to transposed pure
// binary (rows switch to even-parity control).
func TestPseudocodeEncodingVariants(t *testing.T) {
	cases := []struct {
		name           string
		br, bc, ar, ac field.Encoding
	}{
		{"bin/bin -> gray/gray", field.Binary, field.Binary, field.Gray, field.Gray},
		{"gray/gray -> bin/bin", field.Gray, field.Gray, field.Binary, field.Binary},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, n := range []int{2, 4, 6, 8} {
				h := n / 2
				p, q := h+1, h+1
				before := field.TwoDimEncoded(p, q, h, h, c.br, c.bc)
				after := field.TwoDimEncoded(q, p, h, h, c.ar, c.ac)
				m := matrix.NewIota(p, q)
				d := matrix.Scatter(m, before)
				res, err := mixedProgramOracle(d, after, machine.IPSC())
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				if verr := res.Dist.Verify(m.Transposed()); verr != nil {
					t.Fatalf("n=%d: %v", n, verr)
				}
			}
		})
	}
}

// The paper's 16-entry case table must agree with the crossing derivation:
// crossRow = bitRow^bitCol^!evenRow, crossCol = bitRow^bitCol^!evenCol;
// no crossing -> forward role, column-only -> column first, else row first.
func TestCaseTableMatchesDerivation(t *testing.T) {
	for _, evenRow := range []bool{true, false} {
		for _, evenCol := range []bool{true, false} {
			for _, bitRow := range []uint64{0, 1} {
				for _, bitCol := range []uint64{0, 1} {
					a := bitRow ^ bitCol
					xr, xc := uint64(1), uint64(1)
					if evenRow {
						xr = 0
					}
					if evenCol {
						xc = 0
					}
					crossRow := a^xr == 1
					crossCol := a^xc == 1
					var want mixedCaseAction
					switch {
					case !crossRow && !crossCol:
						want = actForward
					case !crossRow && crossCol:
						want = actColFirst
					default:
						want = actRowFirst
					}
					got := mixedCase(evenRow, evenCol, bitRow, bitCol)
					if got != want {
						t.Errorf("key (%v,%v,%d,%d): table %v, derivation %v",
							evenRow, evenCol, bitRow, bitCol, got, want)
					}
				}
			}
		}
	}
}

// Virtual time is a fixed point of the published program: its zero-option
// Stats on the three encoding combinations it is published for, at n = 4
// and 6 on the iPSC, pinned bit for bit.
func TestMixedPseudocodeStatsPinned(t *testing.T) {
	pinned := map[int]fabric.Stats{
		4: {Time: 20128, Startups: 32, Sends: 32, Bytes: 1024, MaxLinkBytes: 32, MaxLinkBusy: 5032},
		6: {Time: 30192, Startups: 192, Sends: 192, Bytes: 6144, MaxLinkBytes: 32, MaxLinkBusy: 5032},
	}
	cases := []struct {
		name           string
		br, bc, ar, ac field.Encoding
	}{
		{"bin/gray unchanged", field.Binary, field.Gray, field.Binary, field.Gray},
		{"bin/bin -> gray/gray", field.Binary, field.Binary, field.Gray, field.Gray},
		{"gray/gray -> bin/bin", field.Gray, field.Gray, field.Binary, field.Binary},
	}
	for _, c := range cases {
		for _, n := range []int{4, 6} {
			h := n / 2
			p, q := h+2, h+1
			before := field.TwoDimEncoded(p, q, h, h, c.br, c.bc)
			after := field.TwoDimEncoded(q, p, h, h, c.ar, c.ac)
			m := matrix.NewIota(p, q)
			res, err := mixedProgramOracle(matrix.Scatter(m, before), after, machine.IPSC())
			verifyTranspose(t, fmt.Sprintf("%s n=%d", c.name, n), m, res, err)
			if res.Stats != pinned[n] {
				t.Errorf("%s n=%d: Stats moved:\ngot  %+v\nwant %+v", c.name, n, res.Stats, pinned[n])
			}
		}
	}
}

// BenchmarkMixedPseudocode exercises the verbatim Section 6.3 program.
func BenchmarkMixedPseudocode(b *testing.B) {
	p, q, n := 7, 7, 6
	before := field.TwoDimEncoded(p, q, n/2, n/2, field.Binary, field.Gray)
	after := field.TwoDimEncoded(q, p, n/2, n/2, field.Binary, field.Gray)
	m := matrix.NewIota(p, q)
	want := m.Transposed()
	var last fabric.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mixedProgramOracle(matrix.Scatter(m, before), after, machine.IPSC())
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Dist.Verify(want); err != nil {
			b.Fatal(err)
		}
		last = res.Stats
	}
	b.ReportMetric(last.Time/1000, "sim-ms/op")
	b.ReportMetric(float64(last.Startups), "startups/op")
}
