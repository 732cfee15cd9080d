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

// The two Section 5 programs transcribed verbatim: test oracles validating
// the published pseudocode against the compiled plan.Exchange and plan.SBnT
// transposes (they are not product code, so they build a bare engine and take
// no run options):
//
//   - "Transposition by the Standard Exchange Algorithm": scan dimensions
//     from high to low, exchange the upper or lower half of the blocked
//     local array with the neighbor, then shuffle the blocked array;
//   - "Transposition by a SBnT Algorithm": form one message per
//     destination, routed by the base of the relative address, forwarded n
//     rounds on all ports concurrently with the nearest-1-bit-to-the-left
//     rule.
//
// Blocks carry their (source, destination) identity, and final placement
// panics on any block that arrives at the wrong processor, so these
// programs validate the published routing itself.

// onedimPair checks the layouts form the Section 5 setting: consecutive
// block rows before, consecutive block columns (of the transposed matrix)
// after, same processor count.
func onedimPair(before, after field.Layout) (n int, err error) {
	if len(before.Fields) != 1 || len(after.Fields) != 1 {
		return 0, fmt.Errorf("core: Section 5 pseudocode needs one-dimensional layouts")
	}
	if before.NBits() != after.NBits() {
		return 0, fmt.Errorf("core: Section 5 pseudocode needs equal processor counts")
	}
	return before.NBits(), nil
}

// TransposeExchangePseudocode runs the published standard exchange program:
// processor i holds the i-th block row, partitioned by columns into N
// blocks; at step j it exchanges blocks N/2..N-1 (if bit j of its address
// is 0) or 0..N/2-1 (otherwise) with its dimension-j neighbor, then
// shuffles its blocked array (a one step left cyclic shift of block
// addresses, Definition 3).
func TransposeExchangePseudocode(d *matrix.Dist, after field.Layout, mach machine.Params) (*Result, error) {
	before := d.Layout
	n, err := onedimPair(before, after)
	if err != nil {
		return nil, err
	}
	pl, err := plan.NewMoves(before, after, true)
	if err != nil {
		return nil, err
	}
	N := 1 << uint(n)

	e, err := fabric.New("", n, mach)
	if err != nil {
		return nil, err
	}
	loc := newLocal(after, e.Nodes())
	err = e.Run(func(nd fabric.Node) {
		id := nd.ID()
		// Blocked local array: block j holds my elements destined to
		// processor j (the j-th column group of my block row).
		type block struct {
			src, dst uint64
			data     []float64
		}
		blocks := make([]block, N)
		for j := 0; j < N; j++ {
			blocks[j] = block{src: id, dst: uint64(j), data: pl.Gather(id, d.Local[id], uint64(j))}
		}

		for j := n - 1; j >= 0; j-- {
			lo, hi := 0, N/2
			if bits.Bit(id, j) == 0 {
				lo, hi = N/2, N
			}
			var m fabric.Msg
			for b := lo; b < hi; b++ {
				m.Parts = append(m.Parts, fabric.Part{Src: blocks[b].src, Dst: blocks[b].dst, N: len(blocks[b].data)})
				m.Data = append(m.Data, blocks[b].data...)
			}
			in := nd.Exchange(j, m)
			off := 0
			for i, p := range in.Parts {
				blocks[lo+i] = block{src: p.Src, dst: p.Dst, data: in.Data[off : off+p.N]}
				off += p.N
			}
			// Shuffle my blocked array (Definition 3): the block at
			// address w moves to address sh(w), so the next step's
			// exchange bit is again the top block-address bit.
			shuffled := make([]block, N)
			for w := 0; w < N; w++ {
				shuffled[bits.RotL(uint64(w), 1, n)] = blocks[w]
			}
			blocks = shuffled
		}

		out := loc[id]
		for _, b := range blocks {
			if b.dst != id {
				panic(fmt.Sprintf("core: exchange pseudocode delivered block for %d to %d", b.dst, id))
			}
			pl.Scatter(id, out, b.src, b.data)
		}
	})
	if err != nil {
		return nil, err
	}
	return &Result{Dist: finishDist(after, loc), Stats: e.Stats()}, nil
}

// TransposeSBnTPseudocode runs the published SBnT program: every processor
// forms one message per destination, tagged (source-addr, relative-addr),
// appends it to the output buffer of the base of the relative address, and
// then loops n times, each round sending the pending bundle on every port
// and forwarding received messages by complementing the nearest 1-bit to
// the left (cyclically) of the arrival port.
func TransposeSBnTPseudocode(d *matrix.Dist, after field.Layout, mach machine.Params) (*Result, error) {
	before := d.Layout
	n, err := onedimPair(before, after)
	if err != nil {
		return nil, err
	}
	pl, err := plan.NewMoves(before, after, true)
	if err != nil {
		return nil, err
	}
	N := uint64(1) << uint(n)

	e, err := fabric.New("", n, mach)
	if err != nil {
		return nil, err
	}
	loc := newLocal(after, e.Nodes())
	err = e.Run(func(nd fabric.Node) {
		id := nd.ID()
		// output-buf[b]: pending messages per port. Each message is one
		// Part (source, final destination) with relative-addr in Rel.
		outBuf := make([][]fabric.Msg, n)
		for j := uint64(0); j < N; j++ {
			if j == id {
				continue
			}
			rel := id ^ j
			b := bits.Base(rel, n)
			outBuf[b] = append(outBuf[b], fabric.Msg{
				Src: id, Dst: j,
				Rel:  rel ^ 1<<uint(b),
				Data: pl.Gather(id, d.Local[id], j),
			})
		}

		out := loc[id]
		// Own block stays local.
		pl.Scatter(id, out, id, pl.Gather(id, d.Local[id], id))
		place := func(m fabric.Msg) {
			if m.Rel != 0 {
				panic("core: sbnt pseudocode placed an in-flight message")
			}
			if m.Dst != id {
				panic(fmt.Sprintf("core: sbnt pseudocode delivered message for %d to %d", m.Dst, id))
			}
			pl.Scatter(id, out, m.Src, m.Data)
		}

		// Loop n times: send the pending bundle on all n output ports,
		// receive on all n input ports, deliver or forward.
		for round := 0; round < n; round++ {
			for p := 0; p < n; p++ {
				bundle := fabric.Msg{Tag: len(outBuf[p])}
				for _, m := range outBuf[p] {
					bundle.Parts = append(bundle.Parts, fabric.Part{Src: m.Src, Dst: m.Dst, N: len(m.Data)})
					bundle.Path = append(bundle.Path, int(m.Rel)) // carry rel addrs
					bundle.Data = append(bundle.Data, m.Data...)
				}
				nd.Send(p, bundle)
				outBuf[p] = nil
			}
			for p := 0; p < n; p++ {
				in := nd.Recv(p)
				off := 0
				for i, part := range in.Parts {
					m := fabric.Msg{Src: part.Src, Dst: part.Dst,
						Rel: uint64(in.Path[i]), Data: in.Data[off : off+part.N]}
					off += part.N
					if m.Rel == 0 {
						place(m)
						continue
					}
					// Forward: complement the nearest 1-bit to the left of
					// the arrival port p, cyclically.
					next := -1
					for k := 1; k <= n; k++ {
						cand := (p + k) % n
						if bits.Bit(m.Rel, cand) == 1 {
							next = cand
							break
						}
					}
					if next < 0 {
						panic("core: sbnt pseudocode found no next bit")
					}
					m.Rel ^= 1 << uint(next)
					outBuf[next] = append(outBuf[next], m)
				}
			}
		}
		for p := 0; p < n; p++ {
			if len(outBuf[p]) != 0 {
				panic(fmt.Sprintf("core: sbnt pseudocode left %d undelivered messages after n rounds", len(outBuf[p])))
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return &Result{Dist: finishDist(after, loc), Stats: e.Stats()}, nil
}

// The Section 5 standard-exchange program with its local shuffles delivers
// the transpose for square and rectangular matrices on several cube sizes.
func TestTransposeExchangePseudocode(t *testing.T) {
	cases := []struct{ p, q, n int }{
		{2, 2, 2}, {3, 3, 3}, {4, 4, 4}, {5, 3, 3}, {3, 5, 3}, {4, 4, 1},
	}
	for _, c := range cases {
		before := field.OneDimConsecutiveRows(c.p, c.q, c.n, field.Binary)
		after := field.OneDimConsecutiveRows(c.q, c.p, c.n, field.Binary)
		m := matrix.NewIota(c.p, c.q)
		d := matrix.Scatter(m, before)
		res, err := TransposeExchangePseudocode(d, after, machine.IPSC())
		if err != nil {
			t.Fatalf("p=%d q=%d n=%d: %v", c.p, c.q, c.n, err)
		}
		if verr := res.Dist.Verify(m.Transposed()); verr != nil {
			t.Fatalf("p=%d q=%d n=%d: %v", c.p, c.q, c.n, verr)
		}
	}
}

// The literal program must cost the same as the analytical single-message
// exchange transpose, plus nothing: same start-up count, same volume.
func TestExchangePseudocodeCostMatches(t *testing.T) {
	p, q, n := 5, 5, 4
	before := field.OneDimConsecutiveRows(p, q, n, field.Binary)
	after := field.OneDimConsecutiveRows(q, p, n, field.Binary)
	m := matrix.NewIota(p, q)

	d1 := matrix.Scatter(m, before)
	lit, err := TransposeExchangePseudocode(d1, after, machine.Ideal(machine.OnePort))
	if err != nil {
		t.Fatal(err)
	}
	d2 := matrix.Scatter(m, before)
	ana, err := Transpose(plan.Exchange, d2, after, opts(machine.Ideal(machine.OnePort)))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := lit.Stats.Logical(), ana.Stats.Logical(); got != want {
		t.Errorf("logical stats: literal %+v vs analytical %+v", got, want)
	}
	if lit.Stats.Time != ana.Stats.Time {
		t.Errorf("time: literal %v vs analytical %v", lit.Stats.Time, ana.Stats.Time)
	}
}

// The Section 5 SBnT program (per-port buffers, base routing, nearest-1-bit
// forwarding, n synchronized rounds) delivers the transpose.
func TestTransposeSBnTPseudocode(t *testing.T) {
	cases := []struct{ p, q, n int }{
		{2, 2, 2}, {3, 3, 3}, {4, 4, 4}, {5, 3, 3}, {5, 5, 5},
	}
	for _, c := range cases {
		before := field.OneDimConsecutiveRows(c.p, c.q, c.n, field.Binary)
		after := field.OneDimConsecutiveRows(c.q, c.p, c.n, field.Binary)
		m := matrix.NewIota(c.p, c.q)
		d := matrix.Scatter(m, before)
		res, err := TransposeSBnTPseudocode(d, after, machine.IPSCNPort())
		if err != nil {
			t.Fatalf("p=%d q=%d n=%d: %v", c.p, c.q, c.n, err)
		}
		if verr := res.Dist.Verify(m.Transposed()); verr != nil {
			t.Fatalf("p=%d q=%d n=%d: %v", c.p, c.q, c.n, verr)
		}
	}
}

// With n-port communication the SBnT program must beat the one-port
// exchange program on transfer-dominated problems (Section 5's point).
func TestSBnTPseudocodeNPortAdvantage(t *testing.T) {
	p, q, n := 6, 6, 4
	mach := machine.Ideal(machine.NPort)
	mach.Tau = 0.001
	before := field.OneDimConsecutiveRows(p, q, n, field.Binary)
	after := field.OneDimConsecutiveRows(q, p, n, field.Binary)
	m := matrix.NewIota(p, q)

	d1 := matrix.Scatter(m, before)
	sbnt, err := TransposeSBnTPseudocode(d1, after, mach)
	if err != nil {
		t.Fatal(err)
	}
	machOne := machine.Ideal(machine.OnePort)
	machOne.Tau = 0.001
	d2 := matrix.Scatter(m, before)
	exch, err := TransposeExchangePseudocode(d2, after, machOne)
	if err != nil {
		t.Fatal(err)
	}
	if sbnt.Stats.Time >= exch.Stats.Time {
		t.Errorf("SBnT n-port (%v) not faster than one-port exchange (%v)",
			sbnt.Stats.Time, exch.Stats.Time)
	}
}

func TestPseudocode5RejectsBadLayouts(t *testing.T) {
	before := field.TwoDimConsecutive(4, 4, 2, 2, field.Binary)
	after := field.TwoDimConsecutive(4, 4, 2, 2, field.Binary)
	d := matrix.Scatter(matrix.NewIota(4, 4), before)
	if _, err := TransposeExchangePseudocode(d, after, machine.IPSC()); err == nil {
		t.Error("2-D layouts accepted by the 1-D exchange pseudocode")
	}
	if _, err := TransposeSBnTPseudocode(d, after, machine.IPSC()); err == nil {
		t.Error("2-D layouts accepted by the SBnT pseudocode")
	}
}
