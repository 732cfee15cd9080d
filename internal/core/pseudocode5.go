package core

import (
	"fmt"

	"boolcube/internal/bits"
	"boolcube/internal/fabric"
	"boolcube/internal/field"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
)

// This file implements the two Section 5 programs verbatim, as executable
// validations of the published pseudocode (the analytical implementations
// live in transpose.go):
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
func TransposeExchangePseudocode(d *matrix.Dist, after field.Layout, opt Options) (*Result, error) {
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

	e, err := newEngine(n, opt.Machine, opt.ExecConfig(), fmt.Sprintf("exchange-pseudocode %s -> %s", before, after))
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
		// Paper-faithful transcription: the blocked array lives entirely
		// inside the node program, so no delivery progress is observable
		// from the host and there is nothing resumable to checkpoint; a
		// typed fault or deadline abort is propagated as-is.
		return nil, err //cubevet:ignore ckptsafe -- pseudocode transcription keeps all state in-closure; nothing to checkpoint
	}
	return &Result{Dist: finishDist(after, loc), Stats: e.Stats()}, nil
}

// TransposeSBnTPseudocode runs the published SBnT program: every processor
// forms one message per destination, tagged (source-addr, relative-addr),
// appends it to the output buffer of the base of the relative address, and
// then loops n times, each round sending the pending bundle on every port
// and forwarding received messages by complementing the nearest 1-bit to
// the left (cyclically) of the arrival port.
func TransposeSBnTPseudocode(d *matrix.Dist, after field.Layout, opt Options) (*Result, error) {
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

	e, err := newEngine(n, opt.Machine, opt.ExecConfig(), fmt.Sprintf("sbnt-pseudocode %s -> %s", before, after))
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
		// Same as the exchange transcription above: all message buffers are
		// closure-local, so a checkpoint could not record what was delivered.
		return nil, err //cubevet:ignore ckptsafe -- pseudocode transcription keeps all state in-closure; nothing to checkpoint
	}
	return &Result{Dist: finishDist(after, loc), Stats: e.Stats()}, nil
}
