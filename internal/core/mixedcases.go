package core

import (
	"boolcube/internal/bits"
	"boolcube/internal/fabric"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
)

// This file executes the Section 6.3 combined conversion-transpose as the
// paper's literal per-node pseudocode: n/2 iterations, each with two routing
// steps chosen by the case table over (even-block-row,
// even-parity-block-column, bit j+n/2, bit j) of the node's own address.
// The route-based MixedCombined plan is the analytical form; this one
// exists to validate the published program, action for action. The
// compile-time half — the control-mode table over encoding combinations —
// lives in internal/plan (pseudocodeControls); the plan arrives here with
// its move-set and row/column gating already resolved.

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

// execMixedProgram replays a KindMixedProgram plan: the published per-node
// program, gated by the plan's row/column control modes.
func execMixedProgram(p *plan.Plan, d *matrix.Dist, xo ExecOptions) (*Result, error) {
	e, err := newEngine(p, xo)
	if err != nil {
		return nil, err
	}
	mv := p.Moves()
	after := p.After()
	rowCtrl, colCtrl := p.Controls()
	h := p.NDims() / 2
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
			case plan.CtrlBlock:
				evenRow = bitRow == 0
			case plan.CtrlParity:
				if bitRow == 1 {
					evenRow = !evenRow
				}
			}
			switch colCtrl {
			case plan.CtrlBlock:
				evenCol = bitCol == 0
			case plan.CtrlParity:
				if bitCol == 1 {
					evenCol = !evenCol
				}
			}
		}
		mv.Scatter(id, loc[id], buf.Src, buf.Data)
	})
	if err != nil {
		// The per-node case program circulates whole blocks through
		// intermediate nodes without a canonical per-span protocol, so no
		// fine-grained progress survives a failure: the checkpoint is the
		// coarse one (fresh arrays, self pairs placed), and Resume replays
		// the rest of the move-set over fault-free routes.
		cp := NewCheckpoint(p, d)
		cp.Stats, cp.Opts = e.Stats(), xo
		cp.At = cp.Stats.Time
		return nil, &ExecError{Checkpoint: cp, Err: err}
	}
	return &Result{Dist: finishDist(after, loc), Stats: e.Stats()}, nil
}
