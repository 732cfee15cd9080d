// Package ckptsafe exercises the ckptsafe pass: post-run failures in a
// (*Result, error) executor must surface through &ExecError{Checkpoint: ...}
// with the engine Stats folded in (or propagate a call that already did),
// and *Engine methods must drainAll() between constructing a ...Error
// failure and returning it.
package ckptsafe

import "errors"

// Stats mimics fabric.Stats.
type Stats struct{ Time float64 }

// Result mimics core.Result.
type Result struct{ Stats Stats }

// Checkpoint mimics core.Checkpoint.
type Checkpoint struct {
	Delivered []int
	Stats     Stats
	At        float64
}

// ExecError mimics core.ExecError.
type ExecError struct {
	Checkpoint *Checkpoint
	Err        error
}

// Error implements error.
func (e *ExecError) Error() string { return e.Err.Error() }

// Node mimics simnet.Node.
type Node struct{}

// Engine mimics simnet.Engine.
type Engine struct{ stats Stats }

// Run mimics (*simnet.Engine).Run.
func (e *Engine) Run(prog func(*Node)) error { return nil }

// Stats returns the accumulated run statistics.
func (e *Engine) Stats() Stats { return e.stats }

// drainAll mimics unwinding the node goroutines after a failure.
func (e *Engine) drainAll() {}

// deadlockError mimics the engine failure constructor.
func (e *Engine) deadlockError() error { return errors.New("deadlock") }

// mergeStats mimics fabric.Stats.Merge.
func mergeStats(a, b Stats) Stats { return Stats{Time: a.Time + b.Time} }

// execInner is a checkpointing helper; its (*Result, error) failures are
// already wrapped.
func execInner(e *Engine) (*Result, error) {
	err := e.Run(func(nd *Node) {})
	if err != nil {
		st := e.Stats()
		return nil, &ExecError{Checkpoint: &Checkpoint{Stats: st, At: st.Time}, Err: err}
	}
	return &Result{Stats: e.Stats()}, nil
}

// BadBareReturn surfaces a post-run failure without a checkpoint.
func BadBareReturn(e *Engine) (*Result, error) {
	err := e.Run(func(nd *Node) {})
	if err != nil {
		return nil, err // simulated work lost
	}
	return &Result{Stats: e.Stats()}, nil
}

// BadCkptNoStats checkpoints without folding the engine Stats.
func BadCkptNoStats(e *Engine) (*Result, error) {
	err := e.Run(func(nd *Node) {})
	if err != nil {
		return nil, &ExecError{Checkpoint: &Checkpoint{Delivered: []int{1}}, Err: err}
	}
	return &Result{Stats: e.Stats()}, nil
}

// BadIdentCkptNoFold returns a prebuilt checkpoint without folding Stats.
func BadIdentCkptNoFold(e *Engine, cp *Checkpoint) (*Result, error) {
	err := e.Run(func(nd *Node) {})
	if err != nil {
		return nil, &ExecError{Checkpoint: cp, Err: err}
	}
	return &Result{Stats: e.Stats()}, nil
}

// GoodCompositeCkpt folds Stats and At into the checkpoint literal.
func GoodCompositeCkpt(e *Engine) (*Result, error) {
	err := e.Run(func(nd *Node) {})
	if err != nil {
		st := e.Stats()
		return nil, &ExecError{Checkpoint: &Checkpoint{Stats: st, At: st.Time}, Err: err}
	}
	return &Result{Stats: e.Stats()}, nil
}

// GoodIdentFold folds Stats into a prebuilt checkpoint before returning.
func GoodIdentFold(e *Engine, cp *Checkpoint) (*Result, error) {
	err := e.Run(func(nd *Node) {})
	if err != nil {
		cp.Stats = mergeStats(cp.Stats, e.Stats())
		return nil, &ExecError{Checkpoint: cp, Err: err}
	}
	return &Result{Stats: e.Stats()}, nil
}

// GoodPropagation forwards a helper's already-checkpointed result.
func GoodPropagation(e *Engine) (*Result, error) {
	if err := e.Run(func(nd *Node) {}); err != nil {
		return execInner(e)
	}
	return execInner(e)
}

// GoodBlessedIdent propagates a failure a checkpointing helper produced.
func GoodBlessedIdent(e *Engine) (*Result, error) {
	if err := e.Run(func(nd *Node) {}); err != nil {
		res, err2 := execInner(e)
		if err2 != nil {
			return res, err2
		}
	}
	return &Result{Stats: e.Stats()}, nil
}

// GoodPreRun may return bare errors before any traffic has moved.
func GoodPreRun(e *Engine, n int) (*Result, error) {
	if n < 0 {
		return nil, errors.New("bad size")
	}
	if err := e.Run(func(nd *Node) {}); err != nil {
		st := e.Stats()
		return nil, &ExecError{Checkpoint: &Checkpoint{Stats: st, At: st.Time}, Err: err}
	}
	return &Result{Stats: e.Stats()}, nil
}

// BadDirectReturn surfaces an engine failure without draining.
func (e *Engine) BadDirectReturn() error {
	return e.deadlockError() // node goroutines leak
}

// BadNoDrain constructs the failure but forgets the drain.
func (e *Engine) BadNoDrain() error {
	err := e.deadlockError()
	return err // node goroutines leak
}

// GoodDrain drains between constructing and surfacing the failure.
func (e *Engine) GoodDrain() error {
	err := e.deadlockError()
	e.drainAll()
	return err
}

// Suppressed is the annotated intentional case: a benchmark yardstick that
// deliberately keeps no checkpoint.
func Suppressed(e *Engine) (*Result, error) {
	err := e.Run(func(nd *Node) {})
	if err != nil {
		return nil, err //cubevet:ignore ckptsafe -- fixture: benchmark yardstick, resumability not needed
	}
	return &Result{Stats: e.Stats()}, nil
}

// Recover mimics core.Recover: a (*Result, error) checkpoint consumer that
// folds the engine Stats into its checkpoint argument before any failure
// return.
func Recover(cp *Checkpoint, e *Engine) (*Result, error) {
	err := e.Run(func(nd *Node) {})
	if err != nil {
		cp.Stats = mergeStats(cp.Stats, e.Stats())
		return nil, &ExecError{Checkpoint: cp, Err: err}
	}
	return &Result{Stats: e.Stats()}, nil
}

// GoodRecoverConsumesCkpt hands the checkpoint to Recover — which folds the
// engine Stats itself — so re-returning the same checkpoint afterwards
// needs no explicit fold in this body; the recovery path is not a finding.
func GoodRecoverConsumesCkpt(e *Engine, cp *Checkpoint) (*Result, error) {
	if err := e.Run(func(nd *Node) {}); err != nil {
		res, rerr := Recover(cp, e)
		if rerr != nil {
			return res, &ExecError{Checkpoint: cp, Err: rerr}
		}
		return res, nil
	}
	return &Result{Stats: e.Stats()}, nil
}

// GoodRecoverBlessedErr propagates the consumer's own failure unwrapped:
// Recover is a (*Result, error) call, so its error is already checkpointed.
func GoodRecoverBlessedErr(e *Engine, cp *Checkpoint) (*Result, error) {
	if err := e.Run(func(nd *Node) {}); err != nil {
		res, rerr := Recover(cp, e)
		return res, rerr
	}
	return &Result{Stats: e.Stats()}, nil
}

// RunTransfers mimics core.RunTransfers: the kernel through which the flow
// executors reach the engine. It is a run point in its own right.
func RunTransfers(e *Engine, cps []*Checkpoint) (Stats, error) {
	err := e.Run(func(nd *Node) {})
	return e.Stats(), err
}

// BadKernelDropsCkpt calls the kernel and drops the checkpoint it filled.
func BadKernelDropsCkpt(e *Engine, cp *Checkpoint) (*Result, error) {
	st, err := RunTransfers(e, []*Checkpoint{cp})
	if err != nil {
		return nil, err // the kernel's salvage is lost
	}
	return &Result{Stats: st}, nil
}

// GoodKernelFold folds the kernel's Stats into the checkpoint it hands out.
func GoodKernelFold(e *Engine, cp *Checkpoint) (*Result, error) {
	st, err := RunTransfers(e, []*Checkpoint{cp})
	if err != nil {
		cp.Stats, cp.At = st, st.Time
		return nil, &ExecError{Checkpoint: cp, Err: err}
	}
	return &Result{Stats: st}, nil
}
