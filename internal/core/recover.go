package core

import (
	"sort"

	"boolcube/internal/remap"
)

// Recover finishes a checkpointed execution after crash-stop node failures:
// it determines which nodes are dead (the checkpoint's accumulated Dead set
// unioned with every kill its fault model reports as fired by the failure
// instant), relabels the logical cube onto the survivors (internal/remap:
// spare substitution when idle live nodes exist, a Gray-code-preserving
// fold onto a dead-free subcube otherwise), recompiles the residual
// move-set against the new embedding and resumes. Payloads are gathered and
// scattered host-side by logical id, so the recovered Result's Dist is
// bit-identical to an unfaulted run's.
//
// With no dead node Recover is exactly Resume — it handles plain link
// faults, deadline hits and audit failures the same way, so callers can
// route every *ExecError through it. If the recovery run fails in turn
// (a second kill, say), the returned *ExecError carries a checkpoint whose
// Dead set has absorbed this attempt's casualties; calling Recover again
// folds the new failure in and continues on the remaining survivors.
func Recover(cp *Checkpoint, xo ExecOptions) (*Result, error) {
	dead := deadNodes(cp)
	if len(dead) == 0 {
		return Resume(cp, xo)
	}
	cp.Dead = dead

	// Only the endpoints of network residuals need live hosts: self pairs
	// and fold-coincident pairs replay host-side.
	seen := make(map[uint64]bool)
	var active []uint64
	for _, r := range cp.Remaining() {
		if r.Src == r.Dst {
			continue
		}
		for _, x := range []uint64{r.Src, r.Dst} {
			if !seen[x] {
				seen[x] = true
				active = append(active, x)
			}
		}
	}
	asg, err := remap.Plan(cp.Plan.NDims(), dead, active)
	if err != nil {
		return nil, err // pre-flight: no engine ran, the checkpoint is unchanged and still resumable
	}
	return resumeMapped(cp, xo, asg.Phys)
}

// deadNodes unions the checkpoint's accumulated dead set with the crashes
// its fault model reports as fired by the failure instant. The fired-crash
// query also covers kills the run outlived (a node that finished its
// program before its crash time is still dead for the recovery run) and
// runs that aborted on a link fault after a kill had already landed.
func deadNodes(cp *Checkpoint) []uint64 {
	set := make(map[uint64]bool, len(cp.Dead))
	for _, nd := range cp.Dead {
		set[nd] = true
	}
	if fp := cp.Opts.Faults; fp != nil {
		for _, nd := range fp.CrashedNodes() {
			if ct, ok := fp.CrashAt(nd); ok && ct <= cp.At {
				set[nd] = true
			}
		}
	}
	if len(set) == 0 {
		return nil
	}
	out := make([]uint64, 0, len(set))
	for nd := range set {
		out = append(out, nd)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
