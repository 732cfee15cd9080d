package simnet

import "math"

// runLinear is the differential oracle: the seed's scheduler, an O(N) scan
// over all nodes that executes the one pending operation with the smallest
// (action time, node id) per step. It shares no scheduling decision with
// the production engine — no ready heap, no epochs, no horizon, no eager
// execution — only the operation semantics (performOp) and, through one
// record-mode shard committed after every step, the accounting.
func (run *shardRun) runLinear() error {
	e := run.e
	sh := &run.shards[0]
	for live := e.nodesCount; live > 0; {
		// Surface program failures (panics inside node programs).
		for _, nd := range e.nodes {
			if err := e.checkFailure(nd); err != nil {
				return err
			}
		}
		best, bestT := -1, math.Inf(1)
		for i, nd := range e.nodes {
			if nd.done || nd.crashed {
				continue
			}
			if t, ok := e.actionTime(nd); ok && t < bestT {
				best, bestT = i, t
			}
		}
		if best == -1 {
			if e.crashQuiesce() {
				return run.abort(e.nodeDownError())
			}
			return run.abort(e.deadlockError())
		}
		nd := e.nodes[best]
		if nd.pending.kind != opDone && bestT > e.deadline {
			return run.abort(e.deadlineError(nd, bestT))
		}
		if e.crashDue(best, bestT) {
			e.crashNode(nd)
			e.crashedCount++
			live--
			continue
		}
		sh.beginOp(nd, bestT)
		done := e.performOp(nd)
		sh.endOp()
		run.commit(math.Inf(1))
		sh.dirty, sh.skipped = sh.dirty[:0], sh.skipped[:0]
		if done {
			nd.done = true
			live--
			continue
		}
		nd.next() // runs the resumed node until it parks again
	}
	return run.finish()
}
