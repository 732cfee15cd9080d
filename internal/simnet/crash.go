// Crash-stop node kills on the simulated backend.
//
// A fault model that also implements fabric.CrashModel schedules whole-node
// deaths: from its crash time t on, a node neither executes operations nor
// acknowledges receptions. The engine realizes this deterministically at
// operation granularity — operations are atomic at their action time, so a
// crash takes effect at the first operation boundary whose action time is at
// or past t. An operation that *started* before t completes (its
// transmission was already on the wire); the node's next operation never
// runs. The check sits at the scheduler's pop (a crash schedule puts the
// run in serial mode, where nothing executes eagerly), so the set of
// executed operations is a pure function of action times versus crash
// times — independent of the shard count asked for.
//
// Detection is the deterministic analog of a live backend's heartbeat
// suspicion: the run fails with a typed *fabric.NodeDownError once the
// system can make no further progress — either every surviving node
// completed, or the survivors are blocked on receives only dead nodes could
// satisfy (the quiesce that, without crashes, would be a deadlock). A node
// blocked forever with a pending crash is crashed at quiesce: in a
// discrete-event world the crash is the only remaining timeline event, so
// virtual time jumps to it. Stats.Time is raised to the latest fired crash
// time on this path, so a resumed run's fault view (fault.Plan.After) sees
// every fired crash as already dead.
package simnet

import (
	"math"
	"sort"

	"boolcube/internal/fabric"
)

// setCrashes snapshots the crash schedule of the installed fault model, if
// it has one. Called from SetFaults.
func (e *Engine) setCrashes(f fabric.FaultModel) {
	e.crashModel = nil
	e.crashT = nil
	if cm, ok := f.(fabric.CrashModel); ok && len(cm.CrashedNodes()) > 0 {
		e.crashModel = cm
		e.crashT = make([]float64, e.nodesCount)
		for i := range e.crashT {
			e.crashT[i] = math.Inf(1)
		}
		for _, nd := range cm.CrashedNodes() {
			if int(nd) < e.nodesCount {
				if t, ok := cm.CrashAt(nd); ok {
					e.crashT[nd] = t
				}
			}
		}
	}
}

// crashDue reports whether executing an operation at action time t on node
// id would violate its crash schedule — the node died at or before t.
func (e *Engine) crashDue(id int, t float64) bool {
	return e.crashT != nil && t >= e.crashT[id]
}

// crashNode marks one node dead. The node's program stays parked in its
// yield until drainAll stops it; crashed is deliberately distinct from done
// so the drain still unwinds it. Only the node's flag is touched — a shard
// worker owns its nodes, so this is race-free; the engine-level fired count
// is folded at the epoch barrier.
func (e *Engine) crashNode(nd *Node) {
	nd.crashed = true
}

// crashQuiesce fires the crash of every still-live node with a finite crash
// time — at quiesce their deaths are the only remaining timeline events —
// and reports whether any crash has fired during the run. The caller treats
// true as detection (NodeDownError) and false as a plain deadlock.
func (e *Engine) crashQuiesce() bool {
	if e.crashT != nil {
		for _, nd := range e.nodes {
			if !nd.done && !nd.crashed && !math.IsInf(e.crashT[nd.id], 1) {
				e.crashNode(nd)
				e.crashedCount++
			}
		}
	}
	return e.crashedCount > 0
}

// nodeDownError builds the typed detection error from the fired crashes and
// finalizes Stats.Time at the detection instant (never earlier than the
// latest fired crash). Every field is a pure function of the program and
// the schedule, so identical runs — at any shard count — fail identically.
// The caller folds the shard accumulators first (shardRun.close), so
// Stats.Time covers every executed operation when it is read here.
func (e *Engine) nodeDownError() error {
	var nodes []uint64
	maxCrash := 0.0
	for _, nd := range e.nodes { // ascending node id
		if nd.crashed {
			nodes = append(nodes, nd.id)
			if ct := e.crashT[nd.id]; ct > maxCrash {
				maxCrash = ct
			}
		}
	}
	sort.Slice(nodes, func(a, b int) bool { return nodes[a] < nodes[b] })
	if e.stats.Time < maxCrash {
		e.stats.Time = maxCrash
	}
	first := nodes[0]
	return &fabric.NodeDownError{
		Node:       first,
		Nodes:      nodes,
		At:         e.crashT[first],
		LastHeard:  e.nodes[first].clock,
		DetectedAt: e.stats.Time,
	}
}
