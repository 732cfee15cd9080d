// Crash-stop node kills on the live backend: real teardown, heartbeat
// detection.
//
// When the installed fault model also implements fabric.CrashModel, Run
// arms one kill timer per scheduled node. At its crash time (wall-clock µs
// since Run) the node is marked dead and its goroutine is actually torn
// down: every blocking point — receives, semaphore acquisition, sleeps, and
// the per-operation abort checks — observes the flag and unwinds with a
// crash sentinel the goroutine wrapper recognizes as a death rather than a
// program failure. A node whose program already returned is past harm: its
// sends all happened, so the kill is recorded as never fired (mirroring the
// simulated backend, where a node that reaches its final operation before
// its crash time survives).
//
// Detection is by heartbeat: each at-risk node gets a beater goroutine
// stamping a last-heard time every SuspicionTimeout/8 — alive even while the
// node's program is blocked, so only death (or the end of the run) silences
// it. A detector samples the stamps every quarter suspicion timeout and
// aborts the run with a typed *fabric.NodeDownError once a node has been
// silent past the timeout, naming every suspected node, its last-heard time
// and the detection instant. Detection latency is therefore bounded by the
// suspicion timeout plus one detector tick. If every survivor finishes
// before the detector fires (nobody needed the dead node again), Run still
// fails with the same typed error: the dead node's own program never
// completed, so the job is not done.
package livenet

import (
	"fmt"
	"sort"
	"time"

	"boolcube/internal/fabric"
)

// errCrashed unwinds a crash-stopped node goroutine; the wrapper recognizes
// it as a death, not a program failure.
var errCrashed = fmt.Errorf("livenet: node crash-stopped")

// startCrashes arms the kill timers, heartbeats and the failure detector
// for the next Run. The returned stop function cancels any timer that has
// not fired; the done channel stops the beaters and the detector.
func (e *Engine) startCrashes(done chan struct{}) (stop func()) {
	if e.crashModel == nil {
		return func() {}
	}
	var scheduled []uint64
	for _, id := range e.crashModel.CrashedNodes() {
		if int(id) < e.nodesCount {
			scheduled = append(scheduled, id)
		}
	}
	if len(scheduled) == 0 {
		return func() {}
	}
	now := e.now()
	timers := make([]*time.Timer, 0, len(scheduled))
	for _, id := range scheduled {
		nd := e.nodes[id]
		nd.lastBeat.Store(int64(now))
		ct, ok := e.crashModel.CrashAt(id)
		if !ok {
			continue
		}
		delay := time.Duration((ct - now) * float64(time.Microsecond))
		if delay < 0 {
			delay = 0
		}
		timers = append(timers, time.AfterFunc(delay, func() { e.crashLive(nd) }))
		go e.heartbeat(nd, done)
	}
	go e.detect(scheduled, done)
	return func() {
		for _, t := range timers {
			t.Stop()
		}
	}
}

// crashLive kills one node now: the flag and closed channel wake every
// blocking point, which unwind the goroutine with the crash sentinel. A
// node whose program already returned survives — its work is complete.
func (e *Engine) crashLive(nd *Node) {
	if nd.finished.Load() {
		return
	}
	nd.mu.Lock()
	if !nd.crashed.Load() {
		nd.crashed.Store(true)
		close(nd.crashCh)
		nd.cond.Broadcast()
	}
	nd.mu.Unlock()
}

// heartbeat stamps the node's last-heard time every Params.heartbeat until
// the node dies, the engine aborts, or the run ends. It is a separate
// goroutine from the node's program on purpose: a blocked program still
// heartbeats — only death silences a node.
func (e *Engine) heartbeat(nd *Node, done chan struct{}) {
	tick := time.NewTicker(e.sup.heartbeat())
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case <-nd.crashCh:
			return
		case <-e.abortCh:
			return
		case <-tick.C:
			nd.lastBeat.Store(int64(e.now()))
		}
	}
}

// detect is the failure detector: every quarter suspicion timeout it checks
// each at-risk node's last heartbeat and aborts the run with a typed
// *fabric.NodeDownError once any has been silent past the timeout.
func (e *Engine) detect(scheduled []uint64, done chan struct{}) {
	tick := time.NewTicker(e.sup.SuspicionTimeout / 4)
	defer tick.Stop()
	timeout := float64(e.sup.SuspicionTimeout) / float64(time.Microsecond)
	for {
		select {
		case <-done:
			return
		case <-e.abortCh:
			return
		case <-tick.C:
			now := e.now()
			var dead []uint64
			for _, id := range scheduled {
				nd := e.nodes[id]
				if nd.finished.Load() {
					continue
				}
				if now-float64(nd.lastBeat.Load()) > timeout {
					dead = append(dead, id)
				}
			}
			if len(dead) > 0 {
				e.abort(e.nodeDownError(dead, now))
				return
			}
		}
	}
}

// nodeDownError builds the typed detection error for the given dead nodes
// (any order) at detection time detectedAt.
func (e *Engine) nodeDownError(dead []uint64, detectedAt float64) error {
	sort.Slice(dead, func(a, b int) bool { return dead[a] < dead[b] })
	first := dead[0]
	at := float64(e.nodes[first].lastBeat.Load())
	if e.crashModel != nil {
		if ct, ok := e.crashModel.CrashAt(first); ok {
			at = ct
		}
	}
	return &fabric.NodeDownError{
		Node:       first,
		Nodes:      dead,
		At:         at,
		LastHeard:  float64(e.nodes[first].lastBeat.Load()),
		DetectedAt: detectedAt,
	}
}

// firedCrashError reports the kills that actually fired, for runs that end
// without any other failure: nil when every scheduled node survived (died
// after finishing, or never died), a *fabric.NodeDownError otherwise.
func (e *Engine) firedCrashError() error {
	var dead []uint64
	for _, nd := range e.nodes { // ascending node id
		if nd.crashed.Load() && !nd.finished.Load() {
			dead = append(dead, nd.id)
		}
	}
	if len(dead) == 0 {
		return nil
	}
	return e.nodeDownError(dead, e.elapsed) // called after wg.Wait: every node goroutine has already unwound
}
