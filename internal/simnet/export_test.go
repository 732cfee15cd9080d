package simnet

import "boolcube/internal/fabric"

// RunOracle is Run under the linear-scan oracle scheduler (oracle_test.go),
// for the external differential suite. One shard, forced into serial mode
// so that nothing executes eagerly.
func (e *Engine) RunOracle(prog func(fabric.Node)) error {
	run, err := e.start(prog, 1)
	if err != nil {
		return err
	}
	run.serial = true
	err = run.close(run.runLinear())
	e.foldCopyTime()
	return err
}

// AutoShardNodes is the node count at which the automatic policy shards.
const AutoShardNodes = autoShardNodes

// Workers reports how many workers the node's run has right now: its shard
// count, which drops to one when a sharded run stops at a RecvAny.
func (nd *Node) Workers() int { return len(nd.sh.run.shards) }

// HeldWorkers reports the workers every running engine holds between them.
func HeldWorkers() int { return int(heldWorkers.Load()) }
