package simnet

import "boolcube/internal/fabric"

// RunOracle is Run under the linear-scan oracle scheduler (oracle_test.go),
// for the external differential suite. One shard, forced into record mode so
// that nothing executes eagerly and every operation commits as it runs.
func (e *Engine) RunOracle(prog func(fabric.Node)) error {
	run, err := e.start(prog, 1)
	if err != nil {
		return err
	}
	run.record = true
	err = run.runLinear()
	e.foldCopyTime()
	return err
}
