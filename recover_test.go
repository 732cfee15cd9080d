package boolcube

import (
	"errors"
	"reflect"
	"testing"
)

// recoverLoop drives Recover to completion, bounding the attempts.
func recoverLoop(t *testing.T, xe *ExecError, xo ExecOptions) (*Result, *Checkpoint) {
	t.Helper()
	first := xe.Checkpoint
	for attempt := 0; attempt < 4; attempt++ {
		res, err := Recover(xe.Checkpoint, xo)
		if err == nil {
			return res, first
		}
		if !errors.As(err, &xe) {
			t.Fatalf("Recover attempt %d: %v (not a resumable *ExecError)", attempt, err)
		}
	}
	t.Fatalf("recovery did not converge in 4 attempts")
	return nil, nil
}

// crashSetup compiles a p×q transpose on an n-cube and returns the compiled
// plan, the scattered input, the unfaulted baseline and the expected result.
func crashSetup(t *testing.T, alg Algorithm, p, q, n int) (*CompiledTranspose, func() *Dist, *Result, *Matrix) {
	t.Helper()
	m := NewIotaMatrix(p, q)
	want := m.Transposed()
	before := TwoDimConsecutive(p, q, n/2, n/2, Binary)
	after := TwoDimConsecutive(q, p, n/2, n/2, Binary)
	ct, err := Compile(before, after, Options{Algorithm: alg, Machine: IPSCNPort()})
	if err != nil {
		t.Fatal(err)
	}
	src := func() *Dist { return Scatter(m, before) }
	base, err := ct.Execute(src())
	if err != nil {
		t.Fatal(err)
	}
	return ct, src, base, want
}

// The tentpole scenario: a node crash-stops mid-transpose, the run fails
// with a typed *NodeDownError carrying a checkpoint, and Recover relabels
// the cube onto the survivors and finishes bit-identically to the unfaulted
// run — at less traffic than a restart.
func TestRecoverAfterMidRunNodeCrash(t *testing.T) {
	ct, src, base, want := crashSetup(t, MPT, 5, 5, 6)

	// Scan crash instants for a kill that lands after real progress;
	// deterministic, so the failing instant is stable.
	var xe *ExecError
	for _, frac := range []float64{0.3, 0.45, 0.6, 0.75} {
		fp, ferr := CompileFaults(NodeCrash(11, frac*base.Stats.Time), 6)
		if ferr != nil {
			t.Fatal(ferr)
		}
		_, err := ct.ExecuteWith(src(), ExecOptions{Faults: fp})
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrNodeDown) {
			t.Fatalf("crashed run failed with %v, want a node-down failure", err)
		}
		var cand *ExecError
		if !errors.As(err, &cand) {
			t.Fatalf("node-down failure %v carries no checkpoint", err)
		}
		var nde *NodeDownError
		if !errors.As(err, &nde) || nde.Node != 11 {
			t.Fatalf("failure %v does not name the crashed node 11", err)
		}
		if xe == nil || cand.Checkpoint.DeliveredElems() > xe.Checkpoint.DeliveredElems() {
			xe = cand
		}
		if xe.Checkpoint.DeliveredElems() > 0 {
			break
		}
	}
	if xe == nil {
		t.Fatal("no crash instant interrupted the run")
	}

	res, first := recoverLoop(t, xe, ExecOptions{})
	if verr := res.Dist.Verify(want); verr != nil {
		t.Fatalf("recovered transpose wrong: %v", verr)
	}
	if !reflect.DeepEqual(res.Dist.Local, base.Dist.Local) {
		t.Fatal("recovered distribution differs bit-for-bit from the unfaulted run")
	}
	if !reflect.DeepEqual(xe.Checkpoint.Dead, []uint64{11}) {
		t.Fatalf("checkpoint Dead = %v, want [11]", xe.Checkpoint.Dead)
	}
	recoveryBytes := res.Stats.Bytes - first.Stats.Bytes
	if recoveryBytes <= 0 {
		t.Fatalf("recovery moved no traffic (total %d, sunk %d)", res.Stats.Bytes, first.Stats.Bytes)
	}
	if recoveryBytes >= base.Stats.Bytes {
		t.Errorf("recovery traffic %d not cheaper than full restart %d", recoveryBytes, base.Stats.Bytes)
	}
}

// Two sequential kills: the second node dies during the recovery run, and a
// second Recover folds it in and still finishes element-exact.
func TestRecoverSurvivesSecondKillDuringRecovery(t *testing.T) {
	ct, src, base, want := crashSetup(t, DPT, 5, 5, 6)

	// Scan second victims and kill instants for a kill that fires strictly
	// after the first failure was detected AND lands on a node still busy in
	// the recovery run (a node whose own transfers finish early outlives its
	// kill — exactly the semantics the simulated backend promises). The scan
	// is deterministic, so the combination found is stable.
	type combo struct {
		victim uint64
		frac2  float64
	}
	var combos []combo
	for _, victim := range []uint64{54, 22, 45, 27} {
		for _, frac2 := range []float64{1.05, 1.2, 1.5, 1.8} {
			combos = append(combos, combo{victim, frac2})
		}
	}
	for _, c := range combos {
		spec := FaultSpec{Rules: []FaultRule{
			{Kind: FaultCrash, Node: 7, Start: 0.35 * base.Stats.Time},
			{Kind: FaultCrash, Node: c.victim, Start: c.frac2 * base.Stats.Time},
		}}
		fp, err := CompileFaults(spec, 6)
		if err != nil {
			t.Fatal(err)
		}
		_, rerr := ct.ExecuteWith(src(), ExecOptions{Faults: fp})
		var xe *ExecError
		if !errors.As(rerr, &xe) {
			t.Fatalf("first kill did not interrupt the run: %v", rerr)
		}
		if ct2, ok := fp.CrashAt(c.victim); !ok || ct2 <= xe.Checkpoint.At {
			continue // both kills landed in the first run; not sequential
		}

		var res *Result
		attempts := 0
		for ; attempts < 4; attempts++ {
			var err error
			res, err = Recover(xe.Checkpoint, ExecOptions{})
			if err == nil {
				break
			}
			if !errors.As(err, &xe) {
				t.Fatalf("Recover attempt %d: %v (not a resumable *ExecError)", attempts, err)
			}
		}
		if res == nil {
			t.Fatal("recovery did not converge in 4 attempts")
		}
		if attempts < 1 {
			continue // recovery finished before the second kill; try another
		}
		wantDead := []uint64{7, c.victim}
		if c.victim < 7 {
			wantDead = []uint64{c.victim, 7}
		}
		if !reflect.DeepEqual(xe.Checkpoint.Dead, wantDead) {
			t.Fatalf("accumulated dead set = %v, want %v", xe.Checkpoint.Dead, wantDead)
		}
		if verr := res.Dist.Verify(want); verr != nil {
			t.Fatalf("recovered transpose wrong: %v", verr)
		}
		if !reflect.DeepEqual(res.Dist.Local, base.Dist.Local) {
			t.Fatal("recovered distribution differs bit-for-bit from the unfaulted run")
		}
		return
	}
	t.Fatal("no second-kill instant interrupted a recovery attempt")
}

// Recovery must be deterministic on the simulated backend: the same crash
// scenario recovered twice yields bit-identical results and statistics.
func TestRecoverDeterministicOnSimnet(t *testing.T) {
	run := func() (*Result, []uint64) {
		ct, src, base, _ := crashSetup(t, SPT, 4, 4, 6)
		fp, err := CompileFaults(NodeCrash(5, 0.4*base.Stats.Time), 6)
		if err != nil {
			t.Fatal(err)
		}
		_, rerr := ct.ExecuteWith(src(), ExecOptions{Faults: fp})
		var xe *ExecError
		if !errors.As(rerr, &xe) {
			t.Fatalf("kill did not interrupt the run: %v", rerr)
		}
		res, _ := recoverLoop(t, xe, ExecOptions{})
		return res, xe.Checkpoint.Dead
	}
	a, deadA := run()
	b, deadB := run()
	if !reflect.DeepEqual(a.Dist.Local, b.Dist.Local) {
		t.Fatal("recovered distributions differ across reruns")
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Fatalf("recovered stats differ across reruns:\n%+v\n%+v", a.Stats, b.Stats)
	}
	if !reflect.DeepEqual(deadA, deadB) {
		t.Fatalf("dead sets differ across reruns: %v vs %v", deadA, deadB)
	}
}

// A crash before any traffic moves recovers from a zero-progress
// checkpoint: everything reruns on the survivors.
func TestRecoverFromImmediateCrash(t *testing.T) {
	ct, src, _, want := crashSetup(t, MPT, 4, 4, 4)
	fp, err := CompileFaults(NodeCrash(3, 0), 4)
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := ct.ExecuteWith(src(), ExecOptions{Faults: fp})
	var xe *ExecError
	if !errors.As(rerr, &xe) {
		t.Fatalf("immediate kill did not interrupt the run: %v", rerr)
	}
	res, _ := recoverLoop(t, xe, ExecOptions{})
	if verr := res.Dist.Verify(want); verr != nil {
		t.Fatalf("recovered transpose wrong: %v", verr)
	}
}

// Recover without any dead node must behave exactly like Resume, so every
// *ExecError can be routed through it.
func TestRecoverDelegatesToResumeWithoutDeadNodes(t *testing.T) {
	ct, src, base, want := crashSetup(t, MPT, 5, 5, 6)
	var xe *ExecError
	for seed := int64(1); seed <= 32; seed++ {
		fp, ferr := CompileFaults(FaultSpec{Seed: seed, Rules: []FaultRule{
			{Kind: FaultRandomLinks, Count: 2, Start: 0.4 * base.Stats.Time},
		}}, 6)
		if ferr != nil {
			t.Fatal(ferr)
		}
		_, err := ct.ExecuteWith(src(), ExecOptions{Faults: fp})
		if errors.As(err, &xe) {
			break
		}
	}
	if xe == nil {
		t.Fatal("no seed in 1..32 made a link kill bite")
	}
	res, _ := recoverLoop(t, xe, ExecOptions{})
	if verr := res.Dist.Verify(want); verr != nil {
		t.Fatalf("recovered transpose wrong: %v", verr)
	}
	if xe.Checkpoint.Dead != nil {
		t.Fatalf("link-fault checkpoint grew a dead set: %v", xe.Checkpoint.Dead)
	}
}

// The same for a crash-stop: a node dying during the conversion's second
// phase is relabeled away and the composed move-set reruns on the survivors.
func TestConversionRecoverAfterPhase2Crash(t *testing.T) {
	ct, src, base, want, lo, hi := conversionPhase2(t)
	fp, err := CompileFaults(NodeCrash(5, lo+(hi-lo)/4), 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ct.ExecuteWith(src(), ExecOptions{Faults: fp})
	var xe *ExecError
	if !errors.As(err, &xe) || !errors.Is(err, ErrNodeDown) {
		t.Fatalf("crashed run failed with %v, want a node-down *ExecError", err)
	}
	if at := xe.Checkpoint.At; at < lo {
		t.Fatalf("run stopped at t=%v, before phase 2 began at %v", at, lo)
	}
	res, _ := recoverLoop(t, xe, ExecOptions{})
	if verr := res.Dist.Verify(want); verr != nil {
		t.Fatalf("recovered conversion wrong: %v", verr)
	}
	if !reflect.DeepEqual(res.Dist.Local, base.Dist.Local) {
		t.Fatal("recovered distribution differs bit-for-bit from the unfaulted run")
	}
	if !reflect.DeepEqual(xe.Checkpoint.Dead, []uint64{5}) {
		t.Fatalf("checkpoint Dead = %v, want [5]", xe.Checkpoint.Dead)
	}
}
