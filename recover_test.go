package boolcube

import (
	"errors"
	"reflect"
	"testing"

	"boolcube/internal/fabric"
	"boolcube/internal/router"
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

// The acceptance scenario of the recovery layer: an 8-cube MPT with two
// links killed at a mid-run epoch must fail with a typed checkpoint, and
// Recover must finish into exactly the distribution an unfaulted run
// produces — at less traffic than a restart, with no node declared dead.
func TestMPTResumeAfterMidRunLinkKills(t *testing.T) {
	p, q, n := 5, 5, 8
	m := NewIotaMatrix(p, q)
	want := m.Transposed()
	before := TwoDimConsecutive(p, q, n/2, n/2, Binary)
	after := TwoDimConsecutive(q, p, n/2, n/2, Binary)
	opt := Options{Algorithm: MPT, Machine: IPSCNPort()}
	ct, err := Compile(before, after, opt)
	if err != nil {
		t.Fatal(err)
	}
	base, err := ct.Execute(Scatter(m, before))
	if err != nil {
		t.Fatal(err)
	}

	// Seed-scan for a schedule whose two killed links actually carry
	// remaining traffic; deterministic, so the failing seed is stable.
	// Prefer a failure that checkpointed real deliveries (a genuinely
	// mid-protocol kill), falling back to any mid-run failure.
	var xe *ExecError
	for seed := int64(1); seed <= 32; seed++ {
		fp, ferr := CompileFaults(FaultSpec{Seed: seed, Rules: []FaultRule{
			{Kind: FaultRandomLinks, Count: 2, Start: 0.4 * base.Stats.Time},
		}}, n)
		if ferr != nil {
			t.Fatal(ferr)
		}
		_, err = ct.ExecuteWith(Scatter(m, before), ExecOptions{Faults: fp})
		var cand *ExecError
		if errors.As(err, &cand) && (xe == nil || cand.Checkpoint.DeliveredElems() > xe.Checkpoint.DeliveredElems()) {
			xe = cand
		}
		if xe != nil && xe.Checkpoint.DeliveredElems() > 0 {
			break
		}
	}
	if xe == nil {
		t.Fatal("no seed in 1..32 made a mid-run double link kill bite")
	}
	cp := xe.Checkpoint
	if cp.At <= 0 {
		t.Errorf("checkpoint At = %v, want mid-run instant", cp.At)
	}

	res, first := recoverLoop(t, xe, ExecOptions{})
	if verr := res.Dist.Verify(want); verr != nil {
		t.Fatalf("resumed transpose wrong: %v", verr)
	}
	if !reflect.DeepEqual(res.Dist.Local, base.Dist.Local) {
		t.Fatal("resumed distribution differs bit-for-bit from the unfaulted run")
	}
	resumeBytes := res.Stats.Bytes - first.Stats.Bytes
	if resumeBytes <= 0 {
		t.Fatalf("resume moved no traffic (total %d, sunk %d)", res.Stats.Bytes, first.Stats.Bytes)
	}
	if resumeBytes >= base.Stats.Bytes {
		t.Errorf("resume traffic %d not cheaper than full restart %d", resumeBytes, base.Stats.Bytes)
	}
	if cp.Dead != nil {
		t.Fatalf("link-fault checkpoint grew a dead set: %v", cp.Dead)
	}
}

// A virtual-time deadline aborts cleanly with a typed, resumable error; the
// resumed run (no deadline) finishes the residual bit-identically.
func TestDeadlineAbortsAndResumes(t *testing.T) {
	p, q, n := 4, 4, 6
	m := NewIotaMatrix(p, q)
	want := m.Transposed()
	before := TwoDimConsecutive(p, q, n/2, n/2, Binary)
	after := TwoDimConsecutive(q, p, n/2, n/2, Binary)
	for _, alg := range []Algorithm{SPT, Exchange} {
		ct, err := Compile(before, after, Options{Algorithm: alg, Machine: IPSCNPort()})
		if err != nil {
			t.Fatal(err)
		}
		base, err := ct.Execute(Scatter(m, before))
		if err != nil {
			t.Fatal(err)
		}
		_, err = ct.ExecuteWith(Scatter(m, before), ExecOptions{Deadline: base.Stats.Time / 2})
		if err == nil {
			t.Fatalf("%v: half-makespan deadline did not abort", alg)
		}
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("%v: deadline abort = %v, want ErrDeadline", alg, err)
		}
		var de *DeadlineError
		if !errors.As(err, &de) || de.Deadline != base.Stats.Time/2 {
			t.Fatalf("%v: deadline error detail lost: %v", alg, err)
		}
		var xe *ExecError
		if !errors.As(err, &xe) {
			t.Fatalf("%v: deadline abort carries no checkpoint: %v", alg, err)
		}
		res, _ := recoverLoop(t, xe, ExecOptions{})
		if verr := res.Dist.Verify(want); verr != nil {
			t.Fatalf("%v: resumed-after-deadline transpose wrong: %v", alg, verr)
		}
		if !reflect.DeepEqual(res.Dist.Local, base.Dist.Local) {
			t.Fatalf("%v: resumed distribution differs from the unfaulted run", alg)
		}
	}
}

// Pre-flight feasibility: a schedule that permanently severs an exchange
// dimension is refused with a typed ErrInfeasible before any traffic moves.
func TestInfeasibleRefusedPreFlight(t *testing.T) {
	p, q, n := 3, 3, 4
	m := NewIotaMatrix(p, q)
	before := TwoDimConsecutive(p, q, n/2, n/2, Binary)
	after := TwoDimConsecutive(q, p, n/2, n/2, Binary)
	ct, err := Compile(before, after, Options{Algorithm: Exchange, Machine: IPSCNPort()})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := CompileFaults(SingleLinkDown(0, 1), n)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ct.ExecuteWith(Scatter(m, before), ExecOptions{Faults: fp})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("severed exchange dimension: err = %v, want ErrInfeasible", err)
	}
	var ie *InfeasibleError
	if !errors.As(err, &ie) {
		t.Fatalf("infeasible refusal not typed: %v", err)
	}
	// The refusal must also classify as a link-down outcome for existing
	// sweep/soak code that switches on the fault sentinels.
	if !errors.Is(err, fabric.ErrLinkDown) {
		t.Fatal("InfeasibleError does not unwrap to ErrLinkDown")
	}
}

// Recover on an untouched checkpoint with an empty record replays the whole
// move-set; on a complete record it finishes immediately with no traffic.
func TestRecoverDegenerateCases(t *testing.T) {
	p, q, n := 3, 3, 4
	m := NewIotaMatrix(p, q)
	want := m.Transposed()
	before := TwoDimConsecutive(p, q, n/2, n/2, Binary)
	after := TwoDimConsecutive(q, p, n/2, n/2, Binary)
	ct, err := Compile(before, after, Options{Algorithm: SPT, Machine: IPSCNPort()})
	if err != nil {
		t.Fatal(err)
	}
	base, err := ct.Execute(Scatter(m, before))
	if err != nil {
		t.Fatal(err)
	}
	// Force a failure at t=0-ish: a tiny deadline is fully deterministic.
	_, err = ct.ExecuteWith(Scatter(m, before), ExecOptions{Deadline: 1e-9})
	var xe *ExecError
	if !errors.As(err, &xe) {
		t.Fatalf("tiny deadline did not checkpoint: %v", err)
	}
	res, _ := recoverLoop(t, xe, ExecOptions{})
	if verr := res.Dist.Verify(want); verr != nil {
		t.Fatalf("resume-from-zero transpose wrong: %v", verr)
	}
	if !reflect.DeepEqual(res.Dist.Local, base.Dist.Local) {
		t.Fatal("resume-from-zero distribution differs from the unfaulted run")
	}
	// Recovering the already-finished checkpoint is a no-op completion.
	res2, err := Recover(xe.Checkpoint, ExecOptions{})
	if err != nil {
		t.Fatalf("second resume errored: %v", err)
	}
	if verr := res2.Dist.Verify(want); verr != nil {
		t.Fatalf("idempotent resume wrong: %v", verr)
	}
}

// stoppedAtStart runs ct on input under a deadline of 1 ns and returns the
// checkpoint of that stop at t ≈ 0.
func stoppedAtStart(t *testing.T, ct *CompiledTranspose, input *Dist) *Checkpoint {
	t.Helper()
	_, err := ct.ExecuteWith(input, ExecOptions{Deadline: 1e-9})
	var xe *ExecError
	if !errors.As(err, &xe) {
		t.Fatalf("tiny deadline did not checkpoint: %v", err)
	}
	return xe.Checkpoint
}

// Recover's residual flows fail over like a fresh run's: an SPT checkpoint
// finished with one link down is element-exact for every directed link of a
// 4-cube, and some of those links block a residual route.
func TestRecoverFailsOverAroundADownLink(t *testing.T) {
	ct, input, want := sptFourCube(t)
	hits := 0
	for _, l := range everyDirectedLink(4) {
		fp, err := CompileFaults(SingleLinkDown(l.From, l.Dim), 4)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Recover(stoppedAtStart(t, ct, input()), ExecOptions{Faults: fp})
		if err != nil {
			t.Fatalf("link %v down: resume failed: %v", l, err)
		}
		if verr := res.Dist.Verify(want); verr != nil {
			t.Fatalf("link %v down: resumed transpose wrong: %v", l, verr)
		}
		if res.Stats.Rerouted > 0 {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no single link failure ever blocked a residual route")
	}
}

// A residual flow with no disjoint alternative refuses the finishing run as
// it refuses a fresh one: Recover hands back a resumable *ExecError wrapping
// a *router.RouteError for the isolated node's flow.
func TestUnroutableResidualRefusesRecover(t *testing.T) {
	ct, input, _ := sptFourCube(t)
	const cut = 1
	_, err := Recover(stoppedAtStart(t, ct, input()), ExecOptions{Faults: isolated(t, cut, 4)})
	var re *router.RouteError
	if !errors.As(err, &re) || re.Src != cut || !errors.Is(err, router.ErrNoRoute) || !errors.As(err, new(*ExecError)) {
		t.Errorf("err = %v, want an *ExecError wrapping *router.RouteError for node %d's flow", err, cut)
	}
}
