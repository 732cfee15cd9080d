package boolcube

import (
	"errors"
	"reflect"
	"testing"

	"boolcube/internal/fabric"
	"boolcube/internal/router"
)

// resumeLoop drives Resume to completion, bounding the attempts. It returns
// the final result and the checkpoint of the first failure (for sunk-cost
// accounting).
func resumeLoop(t *testing.T, xe *ExecError, xo ExecOptions) (*Result, *Checkpoint) {
	t.Helper()
	first := xe.Checkpoint
	for attempt := 0; attempt < 4; attempt++ {
		res, err := Resume(xe.Checkpoint, xo)
		if err == nil {
			return res, first
		}
		if !errors.As(err, &xe) {
			t.Fatalf("Resume attempt %d: %v (not a resumable *ExecError)", attempt, err)
		}
	}
	t.Fatalf("resume did not converge in 4 attempts")
	return nil, nil
}

// The acceptance scenario of the recovery layer: an 8-cube MPT with two
// links killed at a mid-run epoch must fail with a typed checkpoint, and
// Resume must finish into exactly the distribution an unfaulted run
// produces — at less traffic than a restart.
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

	res, first := resumeLoop(t, xe, ExecOptions{})
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
		res, _ := resumeLoop(t, xe, ExecOptions{})
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

// Resume on an untouched checkpoint with an empty record replays the whole
// move-set; on a complete record it finishes immediately with no traffic.
func TestResumeDegenerateCases(t *testing.T) {
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
	res, _ := resumeLoop(t, xe, ExecOptions{})
	if verr := res.Dist.Verify(want); verr != nil {
		t.Fatalf("resume-from-zero transpose wrong: %v", verr)
	}
	if !reflect.DeepEqual(res.Dist.Local, base.Dist.Local) {
		t.Fatal("resume-from-zero distribution differs from the unfaulted run")
	}
	// Resuming the already-finished checkpoint is a no-op completion.
	res2, err := Resume(xe.Checkpoint, ExecOptions{})
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

// Resume's residual flows fail over like a fresh run's: an SPT checkpoint
// resumed with one link down finishes element-exactly for every directed
// link of a 4-cube, and some of those links block a residual route.
func TestResumeFailsOverAroundADownLink(t *testing.T) {
	ct, input, want := sptFourCube(t)
	hits := 0
	for _, l := range everyDirectedLink(4) {
		fp, err := CompileFaults(SingleLinkDown(l.From, l.Dim), 4)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Resume(stoppedAtStart(t, ct, input()), ExecOptions{Faults: fp})
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

// A residual flow with no disjoint alternative refuses the resumed run as
// it refuses a fresh one: Resume and Recover (Resume when no node is dead)
// each hand back a resumable *ExecError wrapping a *router.RouteError for
// the isolated node's flow.
func TestUnroutableResidualRefusesResumeAndRecover(t *testing.T) {
	ct, input, _ := sptFourCube(t)
	const cut = 1
	for name, finish := range map[string]func(*Checkpoint, ExecOptions) (*Result, error){"Resume": Resume, "Recover": Recover} {
		_, err := finish(stoppedAtStart(t, ct, input()), ExecOptions{Faults: isolated(t, cut, 4)})
		var re *router.RouteError
		if !errors.As(err, &re) || re.Src != cut || !errors.Is(err, router.ErrNoRoute) || !errors.As(err, new(*ExecError)) {
			t.Errorf("%s: err = %v, want an *ExecError wrapping *router.RouteError for node %d's flow", name, err, cut)
		}
	}
}
