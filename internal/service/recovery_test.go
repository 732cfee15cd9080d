package service

import (
	"errors"
	"testing"

	"boolcube/internal/core"
	"boolcube/internal/fabric"
	"boolcube/internal/fault"
	"boolcube/internal/field"
	"boolcube/internal/plan"
	"boolcube/internal/router"
)

// unfaultedRoundTime measures one job's fault-free round makespan on a
// private service, so crash tests can schedule kills mid-round.
func unfaultedRoundTime(t *testing.T, cfg Config, spec JobSpec) float64 {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	return s.Metrics().Fabric.Time
}

// crashConfig is cfg with a fault schedule that kills victim at µs time at.
func crashConfig(t *testing.T, cfg Config, victim uint64, at float64) Config {
	t.Helper()
	fp, err := fault.Compile(fault.NodeCrash(victim, at), cfg.Dims)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = fp
	return cfg
}

// newCrashService builds a service whose fault schedule kills victim at µs
// time at.
func newCrashService(t *testing.T, cfg Config, victim uint64, at float64) *Service {
	t.Helper()
	s, err := New(crashConfig(t, cfg, victim, at))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// crashFracs are the kill instants the crash tests scan, as fractions of
// the unfaulted round makespan. The scan is deterministic on simnet, so the
// interrupting instant each test finds is stable.
var crashFracs = []float64{0.3, 0.45, 0.6, 0.75, 0.15}

// The service-level tentpole scenario: a node crash-stops mid-round, the
// round dies with a *fabric.NodeDownError, and the service recovers the job
// by itself — remapping the unit onto survivors and re-running the residual
// — so the tenant just sees a correct result.
func TestServiceRecoversFromNodeCrash(t *testing.T) {
	cfg := Config{Dims: 6}
	spec, m := mkSpec2D(plan.MPT, 5, 5, 6, field.Binary)
	want := m.Transposed()
	base := unfaultedRoundTime(t, cfg, spec)

	for _, frac := range crashFracs {
		s := newCrashService(t, cfg, 11, frac*base)
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait()
		if err != nil {
			t.Fatalf("job did not survive the kill at %.2f of the round: %v", frac, err)
		}
		s.Close()
		if verr := res.Dist.Verify(want); verr != nil {
			t.Fatalf("kill at %.2f: recovered result wrong: %v", frac, verr)
		}
		mtr := s.Metrics()
		if mtr.Recoveries == 0 {
			continue // kill landed after the round (or the node outlived it)
		}
		if mtr.Completed != 1 || mtr.Failed != 0 {
			t.Fatalf("metrics after recovery: %d completed, %d failed", mtr.Completed, mtr.Failed)
		}
		if mtr.RecoveryBytes <= 0 {
			t.Fatal("recovery moved no accounted traffic")
		}
		if mtr.Quarantined != 0 {
			t.Fatalf("one suspicion quarantined %d node(s); threshold is %d",
				mtr.Quarantined, quarantineAfter)
		}
		return
	}
	t.Fatal("no crash instant interrupted a round")
}

// The circuit breaker: with the node already suspected once, its first
// node-down failure reaches the threshold and retires it, and a later job
// is relabeled around the corpse up front — it completes without the
// service suffering another failure.
func TestServiceQuarantinesRepeatedlySuspectedNode(t *testing.T) {
	cfg := Config{Dims: 6}
	spec, m := mkSpec2D(plan.DPT, 5, 5, 6, field.Binary)
	want := m.Transposed()
	base := unfaultedRoundTime(t, cfg, spec)

	for _, frac := range crashFracs {
		s := newCrashService(t, cfg, 7, frac*base)
		for range quarantineAfter - 1 {
			s.noteSuspects([]uint64{7})
		}
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(); err != nil {
			t.Fatalf("job did not survive the kill at %.2f of the round: %v", frac, err)
		}
		first := s.Metrics()
		if first.Recoveries == 0 {
			s.Close()
			continue
		}
		if first.Quarantined != 1 {
			t.Fatalf("quarantined %d node(s) after the failure that reached the threshold", first.Quarantined)
		}
		if q := s.QuarantinedNodes(); len(q) != 1 || q[0] != 7 {
			t.Fatalf("quarantined set = %v, want [7]", q)
		}

		// A fresh job on the degraded machine: the quarantine remaps it
		// proactively, so it completes with no additional recovery round.
		j2, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		res2, err := j2.Wait()
		if err != nil {
			t.Fatalf("post-quarantine job failed: %v", err)
		}
		s.Close()
		if verr := res2.Dist.Verify(want); verr != nil {
			t.Fatalf("post-quarantine result wrong: %v", verr)
		}
		second := s.Metrics()
		if second.Failed != 0 || second.Completed != 2 {
			t.Fatalf("metrics after both jobs: %d completed, %d failed", second.Completed, second.Failed)
		}
		if second.Recoveries != first.Recoveries {
			t.Fatalf("post-quarantine job needed %d extra recovery round(s); the remap should be proactive",
				second.Recoveries-first.Recoveries)
		}
		return
	}
	t.Fatal("no crash instant interrupted a round")
}

// Batched tenants survive together: two identical requests share one unit,
// the unit's recovery runs once, and both tenants receive element-exact
// results. Rounds are driven by hand, so the two meet in the first one.
func TestServiceBatchRecoversTogether(t *testing.T) {
	cfg := Config{Dims: 6}
	spec, m := mkSpec2D(plan.SPT, 5, 5, 6, field.Binary)
	want := m.Transposed()
	base := unfaultedRoundTime(t, cfg, spec)

	for _, frac := range crashFracs {
		s := bareService(crashConfig(t, cfg, 11, frac*base))
		j1, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		j2, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		drainRounds(s)
		r1, err1 := j1.Wait()
		r2, err2 := j2.Wait()
		if err1 != nil || err2 != nil {
			t.Fatalf("batched jobs did not survive the kill: %v / %v", err1, err2)
		}
		for i, r := range []*core.Result{r1, r2} {
			if verr := r.Dist.Verify(want); verr != nil {
				t.Fatalf("tenant %d result wrong: %v", i, verr)
			}
		}
		mtr := s.Metrics()
		if mtr.Recoveries == 0 {
			continue
		}
		if mtr.Batched != 1 {
			t.Fatalf("batched = %d, want 1 (both tenants on one unit)", mtr.Batched)
		}
		return
	}
	t.Fatal("no crash instant interrupted a round")
}

// When the attempt budget is exhausted mid-recovery, the job fails with a
// checkpoint that carries the accumulated dead set — and handing it to
// core.Recover finishes the transpose element-exact on a private engine.
// The service's recovery and the library's compose. The round is driven by
// hand on a unit that has already spent all but its last attempt.
func TestServiceHandsRecoverableCheckpointPastAttempts(t *testing.T) {
	cfg := Config{Dims: 6}
	spec, m := mkSpec2D(plan.MPT, 5, 5, 6, field.Binary)
	want := m.Transposed()
	base := unfaultedRoundTime(t, cfg, spec)

	for _, frac := range crashFracs {
		s := bareService(crashConfig(t, cfg, 11, frac*base))
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		units := s.formRoundLocked()
		s.mu.Unlock()
		units[0].attempts = maxAttempts - 1
		s.runRound(units)
		_, werr := j.Wait()
		if werr == nil {
			continue // kill landed after the round; nothing failed
		}
		if !errors.Is(werr, ErrAttempts) || !errors.Is(werr, fabric.ErrNodeDown) {
			t.Fatalf("failure %v does not carry both ErrAttempts and ErrNodeDown", werr)
		}
		var xe *core.ExecError
		if !errors.As(werr, &xe) {
			t.Fatalf("failure %v carries no checkpoint", werr)
		}
		if len(xe.Checkpoint.Dead) != 1 || xe.Checkpoint.Dead[0] != 11 {
			t.Fatalf("checkpoint dead set = %v, want [11]", xe.Checkpoint.Dead)
		}
		res, rerr := core.Recover(xe.Checkpoint, core.ExecOptions{})
		if rerr != nil {
			t.Fatalf("external Recover failed: %v", rerr)
		}
		if verr := res.Dist.Verify(want); verr != nil {
			t.Fatalf("externally recovered result wrong: %v", verr)
		}
		return
	}
	t.Fatal("no crash instant interrupted a round")
}

// Tenant isolation on failover: a flow the failover pass cannot reroute
// condemns the unit that owns it, not the round. Node 63 of a 6-cube is cut
// off by link faults (every incident link down in both directions — the
// node is alive, so nothing is remapped); a job spanning the full cube has
// transfers that end there and fails with ErrNoRoute, while a co-scheduled
// job on the low 4-subcube never comes near the node and must complete
// element-exact, whichever of the two comes first in the round's flow order.
func TestServiceFailoverRefusalIsolatesTenant(t *testing.T) {
	const n, cut = 6, 63
	var rules []fault.Rule
	for d := 0; d < n; d++ {
		rules = append(rules,
			fault.Rule{Kind: fault.LinkDown, Link: fault.Link{From: cut, Dim: d}},
			fault.Rule{Kind: fault.LinkDown, Link: fault.Link{From: cut ^ 1<<uint(d), Dim: d}})
	}
	fp, err := fault.Compile(fault.Spec{Rules: rules}, n)
	if err != nil {
		t.Fatal(err)
	}
	wide, _ := mkSpec(plan.Exchange, 6, 6, n, field.Binary)
	narrow, m := mkSpec(plan.SBnT, 4, 4, 4, field.Binary)
	for _, wideFirst := range []bool{true, false} {
		// A bare service and a hand-driven round: both jobs are in the same
		// round by construction, in submit order.
		s := bareService(Config{Dims: n})
		s.faults = fp
		specs := []JobSpec{narrow, wide}
		if wideFirst {
			specs = []JobSpec{wide, narrow}
		}
		jobs := make(map[bool]*Job)
		for _, spec := range specs {
			j, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			jobs[spec.Src == wide.Src] = j
		}
		s.mu.Lock()
		units := s.formRoundLocked()
		s.mu.Unlock()
		if len(units) != 2 {
			t.Fatalf("round has %d unit(s), want 2", len(units))
		}
		s.runRound(units)

		_, werr := jobs[true].Wait()
		var ee *core.ExecError
		if !errors.Is(werr, router.ErrNoRoute) || !errors.As(werr, &ee) {
			t.Fatalf("wideFirst=%v: full-cube job: %v, want a checkpointed ErrNoRoute", wideFirst, werr)
		}
		res, nerr := jobs[false].Wait()
		if nerr != nil {
			t.Fatalf("wideFirst=%v: job clear of the cut node failed with its co-tenant: %v", wideFirst, nerr)
		}
		if verr := res.Dist.Verify(m.Transposed()); verr != nil {
			t.Fatalf("wideFirst=%v: %v", wideFirst, verr)
		}
		if mt := s.Metrics(); mt.Failed != 1 || mt.Completed != 1 || mt.Rounds != 1 {
			t.Fatalf("wideFirst=%v: metrics %+v, want 1 failed, 1 completed, 1 round", wideFirst, mt)
		}
	}
}
