package boolcube

import "testing"

// Compiling with AlgorithmAuto picks a concrete algorithm via the cost
// model and executes it correctly.
func TestCompileAutoResolves(t *testing.T) {
	p, q, n := 4, 4, 4
	before := TwoDimConsecutive(p, q, n/2, n/2, Binary)
	after := TwoDimConsecutive(q, p, n/2, n/2, Binary)
	for _, mach := range []Machine{IPSC(), IPSCNPort()} {
		ct, err := Compile(before, after, Options{Algorithm: AlgorithmAuto, Machine: mach})
		if err != nil {
			t.Fatal(err)
		}
		if ct.Algorithm() == AlgorithmAuto {
			t.Fatalf("%s: Compile left the algorithm unresolved", mach.Name)
		}
		if c := ct.PredictedCost(); c <= 0 {
			t.Fatalf("%s: predicted cost %v, want > 0", mach.Name, c)
		}
		m := NewIotaMatrix(p, q)
		res, err := ct.Execute(Scatter(m, before))
		if err != nil {
			t.Fatal(err)
		}
		if verr := res.Dist.Verify(m.Transposed()); verr != nil {
			t.Fatalf("%s (%s): %v", mach.Name, ct.Algorithm(), verr)
		}
	}
}

// ExecuteWith labels a tracer that takes labels with the plan description
// and records the run.
func TestExecuteWithLabelsRecorder(t *testing.T) {
	p, q, n := 4, 4, 4
	before := TwoDimConsecutive(p, q, n/2, n/2, Binary)
	after := TwoDimConsecutive(q, p, n/2, n/2, Binary)
	ct, err := Compile(before, after, Options{Algorithm: SBnT, Machine: IPSCNPort()})
	if err != nil {
		t.Fatal(err)
	}
	m := NewIotaMatrix(p, q)
	rec := NewTrace()
	res, err := ct.ExecuteWith(Scatter(m, before), ExecOptions{Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if verr := res.Dist.Verify(m.Transposed()); verr != nil {
		t.Fatal(verr)
	}
	if rec.Label != ct.Describe() {
		t.Fatalf("trace label %q, want plan description %q", rec.Label, ct.Describe())
	}
	if len(rec.Events) == 0 {
		t.Fatal("traced execution recorded no events")
	}
}
