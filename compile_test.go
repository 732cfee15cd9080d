package boolcube

import (
	"fmt"
	"testing"

	"boolcube/internal/plan/plantest"
)

// Replay determinism through both public entry points. Transpose is Compile
// + Execute over the one plan cache, so this executes one cached plan three
// times — once via Transpose, twice via Execute — and requires element-exact
// results and bit-identical simulated Stats run after run, for every
// algorithm. (That a cached plan equals a freshly compiled one is asserted
// where the cache lives: internal/plan TestCacheTransparency.)
func TestCompiledReplayMatchesOneShot(t *testing.T) {
	p, q, n := 4, 4, 4
	for _, mach := range []Machine{IPSC(), IPSCNPort()} {
		for _, alg := range Algorithms() {
			t.Run(fmt.Sprintf("%s/%s", mach.Name, alg), func(t *testing.T) {
				before, after, transposes := plantest.Pair(alg, p, q, n)
				m := NewIotaMatrix(p, q)
				want := plantest.Want(m, transposes)
				opt := Options{Algorithm: alg, Machine: mach, LocalCopies: true}

				oneShot, err := Transpose(Scatter(m, before), after, opt)
				if err != nil {
					t.Fatal(err)
				}
				if verr := oneShot.Dist.Verify(want); verr != nil {
					t.Fatal(verr)
				}

				ct, err := Compile(before, after, opt)
				if err != nil {
					t.Fatal(err)
				}
				for run := 0; run < 2; run++ {
					res, err := ct.Execute(Scatter(m, before))
					if err != nil {
						t.Fatal(err)
					}
					if verr := res.Dist.Verify(want); verr != nil {
						t.Fatalf("run %d: %v", run, verr)
					}
					if got, want := res.Stats.Logical(), oneShot.Stats.Logical(); got != want {
						t.Fatalf("run %d: logical stats diverge from one-shot:\ncompiled %+v\none-shot %+v",
							run, got, want)
					}
					if res.Stats != oneShot.Stats {
						t.Fatalf("run %d: timing-derived stats diverge from one-shot:\ncompiled %+v\none-shot %+v",
							run, res.Stats, oneShot.Stats)
					}
				}
			})
		}
	}
}

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

// ExecuteTraced labels the recorder with the plan description and records
// the same run.
func TestExecuteTracedLabelsRecorder(t *testing.T) {
	p, q, n := 4, 4, 4
	before := TwoDimConsecutive(p, q, n/2, n/2, Binary)
	after := TwoDimConsecutive(q, p, n/2, n/2, Binary)
	ct, err := Compile(before, after, Options{Algorithm: SBnT, Machine: IPSCNPort()})
	if err != nil {
		t.Fatal(err)
	}
	m := NewIotaMatrix(p, q)
	rec := NewTrace()
	res, err := ct.ExecuteTraced(Scatter(m, before), rec)
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
