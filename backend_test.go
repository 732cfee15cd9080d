package boolcube

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"boolcube/internal/fabric"
	"boolcube/internal/plan/plantest"
)

// The differential backend-parity suite: the same compiled plan executed on
// the deterministic simulation ("simnet") and on the real goroutine-per-node
// transport ("livenet") must produce element-identical destination arrays
// and equal logical statistics (Stats.Logical — counters only, timing
// stripped). This is the contract that makes the simulation trustworthy as
// a model of a real machine and the live transport trustworthy as an
// implementation of the model.

// liveBackends returns the backend names every parity case runs on.
func parityBackends(t *testing.T) []string {
	t.Helper()
	got := Backends()
	for _, want := range []string{"livenet", "simnet"} {
		found := false
		for _, b := range got {
			if b == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("backend %q not registered (have %v)", want, got)
		}
	}
	return []string{"simnet", "livenet"}
}

// Every algorithm of the paper, on both backends, on 4- and 6-cubes:
// element-identical results and equal logical stats.
func TestBackendParityAllAlgorithms(t *testing.T) {
	parityBackends(t)
	cubes := []struct{ p, q, n int }{{4, 4, 4}, {6, 6, 6}} // the conversions need p, q >= n
	if testing.Short() {
		cubes = cubes[:1]
	}
	for _, c := range cubes {
		for _, mach := range []Machine{IPSC(), IPSCNPort()} {
			for _, alg := range Algorithms() {
				t.Run(fmt.Sprintf("n%d/%s/%s", c.n, mach.Name, alg), func(t *testing.T) {
					before, after, transposes := plantest.Pair(alg, c.p, c.q, c.n)
					m := NewIotaMatrix(c.p, c.q)
					want := plantest.Want(m, transposes)
					ct, err := Compile(before, after, Options{
						Algorithm: alg, Machine: mach, LocalCopies: true,
					})
					if err != nil {
						t.Fatal(err)
					}
					sim, err := ct.ExecuteWith(Scatter(m, before), ExecOptions{Backend: "simnet"})
					if err != nil {
						t.Fatal(err)
					}
					if verr := sim.Dist.Verify(want); verr != nil {
						t.Fatalf("simnet result wrong: %v", verr)
					}
					live, err := ct.ExecuteWith(Scatter(m, before), ExecOptions{Backend: "livenet"})
					if err != nil {
						t.Fatalf("livenet run failed: %v", err)
					}
					if verr := live.Dist.Verify(want); verr != nil {
						t.Fatalf("livenet result wrong: %v", verr)
					}
					if got, want := live.Stats.Logical(), sim.Stats.Logical(); got != want {
						t.Fatalf("logical stats diverge:\nlivenet %+v\nsimnet  %+v", got, want)
					}
					if live.Stats.Time <= 0 {
						t.Fatal("livenet reported no wall-clock time")
					}
				})
			}
		}
	}
}

// Randomized backend parity (the property-test version): seeded random
// shapes, algorithms, strategies, machines and fault plans, executed on
// both backends. Fault plans stay within what both backends interpret
// identically — flaky links (attempt-indexed, deterministic on a single
// sender per link) and permanent link failures — never wall-clock windows.
func TestBackendParityRandomized(t *testing.T) {
	parityBackends(t)
	rng := rand.New(rand.NewSource(20260808))
	algos := Algorithms()
	machines := []Machine{IPSC(), IPSCNPort()}
	strategies := []Strategy{SingleMessage, Shuffled, Unbuffered, Buffered}

	trials := 40
	if testing.Short() {
		trials = 12
	}
	executed := 0
	for i := 0; i < trials; i++ {
		alg := algos[rng.Intn(len(algos))]
		n := 2 + 2*rng.Intn(2)
		p := n/2 + 1 + rng.Intn(2)
		q := n/2 + 1 + rng.Intn(2)
		before, after, transposes := randomLayouts(rng, alg, p, q, n)
		opt := Options{
			Algorithm:   alg,
			Machine:     machines[rng.Intn(len(machines))],
			Strategy:    strategies[rng.Intn(len(strategies))],
			Packets:     rng.Intn(4),
			LocalCopies: rng.Intn(2) == 1,
		}
		xo := ExecOptions{}
		// A third of the trials run under a deterministic fault plan with a
		// retry budget generous enough to always clear it.
		if rng.Intn(3) == 0 {
			spec := FaultSpec{Seed: rng.Int63(), Rules: []FaultRule{{
				Kind: FaultLinkFlaky,
				Link: FaultLink{From: uint64(rng.Intn(1 << n)), Dim: rng.Intn(n)},
				Prob: 0.4,
			}}}
			fp, err := CompileFaults(spec, n)
			if err != nil {
				t.Fatal(err)
			}
			xo.Faults = fp
			xo.Retry = RetryPolicy{Attempts: 64}
		}
		name := fmt.Sprintf("trial %d: %v %s->%s on %s (faults=%v)",
			i, alg, before, after, opt.Machine.Name, xo.Faults != nil)

		m := NewIotaMatrix(p, q)
		want := plantest.Want(m, transposes)
		ct, err := Compile(before, after, opt)
		if err != nil {
			continue // invalid combination; covered by the one-shot property test
		}
		xo.Backend = "simnet"
		sim, errSim := ct.ExecuteWith(Scatter(m, before), xo)
		xo.Backend = "livenet"
		live, errLive := ct.ExecuteWith(Scatter(m, before), xo)
		if (errSim == nil) != (errLive == nil) {
			t.Fatalf("%s: backends disagree on failure: simnet=%v livenet=%v", name, errSim, errLive)
		}
		if errSim != nil {
			continue
		}
		if verr := sim.Dist.Verify(want); verr != nil {
			t.Fatalf("%s: simnet result wrong: %v", name, verr)
		}
		if verr := live.Dist.Verify(want); verr != nil {
			t.Fatalf("%s: livenet result wrong: %v", name, verr)
		}
		if got, want := live.Stats.Logical(), sim.Stats.Logical(); got != want {
			t.Fatalf("%s: logical stats diverge:\nlivenet %+v\nsimnet  %+v", name, got, want)
		}
		executed++
	}
	if executed < trials/2 {
		t.Fatalf("only %d of %d random trials executed — generator too narrow", executed, trials)
	}
}

// Mid-run fault, checkpoint, Resume — on each backend. A link that drops
// every frame defeats the run deterministically on both backends (drops are
// attempt-indexed); the checkpoint must then resume to a verified result
// once the fault is lifted (an explicitly empty fault plan — the inherited
// plan would keep the link flaky forever).
func TestBackendParityCheckpointResume(t *testing.T) {
	parityBackends(t)
	p, q, n := 4, 4, 4
	m := NewIotaMatrix(p, q)
	before := TwoDimConsecutive(p, q, n/2, n/2, Binary)
	after := TwoDimConsecutive(q, p, n/2, n/2, Binary)
	clean, err := CompileFaults(FaultSpec{}, n)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := Compile(before, after, Options{Algorithm: SBnT, Machine: IPSCNPort()})
	if err != nil {
		t.Fatal(err)
	}
	// Pick a directed link the plan actually traverses: the first one whose
	// all-drop fault defeats a simnet run mid-flight with salvageable
	// progress. The same link then defeats livenet identically, because
	// drops are attempt-indexed and each link has one sender.
	var fp *FaultPlan
	for _, l := range everyDirectedLink(n) {
		cand, err := CompileFaults(FaultSpec{Rules: []FaultRule{{
			Kind: FaultLinkFlaky, Link: FaultLink{From: l.From, Dim: l.Dim}, Prob: 1.0,
		}}}, n)
		if err != nil {
			t.Fatal(err)
		}
		_, err = ct.ExecuteWith(Scatter(m, before), ExecOptions{
			Faults: cand, Retry: RetryPolicy{Attempts: 3},
		})
		var xe *ExecError
		if errors.As(err, &xe) && xe.Checkpoint.DeliveredElems() > 0 {
			fp = cand
			break
		}
	}
	if fp == nil {
		t.Fatal("no single all-drop link defeated the SBnT plan with salvageable progress")
	}
	for _, backend := range parityBackends(t) {
		t.Run(backend, func(t *testing.T) {
			_, err := ct.ExecuteWith(Scatter(m, before), ExecOptions{
				Backend: backend, Faults: fp, Retry: RetryPolicy{Attempts: 3},
			})
			if err == nil {
				t.Fatal("all-drop link did not defeat the run")
			}
			var xe *ExecError
			if !errors.As(err, &xe) {
				t.Fatalf("mid-run fault returned %v, want a resumable *ExecError", err)
			}
			if !errors.Is(err, fabric.ErrRetryBudget) {
				t.Fatalf("failure %v is not typed ErrRetryBudget", err)
			}
			res, err := Resume(xe.Checkpoint, ExecOptions{Backend: backend, Faults: clean})
			if err != nil {
				t.Fatalf("Resume on %s: %v", backend, err)
			}
			if verr := res.Dist.Verify(m.Transposed()); verr != nil {
				t.Fatalf("resumed result wrong on %s: %v", backend, verr)
			}
			if res.Stats.Drops == 0 || res.Stats.FaultedSends == 0 {
				t.Fatalf("resumed stats lost the fault history: %+v", res.Stats)
			}
		})
	}
}

// The livenet race soak: a 6-cube all-to-all (64 goroutine nodes, every
// link hot) plus a one-port exchange, executed back to back. Run under
// `go test -race -short` this is the data-race gate for the live
// transport's send/receive/semaphore paths.
func TestLivenetRaceSoak6Cube(t *testing.T) {
	p, q, n := 6, 6, 6
	m := NewIotaMatrix(p, q)
	for _, cfg := range []struct {
		alg  Algorithm
		mach Machine
	}{
		{SBnT, IPSCNPort()},
		{Exchange, IPSC()},
	} {
		before, after, _ := plantest.Pair(cfg.alg, p, q, n)
		res, err := Transpose(Scatter(m, before), after, Options{
			Algorithm: cfg.alg, Machine: cfg.mach, Backend: "livenet",
		})
		if err != nil {
			t.Fatalf("%v on livenet: %v", cfg.alg, err)
		}
		if verr := res.Dist.Verify(m.Transposed()); verr != nil {
			t.Fatalf("%v on livenet: %v", cfg.alg, verr)
		}
	}
}

// Unknown backend names fail with the typed registry error, end to end.
func TestUnknownBackendTypedError(t *testing.T) {
	p, q, n := 4, 4, 4
	m := NewIotaMatrix(p, q)
	before := TwoDimConsecutive(p, q, n/2, n/2, Binary)
	after := TwoDimConsecutive(q, p, n/2, n/2, Binary)
	_, err := Transpose(Scatter(m, before), after, Options{
		Algorithm: Exchange, Backend: "hypernet",
	})
	var ube *UnknownBackendError
	if !errors.As(err, &ube) {
		t.Fatalf("unknown backend returned %v, want *UnknownBackendError", err)
	}
	if ube.Backend != "hypernet" || len(ube.Known) == 0 {
		t.Fatalf("typed error incomplete: %+v", ube)
	}
}

// The capability matrix is honest about the two shipped backends.
func TestBackendCapabilities(t *testing.T) {
	sim, ok := BackendCapabilities("simnet")
	if !ok || !sim.Deterministic || !sim.VirtualTime || !sim.TimedFaultWindows {
		t.Fatalf("simnet capabilities wrong: %+v (ok=%v)", sim, ok)
	}
	live, ok := BackendCapabilities("livenet")
	if !ok || live.Deterministic || live.VirtualTime || !live.FaultInjection {
		t.Fatalf("livenet capabilities wrong: %+v (ok=%v)", live, ok)
	}
	def, ok := BackendCapabilities("")
	if !ok || def != sim {
		t.Fatalf("default backend is not the simulation: %+v", def)
	}
	var _ fabric.Capabilities = sim
}
