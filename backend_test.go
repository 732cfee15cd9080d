package boolcube

import (
	"errors"
	"testing"

	"boolcube/internal/fabric"
	"boolcube/internal/plan/plantest"
)

// Backend parity — the same compiled plan on simnet and livenet gives the
// same Dist and Stats.Logical, including a checkpoint/resume round trip — is
// contracts 1 and 5 of the registry suite (internal/core TestContract). What
// follows is the livenet race soak and the public surface of backend
// selection.

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
	if !ok || !sim.VirtualTime {
		t.Fatalf("simnet capabilities wrong: %+v (ok=%v)", sim, ok)
	}
	live, ok := BackendCapabilities("livenet")
	if !ok || live.VirtualTime {
		t.Fatalf("livenet capabilities wrong: %+v (ok=%v)", live, ok)
	}
	def, ok := BackendCapabilities("")
	if !ok || def != sim {
		t.Fatalf("default backend is not the simulation: %+v", def)
	}
	var _ fabric.Capabilities = sim
}
