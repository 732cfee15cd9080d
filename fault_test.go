package boolcube

import (
	"errors"
	"testing"

	"boolcube/internal/fabric"
	"boolcube/internal/router"
)

// everyDirectedLink enumerates every directed link of an n-cube.
func everyDirectedLink(n int) []FaultLink {
	var links []FaultLink
	for from := uint64(0); from < 1<<uint(n); from++ {
		for d := 0; d < n; d++ {
			links = append(links, FaultLink{From: from, Dim: d})
		}
	}
	return links
}

// The paper's redundancy argument, made executable: the MPT rides 2H(x)
// edge-disjoint paths per pair, so no single link failure may stop it — for
// every one of the 2^n·n directed links of a 4-cube, the transpose must
// still complete element-exactly under reroute failover, with bounded
// slowdown.
func TestMPTSurvivesAnySingleLinkFailure(t *testing.T) {
	p, q, n := 4, 4, 4
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

	var rerouted int64
	for _, l := range everyDirectedLink(n) {
		fp, err := CompileFaults(SingleLinkDown(l.From, l.Dim), n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ct.ExecuteWith(Scatter(m, before), ExecOptions{Faults: fp})
		if err != nil {
			t.Fatalf("link %v down: MPT failed: %v", l, err)
		}
		if verr := res.Dist.Verify(want); verr != nil {
			t.Fatalf("link %v down: %v", l, verr)
		}
		if res.Stats.Abandoned != 0 {
			t.Fatalf("link %v down: %d flows abandoned under reroute policy", l, res.Stats.Abandoned)
		}
		if res.Stats.Time > 3*base.Stats.Time {
			t.Fatalf("link %v down: slowdown %.2fx exceeds bound 3x",
				l, res.Stats.Time/base.Stats.Time)
		}
		rerouted += res.Stats.Rerouted
	}
	if rerouted == 0 {
		t.Fatal("no fault across the whole sweep engaged the failover path")
	}
}

// The single-path contrast: with failover disabled, SPT under a single link
// failure either completes untouched (the fault missed its routes) or
// reports the typed, deterministic fault error; with the default reroute
// policy, it always completes exactly.
func TestSPTSingleFaultTypedErrorOrFailover(t *testing.T) {
	p, q, n := 4, 4, 4
	m := NewIotaMatrix(p, q)
	want := m.Transposed()
	before := TwoDimConsecutive(p, q, n/2, n/2, Binary)
	after := TwoDimConsecutive(q, p, n/2, n/2, Binary)
	ct, err := Compile(before, after, Options{Algorithm: SPT, Machine: IPSCNPort()})
	if err != nil {
		t.Fatal(err)
	}

	hits, misses := 0, 0
	for _, l := range everyDirectedLink(n) {
		fp, err := CompileFaults(SingleLinkDown(l.From, l.Dim), n)
		if err != nil {
			t.Fatal(err)
		}
		// Failover disabled: the outcome is binary and typed.
		res, err := ct.ExecuteWith(Scatter(m, before), ExecOptions{Faults: fp, Failover: FailoverNone})
		if err != nil {
			if !errors.Is(err, fabric.ErrLinkDown) {
				t.Fatalf("link %v down: error %v is not typed ErrLinkDown", l, err)
			}
			// Deterministic: an identical run fails identically.
			_, err2 := ct.ExecuteWith(Scatter(m, before), ExecOptions{Faults: fp, Failover: FailoverNone})
			if err2 == nil || err2.Error() != err.Error() {
				t.Fatalf("link %v down: error not reproducible:\n%v\n%v", l, err, err2)
			}
			hits++
		} else {
			if verr := res.Dist.Verify(want); verr != nil {
				t.Fatalf("link %v down (missed routes): %v", l, verr)
			}
			misses++
		}

		// Reroute failover: always completes element-exactly.
		res, err = ct.ExecuteWith(Scatter(m, before), ExecOptions{Faults: fp})
		if err != nil {
			t.Fatalf("link %v down: SPT failover failed: %v", l, err)
		}
		if verr := res.Dist.Verify(want); verr != nil {
			t.Fatalf("link %v down: failover result wrong: %v", l, verr)
		}
	}
	if hits == 0 {
		t.Fatal("no single link failure ever hit an SPT route")
	}
	if misses == 0 {
		t.Fatal("every link failure hit an SPT route — fault placement suspect")
	}
}

// Node failure: taking a node down severs all its links, so any transpose
// that must traverse it fails typed — and the error names a link incident
// to the failed node.
func TestNodeDownIsFatalForItsTraffic(t *testing.T) {
	p, q, n := 4, 4, 4
	m := NewIotaMatrix(p, q)
	before := TwoDimConsecutive(p, q, n/2, n/2, Binary)
	after := TwoDimConsecutive(q, p, n/2, n/2, Binary)
	fp, err := CompileFaults(FaultSpec{Rules: []FaultRule{{Kind: FaultNodeDown, Node: 6}}}, n)
	if err != nil {
		t.Fatal(err)
	}
	// Node 6 originates its own flows, so even failover cannot save the
	// run: its outgoing links are all down.
	_, err = Transpose(Scatter(m, before), after,
		Options{Algorithm: MPT, Machine: IPSCNPort(), Faults: fp})
	if err == nil {
		t.Fatal("transpose through a failed node succeeded")
	}
	if !isTypedFaultErr(err) {
		t.Fatalf("error %v is not a typed fault/route error", err)
	}
}

func isTypedFaultErr(err error) bool {
	return errors.Is(err, fabric.ErrLinkDown) || errors.Is(err, fabric.ErrRetryBudget) ||
		errors.Is(err, router.ErrNoRoute)
}

// FailoverAbandon through the executor: with every outgoing link of one node
// down, that node's SPT flow has no alternative while the flows merely
// routed through it do. Abandon drops exactly that flow — its destination
// block stays zero, every other element lands where the unfaulted run puts
// it (rerouted flows scatter at their own offsets even though the dropped
// flow shifted the kept ones' indices) — and the default reroute policy
// refuses the same run with a typed *router.RouteError naming the flow.
func TestAbandonDropsOnlyTheUnroutableFlow(t *testing.T) {
	p, q, n := 4, 4, 4
	const cut = 1
	m := NewIotaMatrix(p, q)
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
	var rules []FaultRule
	for d := 0; d < n; d++ {
		rules = append(rules, FaultRule{Kind: FaultLinkDown, Link: FaultLink{From: cut, Dim: d}})
	}
	fp, err := CompileFaults(FaultSpec{Rules: rules}, n)
	if err != nil {
		t.Fatal(err)
	}

	res, err := ct.ExecuteWith(Scatter(m, before), ExecOptions{Faults: fp, Failover: FailoverAbandon})
	if err != nil {
		t.Fatalf("abandon policy failed the run: %v", err)
	}
	if res.Stats.Abandoned != 1 || res.Stats.Rerouted == 0 {
		t.Fatalf("abandoned %d, rerouted %d; want exactly 1 abandoned and some rerouted",
			res.Stats.Abandoned, res.Stats.Rerouted)
	}
	got, want := res.Dist.Gather(), base.Dist.Gather()
	dropped := 0
	for u := uint64(0); u < uint64(want.Rows()); u++ {
		for v := uint64(0); v < uint64(want.Cols()); v++ {
			// Transposed element (u, v) started as (v, u) on the before side.
			src, dst := before.ProcOf(v, u), after.ProcOf(u, v)
			switch {
			case src == cut && dst != cut:
				dropped++
				if got.At(u, v) != 0 {
					t.Fatalf("abandoned element (%d,%d) = %g, want 0", u, v, got.At(u, v))
				}
			case got.At(u, v) != want.At(u, v):
				t.Fatalf("element (%d,%d) from node %d = %g, want %g", u, v, src, got.At(u, v), want.At(u, v))
			}
		}
	}
	if dropped == 0 {
		t.Fatal("node 1 sends nothing off-node; the scenario abandons no payload")
	}

	_, err = ct.ExecuteWith(Scatter(m, before), ExecOptions{Faults: fp})
	var re *router.RouteError
	if !errors.As(err, &re) || re.Src != cut || !errors.Is(err, router.ErrNoRoute) {
		t.Fatalf("reroute policy: %v, want *router.RouteError for node %d's flow", err, cut)
	}
}

// A FailoverPolicy outside the three is refused before any engine is built,
// by ExecuteWith and by Resume and Recover, instead of acting as reroute.
func TestUnknownFailoverPolicyRefused(t *testing.T) {
	p, q, n := 4, 4, 4
	m := NewIotaMatrix(p, q)
	before := TwoDimConsecutive(p, q, n/2, n/2, Binary)
	after := TwoDimConsecutive(q, p, n/2, n/2, Binary)
	ct, err := Compile(before, after, Options{Algorithm: SPT, Machine: IPSCNPort()})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := CompileFaults(SingleLinkDown(0, 0), n)
	if err != nil {
		t.Fatal(err)
	}
	bad := FailoverPolicy(7)
	res, err := ct.ExecuteWith(Scatter(m, before), ExecOptions{Faults: fp, Failover: bad})
	var xe *ExecError
	if err == nil || errors.As(err, &xe) {
		t.Fatalf("failover %v: result %v, error %v; want a refusal before the run", bad, res, err)
	}
	_, err = ct.ExecuteWith(Scatter(m, before), ExecOptions{Deadline: 1e-9})
	if !errors.As(err, &xe) {
		t.Fatalf("tiny deadline did not checkpoint: %v", err)
	}
	for name, finish := range map[string]func(*Checkpoint, ExecOptions) (*Result, error){"Resume": Resume, "Recover": Recover} {
		if _, err := finish(xe.Checkpoint, ExecOptions{Failover: bad}); err == nil || errors.As(err, new(*ExecError)) {
			t.Errorf("%s with failover %v: %v, want a refusal before the run", name, bad, err)
		}
	}
}
