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
// still complete element-exactly under failover, with bounded slowdown.
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

// The single-path contrast: SPT has one route per pair, so a single link
// failure either misses its routes (the run is untouched) or blocks some of
// them, and failover moves each blocked flow onto a disjoint alternative.
// Either way the run completes element-exactly.
func TestSPTSingleFaultFailsOver(t *testing.T) {
	ct, input, want := sptFourCube(t)
	hits, misses := 0, 0
	for _, l := range everyDirectedLink(4) {
		fp, err := CompileFaults(SingleLinkDown(l.From, l.Dim), 4)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ct.ExecuteWith(input(), ExecOptions{Faults: fp})
		if err != nil {
			t.Fatalf("link %v down: SPT failover failed: %v", l, err)
		}
		if verr := res.Dist.Verify(want); verr != nil {
			t.Fatalf("link %v down: failover result wrong: %v", l, verr)
		}
		if res.Stats.Rerouted > 0 {
			hits++
		} else {
			misses++
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
	return errors.Is(err, fabric.ErrLinkDown) || errors.Is(err, fabric.ErrRetryBudget)
}

// A flow with no disjoint alternative refuses the run: with every outgoing
// link of one node down, that node's SPT flow has nowhere to go while the
// flows merely routed through it do, and the run fails before any traffic
// moves with a typed *router.RouteError naming the stranded flow. The
// refusal classifies as the link-down outcome it stands for.
func TestUnroutableFlowRefusesTheRun(t *testing.T) {
	ct, input, _ := sptFourCube(t)
	const cut = 1
	_, err := ct.ExecuteWith(input(), ExecOptions{Faults: isolated(t, cut, 4)})
	var re *router.RouteError
	if !errors.As(err, &re) || re.Src != cut || !errors.Is(err, router.ErrNoRoute) {
		t.Fatalf("err = %v, want *router.RouteError for node %d's flow", err, cut)
	}
	if !errors.Is(err, ErrLinkDown) {
		t.Fatalf("err = %v does not unwrap to ErrLinkDown", err)
	}
}

// sptFourCube compiles the n-port SPT transpose of the 2^4×2^4 iota matrix
// between 2-D consecutive layouts on a 4-cube. input scatters a fresh copy
// of the matrix; want is its transpose.
func sptFourCube(t *testing.T) (ct *CompiledTranspose, input func() *Dist, want *Matrix) {
	t.Helper()
	m := NewIotaMatrix(4, 4)
	before := TwoDimConsecutive(4, 4, 2, 2, Binary)
	ct, err := Compile(before, TwoDimConsecutive(4, 4, 2, 2, Binary), Options{Algorithm: SPT, Machine: IPSCNPort()})
	if err != nil {
		t.Fatal(err)
	}
	return ct, func() *Dist { return Scatter(m, before) }, m.Transposed()
}

// isolated is the fault plan of an n-cube with every outgoing link of node
// down from t = 0.
func isolated(t *testing.T, node uint64, n int) *FaultPlan {
	t.Helper()
	var rules []FaultRule
	for d := 0; d < n; d++ {
		rules = append(rules, FaultRule{Kind: FaultLinkDown, Link: FaultLink{From: node, Dim: d}})
	}
	fp, err := CompileFaults(FaultSpec{Rules: rules}, n)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}
