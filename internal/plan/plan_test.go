package plan

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"boolcube/internal/field"
	"boolcube/internal/machine"
	"boolcube/internal/plan/plantest"
)

// Satellite: every algorithm name must round-trip String -> Parse -> String,
// and Auto must parse too.
func TestAlgorithmStringParseRoundTrip(t *testing.T) {
	for _, a := range Algorithms() {
		got, err := ParseAlgorithm(a.String())
		if err != nil {
			t.Fatalf("ParseAlgorithm(%q): %v", a.String(), err)
		}
		if got != a {
			t.Errorf("round trip %v -> %q -> %v", a, a.String(), got)
		}
	}
	if got, err := ParseAlgorithm("auto"); err != nil || got != Auto {
		t.Errorf("ParseAlgorithm(auto) = %v, %v", got, err)
	}
	if _, err := ParseAlgorithm("no-such-algorithm"); err == nil {
		t.Error("unknown name parsed")
	}
	if Algorithm(999).String() != "algorithm(999)" {
		t.Errorf("out-of-range String = %q", Algorithm(999).String())
	}
}

func TestAlgorithmsExcludesAuto(t *testing.T) {
	for _, a := range Algorithms() {
		if a == Auto {
			t.Fatal("Algorithms() lists Auto")
		}
	}
	if len(Algorithms()) != len(specs)-1 {
		t.Errorf("Algorithms() lists %d of %d registry rows", len(Algorithms()), len(specs)-1)
	}
}

// Route lengths: combined routes are at most n hops; naive routes at most
// 2n-2 hops (conversions share the MSB so each conversion is <= n/2-1).
func TestMixedRouteLengths(t *testing.T) {
	n := 8
	h := n / 2
	before := field.TwoDimEncoded(h, h, h, h, field.Binary, field.Gray)
	after := field.TwoDimEncoded(h, h, h, h, field.Binary, field.Gray)
	mv, err := NewMoves(before, after, true)
	if err != nil {
		t.Fatal(err)
	}
	for sp := 0; sp < before.N(); sp++ {
		dsts := mv.Destinations(uint64(sp))
		if len(dsts) == 0 {
			continue
		}
		dst := dsts[0]
		comb := combinedMixedRoute(uint64(sp), dst, n)[0]
		if len(comb) > n {
			t.Fatalf("combined route from %b has %d hops > n", sp, len(comb))
		}
		naive := naiveMixedRoute(uint64(sp), dst, n)[0]
		if len(naive) > 2*n-2 {
			t.Fatalf("naive route from %b has %d hops > 2n-2", sp, len(naive))
		}
	}
}

// GatherRange over every path chunk must tile the full canonical payload.
func TestShareRangeTilesPayload(t *testing.T) {
	for n := 0; n <= 17; n++ {
		for k := 1; k <= 5; k++ {
			off := 0
			for i := 0; i < k; i++ {
				o, sz := ShareRange(n, k, i)
				if o != off {
					t.Fatalf("ShareRange(%d,%d,%d) offset %d, want %d", n, k, i, o, off)
				}
				off += sz
			}
			if off != n {
				t.Fatalf("ShareRange(%d,%d,*) covers %d elements", n, k, off)
			}
		}
	}
}

func sptLayouts() (before, after field.Layout) {
	before = field.TwoDimConsecutive(5, 5, 2, 2, field.Binary)
	after = field.TwoDimConsecutive(5, 5, 2, 2, field.Binary)
	return before, after
}

// The cache must compile once per key and hand back the identical sealed
// plan, including under concurrent access.
func TestCacheSharesPlans(t *testing.T) {
	c := NewCache(8)
	before, after := sptLayouts()
	cfg := Config{Machine: machine.IPSC()}
	first, err := c.Compile(SPT, before, after, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]*Plan, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := c.Compile(SPT, before, after, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = p
		}(i)
	}
	wg.Wait()
	for i, p := range got {
		if p != first {
			t.Fatalf("call %d compiled a different plan", i)
		}
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", c.Len())
	}
	// A different configuration is a different key.
	other, err := c.Compile(SPT, before, after, Config{Machine: machine.Ideal(machine.OnePort)})
	if err != nil {
		t.Fatal(err)
	}
	if other == first {
		t.Error("different machine shared a plan")
	}
}

func TestCacheEvictsFIFO(t *testing.T) {
	c := NewCache(2)
	before, after := sptLayouts()
	algs := []Algorithm{Exchange, SPT, DPT}
	for _, a := range algs {
		if _, err := c.Compile(a, before, after, Config{Machine: machine.IPSC()}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Errorf("cache holds %d entries, want cap 2", c.Len())
	}
}

func TestCacheCachesErrors(t *testing.T) {
	c := NewCache(4)
	// Odd cube dimension: SPT order must fail, and fail identically again.
	before := field.OneDimConsecutiveRows(4, 4, 3, field.Binary)
	after := field.OneDimConsecutiveCols(4, 4, 3, field.Binary)
	_, err1 := c.Compile(ExchangeSPTOrder, before, after, Config{Machine: machine.IPSC()})
	_, err2 := c.Compile(ExchangeSPTOrder, before, after, Config{Machine: machine.IPSC()})
	if err1 == nil || err2 == nil {
		t.Fatal("odd-n SPT order compiled")
	}
	if err1.Error() != err2.Error() {
		t.Errorf("cached error differs: %v vs %v", err1, err2)
	}
}

// The Section 6.1 path systems exist for an even cube dimension only: on an
// odd one the path rows compile to an error, not a panic.
func TestPathSystemsRefuseOddN(t *testing.T) {
	before := field.TwoDimConsecutive(6, 5, 6, 5, field.Binary)
	after := field.TwoDimConsecutive(5, 6, 5, 6, field.Binary)
	for _, alg := range []Algorithm{SPT, DPT, MPT} {
		if _, err := Compile(alg, before, after, Config{Machine: machine.IPSC()}); err == nil || !strings.Contains(err.Error(), "even cube dimension") {
			t.Errorf("%v on an 11-cube: %v, want an even-dimension error", alg, err)
		}
	}
}

// Auto must resolve to a concrete algorithm and pick sensibly: on a
// one-port machine nothing beats the exchange family; on an n-port machine
// with a pairwise layout pair a path algorithm (or SBnT) must win.
func TestChooseResolvesAuto(t *testing.T) {
	before, after := sptLayouts()
	onePort, err := Choose(before, after, Config{Machine: machine.IPSC()})
	if err != nil {
		t.Fatal(err)
	}
	if onePort == Auto {
		t.Fatal("Choose returned Auto")
	}
	if onePort != Exchange && onePort != ExchangeSPTOrder && onePort != SBnT {
		t.Errorf("one-port choice %v is not exchange-shaped", onePort)
	}
	nPort, err := Choose(before, after, Config{Machine: machine.IPSCNPort()})
	if err != nil {
		t.Fatal(err)
	}
	if nPort == Exchange {
		t.Error("n-port pairwise choice fell back to one-port exchange")
	}
	// Compiling Auto must produce the same resolution.
	p, err := Compile(Auto, before, after, Config{Machine: machine.IPSCNPort()})
	if err != nil {
		t.Fatal(err)
	}
	if p.Algorithm() != nPort {
		t.Errorf("Compile(Auto) resolved %v, Choose said %v", p.Algorithm(), nPort)
	}
}

// Every concrete algorithm must price to a positive finite time on a
// layout pair it accepts.
func TestPredictedCostFinite(t *testing.T) {
	for _, a := range Algorithms() {
		b, af, _ := plantest.Pair(a, 5, 5, 4)
		p, err := Compile(a, b, af, Config{Machine: machine.IPSCNPort()})
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		c := p.PredictedCost()
		if math.IsNaN(c) || math.IsInf(c, 0) || c <= 0 {
			t.Errorf("%v: PredictedCost = %v", a, c)
		}
	}
}

// The exchange routes a block by its destination's bits on the phase's
// dimensions alone, so a phase whose move-set leaves them must not compile —
// in particular a phase over no dimensions may only relabel local storage.
func TestPhaseMovesStayInsideItsDimensions(t *testing.T) {
	before, after := sptLayouts()
	p := &Plan{alg: Exchange, before: before, after: after, n: 4}
	mv := MustMoves(before, after, true)
	if err := p.addPhase(mv, []int{3, 2, 1, 0}, false, false); err != nil {
		t.Errorf("full dimension scan refused: %v", err)
	}
	for _, dims := range [][]int{{3, 2, 1}, {}} {
		if err := p.addPhase(mv, dims, false, false); err == nil {
			t.Errorf("transpose accepted as a phase over dimensions %v", dims)
		}
	}
	if err := p.addPhase(MustMoves(before, before, false), nil, false, false); err != nil {
		t.Errorf("identity repartition refused as a zero-dimension phase: %v", err)
	}
	if len(p.phases) != 2 {
		t.Errorf("%d phases recorded, want the 2 accepted ones", len(p.phases))
	}
}

func TestDescribeMentionsAlgorithmAndMachine(t *testing.T) {
	before, after := sptLayouts()
	p, err := Compile(MPT, before, after, Config{Machine: machine.IPSCNPort()})
	if err != nil {
		t.Fatal(err)
	}
	desc := p.Describe()
	for _, want := range []string{"mpt", p.Config().Machine.Name, fmt.Sprintf("n=%d", p.NDims())} {
		if !strings.Contains(desc, want) {
			t.Errorf("Describe() = %q missing %q", desc, want)
		}
	}
}

// A path system's partner of node x is tr(x): a pairwise pair whose
// encodings send x elsewhere is refused at compile time, not run to the
// wrong node.
func TestPathSystemsRefuseForeignPartners(t *testing.T) {
	before := field.CombinedContiguous(4, 4, 2, 1, true, field.Binary)
	after := field.CombinedContiguous(4, 4, 2, 1, false, field.Gray)
	for _, a := range []Algorithm{SPT, DPT, MPT} {
		if _, err := Compile(a, before, after, Config{Machine: machine.IPSC()}); err == nil {
			t.Errorf("%v compiled a pair its paths do not end at", a)
		}
	}
}
