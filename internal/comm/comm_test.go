package comm

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"boolcube/internal/fabric"
	"boolcube/internal/machine"
	"boolcube/internal/simnet"
)

// payload encodes (src, dst) identity into the data so delivery errors are
// detectable; size elements per block.
func payload(src, dst uint64, size int) []float64 {
	d := make([]float64, size)
	for i := range d {
		d[i] = float64(src)*1e6 + float64(dst)*1e3 + float64(i)
	}
	return d
}

func checkBlock(t *testing.T, data []float64, src, dst uint64, size int) {
	t.Helper()
	if len(data) != size {
		t.Fatalf("block (%d->%d): %d elems, want %d", src, dst, len(data), size)
	}
	for i, v := range data {
		want := float64(src)*1e6 + float64(dst)*1e3 + float64(i)
		if v != want {
			t.Fatalf("block (%d->%d)[%d] = %v, want %v", src, dst, i, v, want)
		}
	}
}

func newEngine(t *testing.T, n int, p machine.Params) *simnet.Engine {
	t.Helper()
	e, err := simnet.New(n, p)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestAllToAllExchangeCorrectness(t *testing.T) {
	for _, strat := range []Strategy{SingleMessage, Shuffled, Unbuffered, Buffered} {
		for _, ports := range []machine.PortModel{machine.OnePort, machine.NPort} {
			t.Run(fmt.Sprintf("%v/%v", strat, ports), func(t *testing.T) {
				n, size := 4, 3
				e := newEngine(t, n, machine.Ideal(ports))
				got, err := AllToAllExchange(e, DescendingDims(n), strat,
					func(s, d uint64) []float64 { return payload(s, d, size) })
				if err != nil {
					t.Fatal(err)
				}
				N := uint64(e.Nodes())
				for x := uint64(0); x < N; x++ {
					if len(got[x]) != int(N) {
						t.Fatalf("node %d received %d blocks", x, len(got[x]))
					}
					for s := uint64(0); s < N; s++ {
						checkBlock(t, got[x][s], s, x, size)
					}
				}
			})
		}
	}
}

// Buffered strategy on the iPSC must use BCopy: small runs are copied.
func TestBufferedChargesCopies(t *testing.T) {
	n := 4
	p := machine.IPSC()
	e := newEngine(t, n, p)
	// 1 element (4 bytes) per block: every run below 256 bytes is buffered.
	_, err := AllToAllExchange(e, DescendingDims(n), Buffered,
		func(s, d uint64) []float64 { return payload(s, d, 1) })
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats().CopyBytes == 0 {
		t.Error("buffered strategy copied nothing")
	}
	// Unbuffered run for comparison: more start-ups, no copies.
	e2 := newEngine(t, n, p)
	_, err = AllToAllExchange(e2, DescendingDims(n), Unbuffered,
		func(s, d uint64) []float64 { return payload(s, d, 1) })
	if err != nil {
		t.Fatal(err)
	}
	if e2.Stats().CopyBytes != 0 {
		t.Error("unbuffered strategy copied data")
	}
	if e2.Stats().Startups <= e.Stats().Startups {
		t.Errorf("unbuffered start-ups (%d) not above buffered (%d)",
			e2.Stats().Startups, e.Stats().Startups)
	}
}

// Section 3.2: exchange all-to-all with one message per step on a one-port
// machine costs exactly n*(K/2 * tc + τ) where K is the per-node data.
func TestExchangeTimingFormula(t *testing.T) {
	n, size := 4, 8
	e := newEngine(t, n, machine.Ideal(machine.OnePort))
	_, err := AllToAllExchange(e, DescendingDims(n), SingleMessage,
		func(s, d uint64) []float64 { return payload(s, d, size) })
	if err != nil {
		t.Fatal(err)
	}
	N := e.Nodes()
	K := N * size // elements (= bytes on the ideal machine) per node
	want := float64(n) * (float64(K)/2 + 1)
	if got := e.Stats().Time; math.Abs(got-want) > 1e-9 {
		t.Errorf("exchange time = %v, want %v", got, want)
	}
	// Start-ups: n per node... total N*n (each node sends one message per step).
	if got := e.Stats().Startups; got != int64(N*n) {
		t.Errorf("startups = %d, want %d", got, N*n)
	}
}

// Unbuffered start-up doubling: step k sends 2^k messages per node.
func TestUnbufferedStartupCount(t *testing.T) {
	n, size := 3, 4
	e := newEngine(t, n, machine.Ideal(machine.OnePort))
	_, err := AllToAllExchange(e, DescendingDims(n), Unbuffered,
		func(s, d uint64) []float64 { return payload(s, d, size) })
	if err != nil {
		t.Fatal(err)
	}
	// Per node: 1 + 2 + 4 = 7 messages; ideal machine: 1 startup each.
	want := int64(e.Nodes()) * 7
	if got := e.Stats().Startups; got != want {
		t.Errorf("unbuffered startups = %d, want %d", got, want)
	}
}

func TestAllToAllExchangeSubcube(t *testing.T) {
	// Exchange over dims {0, 2} only: 4 independent subcubes in a 4-cube.
	n, size := 4, 2
	e := newEngine(t, n, machine.Ideal(machine.OnePort))
	dims := []int{2, 0}
	got, err := AllToAllExchange(e, dims, SingleMessage,
		func(s, d uint64) []float64 { return payload(s, d, size) })
	if err != nil {
		t.Fatal(err)
	}
	for x := uint64(0); x < uint64(e.Nodes()); x++ {
		if len(got[x]) != 4 {
			t.Fatalf("node %d received %d blocks, want 4", x, len(got[x]))
		}
		for s, data := range got[x] {
			if (s^x)&^uint64(0b0101) != 0 {
				t.Fatalf("node %d got block from outside its subcube: %d", x, s)
			}
			checkBlock(t, data, s, x, size)
		}
	}
}

func TestExchangeRejectsBadDims(t *testing.T) {
	e := newEngine(t, 3, machine.Ideal(machine.OnePort))
	if _, err := AllToAllExchange(e, []int{0, 0}, SingleMessage,
		func(s, d uint64) []float64 { return nil }); err == nil {
		t.Error("duplicate dims accepted")
	}
	e2 := newEngine(t, 3, machine.Ideal(machine.OnePort))
	if _, err := AllToAllExchange(e2, []int{5}, SingleMessage,
		func(s, d uint64) []float64 { return nil }); err == nil {
		t.Error("out-of-range dim accepted")
	}
}

// Every tree family delivers each node its share, the root's own included —
// also on the 0-cube, where the root's share is all there is.
func TestOneToAllCorrectness(t *testing.T) {
	for _, kind := range []TreeKind{KindSBT, KindRotatedSBTs, KindSBnT} {
		for _, c := range []struct {
			n    int
			root uint64
		}{{4, 0}, {4, 5}, {0, 0}} {
			n, root := c.n, c.root
			t.Run(fmt.Sprintf("%v/n=%d/root=%d", kind, n, root), func(t *testing.T) {
				size := 6
				e := newEngine(t, n, machine.Ideal(machine.NPort))
				got, err := OneToAll(e, kind, root, func(dst uint64) []float64 {
					return payload(root, dst, size)
				})
				if err != nil {
					t.Fatal(err)
				}
				for x := uint64(0); x < uint64(e.Nodes()); x++ {
					checkBlock(t, got[x], root, x, size)
				}
			})
		}
	}
}

// Section 3.1: with n-port communication, n rotated SBTs reduce the
// transfer time by ~n/2 over a single SBT.
func TestRotatedSBTsBeatSBT(t *testing.T) {
	n, size := 6, 64
	p := machine.Ideal(machine.NPort)
	p.Tau = 0.001

	e1 := newEngine(t, n, p)
	if _, err := OneToAll(e1, KindSBT, 0, func(dst uint64) []float64 {
		return payload(0, dst, size)
	}); err != nil {
		t.Fatal(err)
	}
	e2 := newEngine(t, n, p)
	if _, err := OneToAll(e2, KindRotatedSBTs, 0, func(dst uint64) []float64 {
		return payload(0, dst, size)
	}); err != nil {
		t.Fatal(err)
	}
	if e2.Stats().Time >= e1.Stats().Time {
		t.Errorf("rotated SBTs (%v) not faster than SBT (%v)",
			e2.Stats().Time, e1.Stats().Time)
	}
}

func TestSomeToAllCorrectness(t *testing.T) {
	for _, splitFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("splitFirst=%v", splitFirst), func(t *testing.T) {
			n := 4
			splitDims := []int{3, 2}
			exchDims := []int{1, 0}
			size := 2
			e := newEngine(t, n, machine.Ideal(machine.OnePort))
			got, err := SomeToAll(e, splitDims, exchDims, SingleMessage, splitFirst,
				func(s, d uint64) []float64 { return payload(s, d, size) })
			if err != nil {
				t.Fatal(err)
			}
			// Sources: nodes 0..3 (zero high bits). Every node must hold
			// one block from the source sharing nothing (its subcube is
			// the whole cube here).
			for x := uint64(0); x < uint64(e.Nodes()); x++ {
				if len(got[x]) != 4 {
					t.Fatalf("node %d received %d blocks, want 4", x, len(got[x]))
				}
				for s, data := range got[x] {
					if s > 3 {
						t.Fatalf("node %d got block from non-source %d", x, s)
					}
					checkBlock(t, data, s, x, size)
				}
			}
		})
	}
}

func TestAllToSomeCorrectness(t *testing.T) {
	for _, exchangeFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("exchangeFirst=%v", exchangeFirst), func(t *testing.T) {
			n := 4
			splitDims := []int{3, 2}
			exchDims := []int{1, 0}
			size := 2
			e := newEngine(t, n, machine.Ideal(machine.OnePort))
			got, err := AllToSome(e, splitDims, exchDims, SingleMessage, exchangeFirst,
				func(s, d uint64) []float64 { return payload(s, d, size) })
			if err != nil {
				t.Fatal(err)
			}
			N := uint64(e.Nodes())
			for x := uint64(0); x < N; x++ {
				if x > 3 {
					if len(got[x]) != 0 {
						t.Fatalf("non-target %d holds %d blocks", x, len(got[x]))
					}
					continue
				}
				if len(got[x]) != int(N) {
					t.Fatalf("target %d received %d blocks, want %d", x, len(got[x]), N)
				}
				for s := uint64(0); s < N; s++ {
					checkBlock(t, got[x][s], s, x, size)
				}
			}
		})
	}
}

// Theorem 1: splitting first minimizes transfer for some-to-all; exchanging
// first minimizes it for all-to-some. Compare total bytes moved.
func TestTheorem1Ordering(t *testing.T) {
	n := 6
	splitDims := []int{5, 4, 3}
	exchDims := []int{2, 1, 0}
	size := 8
	block := func(s, d uint64) []float64 { return payload(s, d, size) }

	run := func(someToAll, optimal bool) fabric.Stats {
		e := newEngine(t, n, machine.Ideal(machine.OnePort))
		var err error
		if someToAll {
			_, err = SomeToAll(e, splitDims, exchDims, SingleMessage, optimal, block)
		} else {
			_, err = AllToSome(e, splitDims, exchDims, SingleMessage, optimal, block)
		}
		if err != nil {
			t.Fatal(err)
		}
		return e.Stats()
	}

	// Both orders move the same total volume; the optimal order wins on
	// elapsed time because the all-to-all then runs on split (smaller)
	// per-node data across 2^k concurrent subcubes.
	s2aOpt, s2aBad := run(true, true), run(true, false)
	if s2aOpt.Bytes != s2aBad.Bytes {
		t.Errorf("some-to-all orders moved different volumes: %d vs %d",
			s2aOpt.Bytes, s2aBad.Bytes)
	}
	if s2aOpt.Time >= s2aBad.Time {
		t.Errorf("some-to-all: split-first time %v not below exchange-first %v",
			s2aOpt.Time, s2aBad.Time)
	}
	a2sOpt, a2sBad := run(false, true), run(false, false)
	if a2sOpt.Time >= a2sBad.Time {
		t.Errorf("all-to-some: exchange-first time %v not below accumulate-first %v",
			a2sOpt.Time, a2sBad.Time)
	}
}

// Bad arguments are refused up front, not by a node program: overlapping
// dimension sets, and a Strategy ExchangeBlocks has no packaging for.
func TestSomeToAllRejectsOverlappingDims(t *testing.T) {
	e := newEngine(t, 3, machine.Ideal(machine.OnePort))
	if _, err := SomeToAll(e, []int{1}, []int{1, 0}, SingleMessage, true,
		func(s, d uint64) []float64 { return nil }); err == nil {
		t.Error("overlapping dim sets accepted")
	}
	one := func(s, d uint64) []float64 { return []float64{1} }
	_, s2a := SomeToAll(newEngine(t, 2, machine.Ideal(machine.OnePort)), []int{1}, []int{0}, Strategy(9), true, one)
	_, a2s := AllToSome(newEngine(t, 2, machine.Ideal(machine.OnePort)), []int{1}, []int{0}, Strategy(9), true, one)
	for op, err := range map[string]error{"SomeToAll": s2a, "AllToSome": a2s} {
		if err == nil || !strings.Contains(err.Error(), "unknown exchange strategy") {
			t.Errorf("%s with an unknown strategy: %v, want a refusal naming it", op, err)
		}
	}
}

func TestSplitDims(t *testing.T) {
	for _, c := range []struct {
		n, k        int
		split, exch string
	}{
		{6, 2, "[5 4]", "[3 2 1 0]"},
		{3, 0, "[]", "[2 1 0]"},
		{3, 3, "[2 1 0]", "[]"},
	} {
		split, exch := SplitDims(c.n, c.k)
		if fmt.Sprint(split) != c.split || fmt.Sprint(exch) != c.exch {
			t.Errorf("SplitDims(%d, %d) = %v, %v; want %s, %s", c.n, c.k, split, exch, c.split, c.exch)
		}
	}
}
