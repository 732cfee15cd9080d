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

// A Strategy ExchangeBlocks has no packaging for is refused up front, by
// name, not by a node program.
func TestExchangeRejectsUnknownStrategy(t *testing.T) {
	e := newEngine(t, 2, machine.Ideal(machine.OnePort))
	_, err := AllToAllExchange(e, DescendingDims(2), Strategy(9),
		func(s, d uint64) []float64 { return []float64{1} })
	if err == nil || !strings.Contains(err.Error(), "unknown exchange strategy strategy(9)") {
		t.Errorf("AllToAllExchange with Strategy(9): %v, want a refusal naming it", err)
	}
}

// Every tree family delivers each node its share, the root's own included —
// also on the 0-cube, where the root's share is all there is.
func TestOneToAllCorrectness(t *testing.T) {
	for _, kind := range []TreeKind{KindRotatedSBTs, KindSBnT} {
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

// exchangeSparse runs ExchangeBlocks over dims on every node of e, each
// node x holding one block for every dst with sends(x, dst) and none for
// the other pairs: the block sets of Section 3.3's some-to-all and
// all-to-some. result[x] maps each source to the data x received from it.
func exchangeSparse(t *testing.T, e *simnet.Engine, dims []int, strat Strategy, sends func(src, dst uint64) bool, size int) []map[uint64][]float64 {
	t.Helper()
	N := uint64(e.Nodes())
	result := make([]map[uint64][]float64, N)
	stray := make([]int, N) // blocks a node returned that are not its own
	err := e.Run(func(nd fabric.Node) {
		id := nd.ID()
		var held []Block
		for dst := range N {
			if sends(id, dst) {
				held = append(held, Block{Src: id, Dst: dst, Data: payload(id, dst, size)})
			}
		}
		out := make(map[uint64][]float64)
		for _, b := range ExchangeBlocks(nd, dims, strat, held) {
			if b.Dst != id {
				stray[id]++
				continue
			}
			out[b.Src] = b.Data
		}
		result[id] = out
	})
	if err != nil {
		t.Fatal(err)
	}
	for x, c := range stray {
		if c > 0 {
			t.Fatalf("node %d returned %d blocks addressed elsewhere", x, c)
		}
	}
	return result
}

// Some-to-all (Section 3.3) on the exchange kernel: the sources 0..3 of a
// 4-cube (zero on the split dimensions 3 and 2) each send every node a
// block, and both of Theorem 1's orders deliver them intact.
func TestSomeToAllCorrectness(t *testing.T) {
	for _, splitFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("splitFirst=%v", splitFirst), func(t *testing.T) {
			n, size := 4, 2
			dims := []int{3, 2, 1, 0}
			if !splitFirst {
				dims = []int{1, 0, 3, 2}
			}
			e := newEngine(t, n, machine.Ideal(machine.OnePort))
			got := exchangeSparse(t, e, dims, SingleMessage,
				func(s, d uint64) bool { return s <= 3 }, size)
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

// All-to-some (Section 3.3) on the exchange kernel: every node of a 4-cube
// sends a block to each of the targets 0..3, and both of Theorem 1's orders
// deliver them intact and nothing to the other nodes.
func TestAllToSomeCorrectness(t *testing.T) {
	for _, exchangeFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("exchangeFirst=%v", exchangeFirst), func(t *testing.T) {
			n, size := 4, 2
			dims := []int{3, 2, 1, 0}
			if exchangeFirst {
				dims = []int{1, 0, 3, 2}
			}
			e := newEngine(t, n, machine.Ideal(machine.OnePort))
			got := exchangeSparse(t, e, dims, SingleMessage,
				func(s, d uint64) bool { return d <= 3 }, size)
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
