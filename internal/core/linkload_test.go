package core

import (
	"slices"
	"testing"

	"boolcube/internal/comm"
	"boolcube/internal/cube"
	"boolcube/internal/fabric"
	"boolcube/internal/field"
	"boolcube/internal/machine"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
	"boolcube/internal/router"
	"boolcube/internal/simnet"
)

// Empirical edge-disjointness: under the SPT the paths of all nodes are
// edge-disjoint, so no directed link may carry more than one node's payload
// (PQ/N elements).
func TestSPTLinkLoadsEdgeDisjoint(t *testing.T) {
	p, q, n := 5, 5, 4
	mach := machine.Ideal(machine.NPort)
	before := field.TwoDimConsecutive(p, q, n/2, n/2, field.Binary)
	after := field.TwoDimConsecutive(q, p, n/2, n/2, field.Binary)
	m := matrix.NewIota(p, q)
	d := matrix.Scatter(m, before)
	res, err := Transpose(plan.SPT, d, after, Options{Machine: mach, Packets: 4})
	if err != nil {
		t.Fatal(err)
	}
	perNode := int64(before.LocalSize() * mach.ElemBytes)
	if res.Stats.MaxLinkBytes > perNode {
		t.Errorf("SPT max link bytes %d exceed one node payload %d: paths not edge-disjoint",
			res.Stats.MaxLinkBytes, perNode)
	}
}

// DPT: two paths per node, each carrying half the payload; still
// edge-disjoint, so no link exceeds half a node payload.
func TestDPTLinkLoadsHalved(t *testing.T) {
	p, q, n := 5, 5, 4
	mach := machine.Ideal(machine.NPort)
	before := field.TwoDimConsecutive(p, q, n/2, n/2, field.Binary)
	after := field.TwoDimConsecutive(q, p, n/2, n/2, field.Binary)
	m := matrix.NewIota(p, q)
	d := matrix.Scatter(m, before)
	res, err := Transpose(plan.DPT, d, after, Options{Machine: mach, Packets: 2})
	if err != nil {
		t.Fatal(err)
	}
	half := int64(before.LocalSize()*mach.ElemBytes) / 2
	if res.Stats.MaxLinkBytes > half {
		t.Errorf("DPT max link bytes %d exceed half a node payload %d",
			res.Stats.MaxLinkBytes, half)
	}
}

// MPT: edges are shared only within a ~s class (Lemma 13), each class node
// contributing one path share, so per-link bytes stay at the DPT level or
// below while using 2H(x) paths.
func TestMPTLinkLoadsBounded(t *testing.T) {
	p, q, n := 5, 5, 4
	mach := machine.Ideal(machine.NPort)
	before := field.TwoDimConsecutive(p, q, n/2, n/2, field.Binary)
	after := field.TwoDimConsecutive(q, p, n/2, n/2, field.Binary)
	m := matrix.NewIota(p, q)
	d := matrix.Scatter(m, before)
	res, err := Transpose(plan.MPT, d, after, Options{Machine: mach, Packets: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Per link: the ~s class of size 2^H shares the class's edges; each
	// node routes payload/(2H) per path and an edge carries at most one
	// path-hop per class member pair of cycles — bounded by half a node
	// payload for H >= 1.
	half := int64(before.LocalSize()*mach.ElemBytes) / 2
	if res.Stats.MaxLinkBytes > half {
		t.Errorf("MPT max link bytes %d exceed %d", res.Stats.MaxLinkBytes, half)
	}
}

// Routing-logic transposes concentrate traffic: the max-loaded link must
// carry strictly more than the SPT's bound on a big enough cube, which is
// exactly why the paper's scheduled algorithms win (Figure 14b).
func TestRoutingLogicHotspots(t *testing.T) {
	p, q, n := 5, 5, 6
	mach := machine.Ideal(machine.NPort)
	before := field.TwoDimConsecutive(p, q, n/2, n/2, field.Binary)
	after := field.TwoDimConsecutive(q, p, n/2, n/2, field.Binary)
	m := matrix.NewIota(p, q)

	d1 := matrix.Scatter(m, before)
	spt, err := Transpose(plan.SPT, d1, after, Options{Machine: mach})
	if err != nil {
		t.Fatal(err)
	}
	d2 := matrix.Scatter(m, before)
	ecube, err := Transpose(plan.RoutingLogic, d2, after, Options{Machine: mach})
	if err != nil {
		t.Fatal(err)
	}
	if ecube.Stats.MaxLinkBytes <= spt.Stats.MaxLinkBytes {
		t.Errorf("routing logic max link load %d not above SPT %d",
			ecube.Stats.MaxLinkBytes, spt.Stats.MaxLinkBytes)
	}
}

// rowsTranspose runs the row on the 1-D consecutive-rows transpose of a
// 2^p × 2^q matrix over an n-cube: the all-to-all personalized
// communication of Section 3.2, one block per (source, destination) pair.
func rowsTranspose(t *testing.T, alg plan.Algorithm, p, q, n int, mach machine.Params) *Result {
	t.Helper()
	before := field.OneDimConsecutiveRows(p, q, n, field.Binary)
	after := field.OneDimConsecutiveRows(q, p, n, field.Binary)
	res, err := Transpose(alg, matrix.Scatter(matrix.NewIota(p, q), before), after, Options{Machine: mach})
	if err != nil {
		t.Fatalf("%v: %v", alg, err)
	}
	return res
}

// Section 3.2: with n-port communication and transfer-dominated blocks,
// SBnT all-to-all beats the one-message exchange algorithm, whose t_c term
// is n·K/2 against SBnT's K/2 — by at least 2× on a 6-cube.
func TestSBnTBeatsExchangeNPort(t *testing.T) {
	mach := machine.Ideal(machine.NPort)
	mach.Tau = 0.001 // transfer-dominated
	ex := rowsTranspose(t, plan.Exchange, 9, 9, 6, mach).Stats.Time
	sb := rowsTranspose(t, plan.SBnT, 9, 9, 6, mach).Stats.Time
	if ex/sb < 2 {
		t.Errorf("SBnT %v vs exchange %v: speedup %.2fx, want at least 2x", sb, ex, ex/sb)
	}
}

// SBnT all-to-all balances link load: routing each pair from the base of
// its relative address spreads the traffic over every port, and each of
// the n·N directed links carries the same bytes.
func TestSBnTLinkBalance(t *testing.T) {
	n := 5
	st := rowsTranspose(t, plan.SBnT, 6, 6, n, machine.Ideal(machine.NPort)).Stats
	if links := int64(n << n); st.MaxLinkBytes*links != st.Bytes {
		t.Errorf("SBnT heaviest link carries %d bytes; %d bytes over %d directed links balance at %d",
			st.MaxLinkBytes, st.Bytes, links, st.Bytes/links)
	}
}

// Theorem 1 (Section 3.3) on the registry: the exchange row runs some-to-all
// split-first and all-to-some exchange-first. Each takes the time of the
// standard exchange of the same blocks in that order, strictly below the
// other order's, which moves the same bytes.
func TestExchangeRowTheorem1Order(t *testing.T) {
	const p, q, k, l = 6, 6, 3, 3
	n := k + l
	mach := machine.Ideal(machine.OnePort)
	desc := comm.DescendingDims(n)
	splitFirst, exchangeFirst := desc, slices.Concat(desc[k:], desc[:k])
	for _, c := range []struct {
		name       string
		from, to   int // processor address bits before and after
		fast, slow []int
	}{
		{"some-to-all", l, n, splitFirst, exchangeFirst},
		{"all-to-some", n, l, exchangeFirst, splitFirst},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := field.OneDimConsecutiveRows(p, q, c.from, field.Binary)
			after := field.OneDimConsecutiveRows(q, p, c.to, field.Binary)
			m := matrix.NewIota(p, q)
			res, err := Transpose(plan.Exchange, matrix.Scatter(m, before), after, Options{Machine: mach})
			if err != nil {
				t.Fatal(err)
			}
			if verr := res.Dist.Verify(m.Transposed()); verr != nil {
				t.Fatal(verr)
			}
			// elems[src][dst] counts the elements the transpose moves from
			// src to dst: the block the exchange carries between them.
			elems := make([][]int, 1<<n)
			for src := range elems {
				elems[src] = make([]int, 1<<n)
			}
			for u := range uint64(1 << p) {
				for v := range uint64(1 << q) {
					elems[before.ProcOf(u, v)][after.ProcOf(v, u)]++
				}
			}
			run := func(dims []int) fabric.Stats {
				e, err := simnet.New(n, mach)
				if err != nil {
					t.Fatal(err)
				}
				if err := e.Run(func(nd fabric.Node) {
					var blocks []comm.Block
					for dst, ne := range elems[nd.ID()] {
						if ne > 0 {
							blocks = append(blocks, comm.Block{Src: nd.ID(), Dst: uint64(dst), Data: make([]float64, ne)})
						}
					}
					comm.ExchangeBlocks(nd, dims, comm.SingleMessage, blocks)
				}); err != nil {
					t.Fatal(err)
				}
				return e.Stats()
			}
			fast, slow := run(c.fast), run(c.slow)
			if res.Stats.Time != fast.Time || res.Stats.Bytes != fast.Bytes {
				t.Errorf("exchange row: time %v, %d bytes; the exchange in Theorem 1's order %v: time %v, %d bytes",
					res.Stats.Time, res.Stats.Bytes, c.fast, fast.Time, fast.Bytes)
			}
			if fast.Time >= slow.Time {
				t.Errorf("Theorem 1's order %v takes %v, not below the other order %v's %v", c.fast, fast.Time, c.slow, slow.Time)
			}
			if fast.Bytes != slow.Bytes {
				t.Errorf("the orders move %d and %d bytes, want the same", fast.Bytes, slow.Bytes)
			}
		})
	}
}

// Section 3.1's small-data analysis: splitting a one-to-all scatter over
// two spanning binomial trees, the reflected pairing spreads edge load
// better than no rotation and at least as well as any single tree.
func TestTwoTreeEdgeLoads(t *testing.T) {
	n := 6
	c := cube.New(n)
	N := c.Nodes()

	edgeLoad := func(trees []*cube.Tree) int {
		// Each destination receives one unit over each tree; the load of a
		// tree edge is the subtree size below it. Sum loads per edge
		// across trees.
		load := make(map[cube.Edge]int)
		for _, tr := range trees {
			for x := 0; x < N; x++ {
				if tr.Parent[x] < 0 {
					continue
				}
				p := uint64(tr.Parent[x])
				e := cube.PathEdges(p, []int{dimBetween(p, uint64(x))})[0]
				load[e] += tr.SubtreeSize(uint64(x))
			}
		}
		max := 0
		for _, v := range load {
			if v > max {
				max = v
			}
		}
		return max
	}

	single := edgeLoad([]*cube.Tree{cube.SBT(c, 0), cube.SBT(c, 0)})
	rotated := edgeLoad([]*cube.Tree{cube.SBT(c, 0), cube.RotatedSBT(c, 0, n/2)})
	reflected := edgeLoad([]*cube.Tree{cube.SBT(c, 0), cube.ReflectedSBT(c, 0)})

	if single != N { // two copies of the same tree double the N/2 bottleneck
		t.Errorf("single-tree doubled load = %d, want %d", single, N)
	}
	// Paper (Section 3.1, k=2): reflection yields max N/2 + 1, rotation by
	// n/2 yields N/2 + sqrt(N/2).
	if reflected != N/2+1 {
		t.Errorf("reflected max edge load = %d, want N/2+1 = %d", reflected, N/2+1)
	}
	// The paper's rotation figure N/2 + sqrt(N/2) is approximate; allow
	// rounding slack of a couple of units.
	wantRot := N/2 + isqrt(N/2)
	if rotated < wantRot-2 || rotated > wantRot+2 {
		t.Errorf("rotated max edge load = %d, want ≈ N/2+sqrt(N/2) = %d", rotated, wantRot)
	}
	if !(reflected <= rotated && rotated < single) {
		t.Errorf("load ordering violated: reflected %d, rotated %d, single %d",
			reflected, rotated, single)
	}
}

func dimBetween(a, b uint64) int {
	d := a ^ b
	dim := 0
	for d > 1 {
		d >>= 1
		dim++
	}
	return dim
}

func isqrt(v int) int {
	r := 0
	for (r+1)*(r+1) <= v {
		r++
	}
	return r
}

// The simulator's per-link accounting is consistent: summing LinkLoads
// bytes equals Stats.Bytes.
func TestLinkLoadAccounting(t *testing.T) {
	e, err := simnet.New(3, machine.Ideal(machine.NPort))
	if err != nil {
		t.Fatal(err)
	}
	var flows []router.Flow
	for s := uint64(0); s < 8; s++ {
		d := s ^ 7
		flows = append(flows, router.Flow{Src: s, Dst: d, Dims: router.Ecube(s, d, 3),
			Data: make([]float64, 4)})
	}
	if _, _, err := router.RunRecover(e, flows); err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, l := range e.LinkLoads() {
		sum += l.Bytes
	}
	if sum != e.Stats().Bytes {
		t.Errorf("link loads sum %d != stats bytes %d", sum, e.Stats().Bytes)
	}
}
