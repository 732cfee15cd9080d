package main

import (
	"fmt"
	"math/rand"

	"boolcube"
	"boolcube/internal/core"
	"boolcube/internal/plan"
)

// shape is one transposition the replay workloads and the layer probes run:
// a layout pair, an algorithm and a machine, named so that golden.json and
// the reports can refer to it.
type shape struct {
	name          string
	p, q          int
	before, after boolcube.Layout
	opt           boolcube.Options
}

// small shrinks every problem to a 4-cube or so. The smoke test sets it: it
// checks that every workload runs, verifies and reports every metric, not
// what the metrics read.
var small bool

// sized returns full, or tiny when the smoke test has set small.
func sized(full, tiny int) int {
	if small {
		return tiny
	}
	return full
}

// flowShapes are the two flow-kind plans of replay_flow.
//
//	a2a7  SBnT, 1-D consecutive rows, 128x128 on a 7-cube, iPSC n-port:
//	      16,256 flows and 57,344 sends, a genuine all-to-all personalized
//	      communication (every node sends to every other node).
//	mpt8  MPT, 2-D consecutive, 512x512 on an 8-cube, iPSC n-port, four
//	      packets per path: 20,480 sends, pairwise and multi-path.
func flowShapes() []shape {
	a, m, h := sized(7, 4), sized(9, 5), sized(4, 2)
	return []shape{
		{
			name: "a2a7", p: a, q: a,
			before: boolcube.OneDimConsecutiveRows(a, a, a, boolcube.Binary),
			after:  boolcube.OneDimConsecutiveRows(a, a, a, boolcube.Binary),
			opt:    boolcube.Options{Algorithm: boolcube.SBnT, Machine: boolcube.IPSCNPort()},
		},
		{
			name: "mpt8", p: m, q: m,
			before: boolcube.TwoDimConsecutive(m, m, h, h, boolcube.Binary),
			after:  boolcube.TwoDimConsecutive(m, m, h, h, boolcube.Binary),
			opt:    boolcube.Options{Algorithm: boolcube.MPT, Machine: boolcube.IPSCNPort(), Packets: 4},
		},
	}
}

// exchShapes are the three exchange-kind plans of replay_exch.
//
//	exbuf8  Exchange with the Buffered strategy (the Section 8.1 optimum),
//	        1-D consecutive rows, 512x512 on an 8-cube, one-port iPSC.
//	ex2d8   Exchange, 2-D consecutive, 512x512 on an 8-cube, one-port iPSC.
//	mixed6  MixedCombined between binary rows / Gray columns, 128x128 on a
//	        6-cube.
func exchShapes() []shape {
	m, n, h := sized(9, 5), sized(8, 4), sized(4, 2)
	x, xh := sized(7, 4), sized(3, 2)
	return []shape{
		{
			name: "exbuf8", p: m, q: m,
			before: boolcube.OneDimConsecutiveRows(m, m, n, boolcube.Binary),
			after:  boolcube.OneDimConsecutiveRows(m, m, n, boolcube.Binary),
			opt:    boolcube.Options{Algorithm: boolcube.Exchange, Machine: boolcube.IPSC(), Strategy: boolcube.Buffered},
		},
		{
			name: "ex2d8", p: m, q: m,
			before: boolcube.TwoDimConsecutive(m, m, h, h, boolcube.Binary),
			after:  boolcube.TwoDimConsecutive(m, m, h, h, boolcube.Binary),
			opt:    boolcube.Options{Algorithm: boolcube.Exchange, Machine: boolcube.IPSC()},
		},
		{
			name: "mixed6", p: x, q: x,
			before: boolcube.TwoDimEncoded(x, x, xh, xh, boolcube.Binary, boolcube.Gray),
			after:  boolcube.TwoDimEncoded(x, x, xh, xh, boolcube.Binary, boolcube.Gray),
			opt:    boolcube.Options{Algorithm: boolcube.MixedCombined, Machine: boolcube.IPSC()},
		},
	}
}

// planConfig is the plan-shaping half of the shape's options, as the public
// Compile derives it: the key under which plan.Default holds the plan.
func (s shape) planConfig() plan.Config {
	return core.Options{
		Machine: s.opt.Machine, Strategy: s.opt.Strategy,
		Packets: s.opt.Packets, LocalCopies: s.opt.LocalCopies,
	}.PlanConfig()
}

// seededMatrix returns a 2^p x 2^q matrix holding a seeded permutation of
// 0..2^(p+q)-1: every value is distinct, so Verify detects any misplaced
// element exactly, and the contents depend on the seed.
func seededMatrix(p, q int, rng *rand.Rand) *boolcube.Matrix {
	m := boolcube.NewMatrix(p, q)
	for i, v := range rng.Perm(len(m.Data)) {
		m.Data[i] = float64(v)
	}
	return m
}

// prepared is a shape made ready to replay: compiled through the public
// Compile, with a seeded source distribution and the expected transpose.
type prepared struct {
	shape
	ct   *boolcube.CompiledTranspose
	plan *plan.Plan // the same cached plan, for calling the layers directly
	src  *boolcube.Dist
	want *boolcube.Matrix
}

// coldPlanCache replaces the process-wide plan cache with an empty one, so
// that the next Compile of every shape pays the full planning cost. Set-up
// is measured several times per run; without this only the first would be
// cold.
func coldPlanCache() { plan.Default = plan.NewCache(256) }

// prepare builds the matrices, scatters them and compiles every shape. With
// an unchanged plan cache the compiles are hits; call coldPlanCache first to
// measure a cold set-up.
func prepare(shapes []shape, seed int64) ([]prepared, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]prepared, 0, len(shapes))
	for _, s := range shapes {
		m := seededMatrix(s.p, s.q, rng)
		ct, err := boolcube.Compile(s.before, s.after, s.opt)
		if err != nil {
			return nil, fmt.Errorf("%s: compile: %w", s.name, err)
		}
		pl, err := plan.Default.Compile(s.opt.Algorithm, s.before, s.after, s.planConfig())
		if err != nil {
			return nil, fmt.Errorf("%s: plan: %w", s.name, err)
		}
		out = append(out, prepared{
			shape: s, ct: ct, plan: pl,
			src:  boolcube.Scatter(m, s.before),
			want: m.Transposed(),
		})
	}
	return out, nil
}
