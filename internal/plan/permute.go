package plan

import (
	"fmt"
	mathbits "math/bits"
	"slices"

	"boolcube/internal/comm"
	"boolcube/internal/field"
)

// compilePermute compiles Section 7's use of the general exchange algorithm
// for permutations other than the transpose. The pair must be a dimension
// permutation (dimPermPair). An involution — a bit reversal, the shuffle
// sh^(n/2) — is one parallel swapping and so one phase over its dimension
// pairs, which for the bit reversal is §7's pairing f(i) = i, g(i) = n-1-i
// scanned n-1, 0, n-2, 1, ... Any other pi takes one phase per Lemma 15
// swapping, through the layouts the swappings so far reach. A node
// permutation charges no local copy: it leaves every local array as it is.
func compilePermute(p *Plan) error {
	before, after := p.before, p.after
	mv, pi, err := dimPermPair(p)
	if err != nil {
		return err
	}
	steps, err := DimPermSteps(pi)
	if err != nil {
		return err
	}
	p.moves = mv
	if len(steps) == 0 { // the identity: a phase that relabels nothing
		return p.addPhase(mv, nil, false, false)
	}
	done := make([]int, len(pi)) // done[p]: where the steps so far moved bit p
	for i := range done {
		done[i] = i
	}
	from := before
	for k, step := range steps {
		var dims []int
		for _, pr := range step {
			dims = append(dims, pr[0], pr[1])
		}
		to := after
		if k < len(steps)-1 {
			for i, d := range done {
				for _, pr := range step {
					if d == pr[0] || d == pr[1] {
						done[i] = pr[0] + pr[1] - d
					}
				}
			}
			if to, err = field.PermutedDims(before, done); err != nil {
				return fmt.Errorf("plan: %s: %w", p.alg, err)
			}
		}
		if mv, err = NewMoves(from, to, false); err != nil {
			return err
		}
		if err := p.addPhase(mv, dims, false, false); err != nil {
			return err
		}
		from = to
	}
	return nil
}

// compilePermuteTwoPhase compiles Section 7's generic permutation (citing
// [21, 20]): two rounds of all-to-all personalized communication, each an
// exchange over every dimension, highest first, on the same dimension
// permutation pairs as compilePermute. Round one splits every node's local
// array into N pieces and sends piece j to node j; round two forwards each
// piece to its owner's destination. The rounds meet in the spread layout,
// whose processor address is the top min(n, ℓ) of before's ℓ local-address
// bits — ShareRange's piece index — so with fewer than N elements per node
// element k goes to node k.
func compilePermuteTwoPhase(p *Plan) error {
	mv, _, err := dimPermPair(p)
	if err != nil {
		return err
	}
	p.moves = mv
	v := p.before.VirtualBits()
	m := min(p.n, len(v))
	spread := field.Layout{P: p.before.P, Q: p.before.Q, Name: p.before.Name + "/spread"}
	for t := m - 1; t >= 0; t-- { // processor bit t is local bit v[len(v)-m+t]
		b := v[len(v)-m+t]
		if k := len(spread.Fields) - 1; k >= 0 && spread.Fields[k].Lo == b+1 {
			spread.Fields[k].Lo--
		} else {
			spread.Fields = append(spread.Fields, field.Field{Lo: b, Hi: b + 1})
		}
	}
	from := p.before
	for _, to := range []field.Layout{spread, p.after} {
		if mv, err = NewMoves(from, to, false); err != nil {
			return err
		}
		if err := p.addPhase(mv, comm.DescendingDims(p.n), false, false); err != nil {
			return err
		}
		from = to
	}
	return nil
}

// dimPermPair checks what both permutation rows need — the pair holds the
// same matrix on the same processor count, and its move-set is a dimension
// permutation pi of the processor address: node x sends all of its data to
// ApplyDimPerm(x, pi) — and returns the move-set and pi.
func dimPermPair(p *Plan) (*Moves, []int, error) {
	if a, b := p.after.NBits(), p.before.NBits(); a != b {
		return nil, nil, fmt.Errorf("plan: %s requires the same processor count, got %d and %d cube dimensions", p.alg, b, a)
	}
	mv, err := NewMoves(p.before, p.after, false)
	if err != nil {
		return nil, nil, fmt.Errorf("plan: %s moves the matrix it is given: %w", p.alg, err)
	}
	pi, err := dimPermOf(p.alg, mv, p.n)
	return mv, pi, err
}

// dimPermOf reads the dimension permutation a move-set realizes off the unit
// addresses — node 2^p's destination is 2^pi[p] — and checks that every node
// sends all of its data to ApplyDimPerm(x, pi).
func dimPermOf(alg Algorithm, mv *Moves, n int) ([]int, error) {
	dest := func(x uint64) uint64 {
		switch ds := mv.Destinations(x); {
		case len(ds) == 0:
			return x
		case len(ds) == 1 && mv.PayloadLen(x, x) == 0:
			return ds[0]
		}
		return ^uint64(0) // the node's data splits
	}
	pi := make([]int, n)
	for p := range pi {
		pi[p] = mathbits.TrailingZeros64(dest(1 << uint(p)))
	}
	for x := uint64(0); x < uint64(mv.Before().N()); x++ {
		if dest(x) != ApplyDimPerm(x, pi) {
			return nil, fmt.Errorf("plan: %s needs a dimension permutation of the processor address, but node %d's data does not all go to node %d (binary <-> Gray is convert-encoding)",
				alg, x, ApplyDimPerm(x, pi))
		}
	}
	return pi, nil
}

// ApplyDimPerm returns the address obtained by moving the content of
// address bit p to bit pi[p] for every position.
func ApplyDimPerm(x uint64, pi []int) uint64 {
	var y uint64
	for p, target := range pi {
		y |= (x >> uint(p) & 1) << uint(target)
	}
	return y
}

// DimPermSteps decomposes a dimension permutation pi (content at position p
// moves to position pi[p]) into parallel swappings, composed in order: none
// for the identity, one for any other involution, and at most ceil(log2 n)
// otherwise (Lemma 15). A step lists disjoint (higher, lower) position
// pairs, higher pairs first.
func DimPermSteps(pi []int) ([][][2]int, error) {
	n := len(pi)
	seen := make([]bool, n)
	involution := true
	for p, t := range pi {
		if t < 0 || t >= n || seen[t] {
			return nil, fmt.Errorf("plan: invalid dimension permutation %v", pi)
		}
		seen[t] = true
		involution = involution && pi[t] == p
	}
	var steps [][][2]int
	addStep := func(step [][2]int) {
		if len(step) > 0 {
			slices.SortFunc(step, func(a, b [2]int) int { return b[0] - a[0] })
			steps = append(steps, step)
		}
	}
	if involution {
		var step [][2]int
		for p, t := range pi {
			if t < p {
				step = append(step, [2]int{p, t})
			}
		}
		addStep(step)
		return steps, nil
	}
	// Pad to a power of two with fixed positions.
	size := 1
	for size < n {
		size *= 2
	}
	cur := make([]int, size) // cur[p] = target of the content now at p
	for p := range cur {
		cur[p] = p
		if p < n {
			cur[p] = pi[p]
		}
	}
	// Recursive halving: at each level, swap the contents that must cross
	// between sibling halves, for all sibling pairs at that level at once
	// (they are disjoint, so they form one parallel swapping). A padded
	// position's content is already home, so it never crosses.
	for half := size / 2; half >= 1; half /= 2 {
		var step [][2]int
		for base := 0; base < size; base += 2 * half {
			lo, hi := base, base+half
			var xs, ys []int
			for p := lo; p < hi; p++ {
				if cur[p] >= hi && cur[p] < hi+half {
					xs = append(xs, p)
				}
				if cur[p+half] >= lo && cur[p+half] < hi {
					ys = append(ys, p+half)
				}
			}
			if len(xs) != len(ys) {
				return nil, fmt.Errorf("plan: internal decomposition error")
			}
			for i := range xs {
				step = append(step, [2]int{ys[i], xs[i]})
				cur[xs[i]], cur[ys[i]] = cur[ys[i]], cur[xs[i]]
			}
		}
		addStep(step)
	}
	return steps, nil
}
