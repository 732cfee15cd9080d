package plan

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"boolcube/internal/field"
)

// Every dimension permutation of up to 6 dimensions decomposes into
// parallel swappings that compose to it: exactly one for an involution other
// than the identity, at most ceil(log2 n) otherwise (Lemma 15). ApplyDimPerm
// moves address bit p to bit pi[p]. The bit reversal is §7's one exchange
// pairing dimension i with n-1-i, highest pair first; TestContract's oracle
// contract holds the permute row's Stats to that program.
func TestDimPermStepsRealizePermutation(t *testing.T) {
	if steps, _ := DimPermSteps([]int{5, 4, 3, 2, 1, 0}); fmt.Sprint(steps) != "[[[5 0] [4 1] [3 2]]]" {
		t.Errorf("bit reversal of 6 dimensions: steps %v", steps)
	}
	for n, count, maxSteps := 1, 1, 0; n <= 6; n++ {
		count *= n // n! permutations, numbered in the factorial base
		for 1<<maxSteps < n {
			maxSteps++
		}
		for code := 0; code < count; code++ {
			var pi []int
			free := []int{0, 1, 2, 3, 4, 5}[:n]
			for c, i := code, n; i > 0; c, i = c/i, i-1 {
				pi, free = append(pi, free[c%i]), slices.Delete(free, c%i, c%i+1)
			}
			steps, err := DimPermSteps(pi)
			if err != nil {
				t.Fatal(err)
			}
			pos := make([]int, n) // pos[p] = current position of the content born at p
			involution := true
			for p := range pos {
				pos[p] = p
				involution = involution && pi[pi[p]] == p
			}
			switch identity := slices.Equal(pi, pos); {
			case identity && len(steps) != 0, !identity && involution && len(steps) != 1, len(steps) > maxSteps:
				t.Fatalf("pi=%v: %d steps", pi, len(steps))
			}
			for _, step := range steps {
				used := make(map[int]bool)
				for _, pr := range step { // disjoint pairs swap one after another as at once
					if used[pr[0]] || used[pr[1]] || pr[0] <= pr[1] {
						t.Fatalf("pi=%v: step %v is not a parallel swapping of (higher, lower) pairs", pi, step)
					}
					used[pr[0]], used[pr[1]] = true, true
					for c, at := range pos {
						if at == pr[0] || at == pr[1] {
							pos[c] = pr[0] + pr[1] - at
						}
					}
				}
			}
			if !slices.Equal(pos, pi) {
				t.Fatalf("pi=%v: the steps %v move the contents to %v", pi, steps, pos)
			}
			if x := uint64(code); ApplyDimPerm(x, pi)>>pi[n-1]&1 != x>>(n-1)&1 {
				t.Fatalf("ApplyDimPerm(%b, %v) = %b", x, pi, ApplyDimPerm(x, pi))
			}
		}
	}
}

// Both permutation rows compile only from a before/after pair of the same
// matrix whose move-set is a dimension permutation of the processor
// address, and PermutedDims builds only such pairs.
func TestPermuteRejectsBadInput(t *testing.T) {
	rows, gray := field.OneDimConsecutiveRows(4, 2, 3, field.Binary), field.OneDimConsecutiveRows(4, 2, 3, field.Gray)
	for _, c := range []struct {
		l  field.Layout
		pi []int
	}{{rows, []int{0, 1}}, {rows, []int{0, 0, 1}}, {rows, []int{0, 1, 3}}, {gray, []int{2, 1, 0}}} {
		if _, err := field.PermutedDims(c.l, c.pi); err == nil {
			t.Errorf("PermutedDims permuted %s by %v", c.l, c.pi)
		}
	}
	for name, after := range map[string]field.Layout{
		"binary -> Gray":          gray,
		"a repartitioning":        field.OneDimCyclicRows(4, 2, 3, field.Binary),
		"another processor count": field.OneDimConsecutiveRows(4, 2, 2, field.Binary),
		"the transposed shape":    field.OneDimConsecutiveRows(2, 4, 3, field.Binary),
	} {
		for _, alg := range []Algorithm{Permute, PermuteTwoPhase} {
			if _, err := Compile(alg, rows, after, Config{}); err == nil || !strings.Contains(err.Error(), alg.String()) {
				t.Errorf("%s: Compile(%v) = %v, want an error naming the row", name, alg, err)
			}
		}
	}
}
