package field

import "fmt"

// This file classifies the interprocessor communication implied by a
// transposition from one layout to another, following Sections 2, 5 and 6 of
// the paper. The before-layout describes the P x Q matrix A; the
// after-layout describes the Q x P matrix A^T. Both R_b and R_a are
// expressed as sets of bit positions of the ORIGINAL (before) address space,
// mapping the after-layout's positions through the transpose permutation
// tr(u||v) = (v||u).

// Pattern is the communication class of a transposition.
type Pattern int

const (
	// LocalOnly means no interprocessor communication is needed (e.g. a
	// vector transposition, or identical real fields with matching roles).
	LocalOnly Pattern = iota
	// Pairwise means communication only between distinct source/destination
	// pairs x <-> tr(x) (two-dimensional square partitioning, Section 6.1).
	Pairwise
	// AllToAll is all-to-all personalized communication (Section 5): I is
	// empty and the same number of processors is used before and after.
	AllToAll
	// SomeToAll is 2^l-to-2^{l+k} personalized communication: k splitting
	// steps plus l all-to-all steps (Section 3.3, Table 3).
	SomeToAll
	// AllToSome is the reverse: k accumulation steps plus l all-to-all steps.
	AllToSome
	// General covers non-empty I with differing fields (treated in the
	// companion paper [4]; composed of the other operation types).
	General
)

func (p Pattern) String() string {
	switch p {
	case LocalOnly:
		return "local-only"
	case Pairwise:
		return "pairwise"
	case AllToAll:
		return "all-to-all"
	case SomeToAll:
		return "some-to-all"
	case AllToSome:
		return "all-to-some"
	default:
		return "general"
	}
}

// TrBit maps bit position i of the transposed (Q x P) address space to the
// corresponding bit position of the original (P x Q) address space. The
// transposed address is (v || u) with u occupying the low p bits, so new bit
// i < p is u_i (original position q+i) and new bit i >= p is v_{i-p}
// (original position i-p).
func TrBit(i, p, q int) int {
	if i < p {
		return q + i
	}
	return i - p
}

// Classification describes the communication required by a transposition.
type Classification struct {
	Pattern Pattern
	RB      []int // real bits before, original coordinates, ascending
	RA      []int // real bits after, mapped to original coordinates, ascending
	I       []int // RB ∩ RA
	K       int   // | |RB| - |RA| | : splitting or accumulation steps
	L       int   // min(|RB|, |RA|) : all-to-all steps
}

// Classify determines the communication pattern of transposing a matrix
// stored under `before` (a P x Q layout) into `after` (a Q x P layout).
// A pair whose shapes are not transposes of each other (after.P must equal
// before.Q and after.Q equal before.P) is refused with an error.
func Classify(before, after Layout) (Classification, error) {
	if after.P != before.Q || after.Q != before.P {
		return Classification{}, fmt.Errorf("field: classify needs transposed shapes, got %dx%d -> %dx%d",
			before.P, before.Q, after.P, after.Q)
	}
	rb := before.RealBits()
	raRaw := after.RealBits()
	// after's bits live in the transposed address space; map each back to
	// original coordinates through tr with the before-shape (p, q).
	ra := make([]int, 0, len(raRaw))
	for _, b := range raRaw {
		ra = append(ra, TrBit(b, before.P, before.Q))
	}
	sortInts(ra)

	inter := intersect(rb, ra)
	c := Classification{RB: rb, RA: ra, I: inter}
	c.K = abs(len(rb) - len(ra))
	c.L = min(len(rb), len(ra))

	switch {
	case len(rb) == 0 && len(ra) == 0:
		c.Pattern = LocalOnly
	case len(inter) == len(rb) && len(inter) == len(ra):
		// Identical real bit sets before and after: distinct pairwise
		// exchanges x <-> tr(x) (possibly with x == tr(x) local cases).
		c.Pattern = Pairwise
	case len(inter) == 0 && len(rb) == len(ra):
		c.Pattern = AllToAll
	case len(inter) == 0 && len(rb) < len(ra):
		c.Pattern = SomeToAll
	case len(inter) == 0 && len(rb) > len(ra):
		c.Pattern = AllToSome
	default:
		c.Pattern = General
	}
	return c, nil
}

func intersect(a, b []int) []int {
	set := make(map[int]bool, len(a))
	for _, x := range a {
		set[x] = true
	}
	var out []int
	for _, x := range b {
		if set[x] {
			out = append(out, x)
		}
	}
	sortInts(out)
	return out
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
