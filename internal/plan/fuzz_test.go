package plan

import (
	"slices"
	"testing"

	"boolcube/internal/field"
)

// PairFromBytes builds a layout pair from raw bytes — any number of fields,
// any order, any widths, as field's FuzzMapAgrees does: a 2^p x 2^q matrix
// (p, q < 6) before, and its transpose when transpose is set; each three
// bytes of a side are one field's low bit, width and encoding. It is
// exported for FuzzCompileRuns, whose corpus has the same format.
func PairFromBytes(ps, qs uint8, transpose bool, before, after []byte) (b, a field.Layout) {
	layout := func(p, q int, fields []byte) field.Layout {
		l := field.Layout{P: p, Q: q, Name: "fuzz"}
		for ; len(fields) >= 3; fields = fields[3:] {
			lo := int(fields[0]) % 11
			l.Fields = append(l.Fields, field.Field{Lo: lo, Hi: lo + int(fields[1])%4, Enc: field.Encoding(fields[2] % 2)})
		}
		return l
	}
	p, q := int(ps)%6, int(qs)%6
	b, a = layout(p, q, before), layout(p, q, after)
	if transpose {
		a.P, a.Q = q, p
	}
	return b, a
}

// FuzzNewMovesMatchesOracle builds a layout pair from raw bytes
// (PairFromBytes) and holds NewMoves to the per-element oracle. A pair the oracle refuses must
// be refused with the same error. Where the permute row compiles the pair,
// its phases must compose to the move-set.
func FuzzNewMovesMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, ps, qs uint8, transpose bool, before, after []byte) {
		b, a := PairFromBytes(ps, qs, transpose, before, after)
		want, werr := newMovesOracle(b, a, transpose)
		got, err := NewMoves(b, a, transpose)
		if werr != nil || err != nil {
			if werr == nil || err == nil || err.Error() != werr.Error() {
				t.Fatalf("%s -> %s: oracle says %v, NewMoves says %v", b, a, werr, err)
			}
			return
		}
		matchOracle(t, got, want)
		if pl, err := Compile(Permute, b, a, Config{}); err == nil && !transpose {
			// The permute row's phases, intermediate layouts included, carry
			// every node's data where the move-set does.
			hop := func(mv *Moves, x uint64) uint64 { return append(slices.Clone(mv.Destinations(x)), x)[0] }
			for x := uint64(0); x < uint64(b.N()); x++ {
				at := x
				for _, ph := range pl.Phases() {
					at = hop(ph.Moves, at)
				}
				if at != hop(got, x) {
					t.Fatalf("%s -> %s: the permute phases carry node %d to %d, the move-set to %d", b, a, x, at, hop(got, x))
				}
			}
		}
	})
}

// Fuzz the algorithm registry's Parse∘String round-trip: any string the
// parser accepts must re-parse to the same Algorithm from its canonical
// String form, and every registered algorithm's name must be accepted.
func FuzzAlgorithmParseString(f *testing.F) {
	for _, a := range Algorithms() {
		f.Add(a.String())
	}
	f.Add("auto")
	f.Add("")
	f.Add("no-such-algorithm")
	f.Add("MPT") // names are case-sensitive
	f.Fuzz(func(t *testing.T, s string) {
		a, err := ParseAlgorithm(s)
		if err != nil {
			return // rejected input: nothing to round-trip
		}
		name := a.String()
		b, err := ParseAlgorithm(name)
		if err != nil {
			t.Fatalf("ParseAlgorithm(%q) accepted, but canonical name %q rejected: %v", s, name, err)
		}
		if b != a {
			t.Fatalf("round-trip changed the algorithm: %q -> %v -> %q -> %v", s, a, name, b)
		}
	})
}
