package core

import (
	"fmt"

	"boolcube/internal/field"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
)

// The Section 6.2 and Section 2/6.3 conversions are compiled plans like
// every transpose (plan.Convert1..3, plan.ConvertEncoding); the entry points
// here only derive the target layout and name the registry row.

// ConvertAlgorithm identifies one of the paper's three algorithms.
type ConvertAlgorithm int

const (
	// Convert1 converts rows, then columns, then transposes globally and
	// locally: 2n communication steps (Section 6.2, algorithm 1).
	Convert1 ConvertAlgorithm = iota + 1
	// Convert2 transposes locally first, converts rows and columns in n
	// steps, then transposes the N small local matrices (algorithm 2).
	Convert2
	// Convert3 pairs dimensions so no pre-transpose is needed: n steps
	// plus a local shuffle when p > 2*nr (algorithm 3).
	Convert3
)

func (a ConvertAlgorithm) String() string { return fmt.Sprintf("algorithm-%d", int(a)) }

// convertRows maps each algorithm to its registry row.
var convertRows = [...]plan.Algorithm{Convert1: plan.Convert1, Convert2: plan.Convert2, Convert3: plan.Convert3}

// ConvertConsecutiveToCyclic transposes a matrix stored under
// TwoDimConsecutive(p, q, nr, nc) into TwoDimCyclic(q, p, nc, nr) on the
// transposed matrix, in the before layout's encoding, using the selected
// algorithm. It requires nr == nc (square processor array) and p >= 2nr,
// q >= 2nc as in the paper; the plan compiler refuses anything else.
func ConvertConsecutiveToCyclic(d *matrix.Dist, alg ConvertAlgorithm, opt Options) (*Result, error) {
	if alg < Convert1 || int(alg) >= len(convertRows) {
		return nil, fmt.Errorf("core: unknown convert algorithm %d", alg)
	}
	b := d.Layout
	if len(b.Fields) != 2 {
		return nil, fmt.Errorf("core: convert needs a two-dimensional consecutive layout, got %s", b)
	}
	after := field.TwoDimCyclic(b.Q, b.P, b.Fields[1].Width(), b.Fields[0].Width(), b.Fields[0].Enc)
	return Transpose(convertRows[alg], d, after, opt)
}

// ConvertEncoding redistributes d into the after layout of the same matrix
// (same shape, same partitioning structure, different encodings) without
// transposing it. The redistribution must be a node permutation — true for
// pure encoding changes of the same fields.
func ConvertEncoding(d *matrix.Dist, after field.Layout, opt Options) (*Result, error) {
	return Transpose(plan.ConvertEncoding, d, after, opt)
}
