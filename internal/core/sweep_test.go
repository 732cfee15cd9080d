package core

import (
	"fmt"
	"math/rand"
	"testing"

	"boolcube/internal/field"
	"boolcube/internal/machine"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
)

// The grand integration sweep: every storage-form pair of Corollary 6
// (consecutive/cyclic x rows/columns x binary/Gray), transposed by the
// generic exchange and by SBnT routing, on every machine model, verified
// element-exactly.
func TestSweepStorageFormsAllMachines(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	p, q, n := 4, 4, 3
	forms := []struct {
		name string
		mk   func(p, q, n int, e field.Encoding) field.Layout
	}{
		{"cons-rows", field.OneDimConsecutiveRows},
		{"cyc-rows", field.OneDimCyclicRows},
		{"cons-cols", field.OneDimConsecutiveCols},
		{"cyc-cols", field.OneDimCyclicCols},
	}
	machines := []machine.Params{
		machine.IPSC(), machine.IPSCNPort(), machine.ConnectionMachine(),
	}
	m := matrix.NewIota(p, q)
	want := m.Transposed()
	for _, mach := range machines {
		for _, fb := range forms {
			for _, fa := range forms {
				for _, eb := range []field.Encoding{field.Binary, field.Gray} {
					for _, ea := range []field.Encoding{field.Binary, field.Gray} {
						name := fmt.Sprintf("%s/%s(%v)->%s(%v)", mach.Name, fb.name, eb, fa.name, ea)
						before := fb.mk(p, q, n, eb)
						after := fa.mk(q, p, n, ea)
						d := matrix.Scatter(m, before)
						res, err := Transpose(plan.Exchange, d, after, opts(mach))
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if verr := res.Dist.Verify(want); verr != nil {
							t.Fatalf("%s: %v", name, verr)
						}
						d2 := matrix.Scatter(m, before)
						res2, err := Transpose(plan.SBnT, d2, after, opts(mach))
						if err != nil {
							t.Fatalf("%s sbnt: %v", name, err)
						}
						if verr := res2.Dist.Verify(want); verr != nil {
							t.Fatalf("%s sbnt: %v", name, verr)
						}
					}
				}
			}
		}
	}
}

// Random layout pairs: build arbitrary valid layouts (random non-overlapping
// fields, random encodings) and check that the generic exchange transposes
// between them whenever they use the same cube.
func TestSweepRandomLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	randomLayout := func(p, q, n int) field.Layout {
		m := p + q
		for {
			// Pick n distinct bit positions, group consecutive runs into
			// fields with random encodings.
			pos := rng.Perm(m)[:n]
			used := make([]bool, m)
			for _, b := range pos {
				used[b] = true
			}
			var fields []field.Field
			for i := 0; i < m; {
				if !used[i] {
					i++
					continue
				}
				j := i
				for j < m && used[j] {
					j++
				}
				enc := field.Binary
				if rng.Intn(2) == 1 {
					enc = field.Gray
				}
				fields = append(fields, field.Field{Lo: i, Hi: j, Enc: enc})
				i = j
			}
			// Shuffle field order (processor bit significance).
			rng.Shuffle(len(fields), func(a, b int) { fields[a], fields[b] = fields[b], fields[a] })
			l := field.Layout{P: p, Q: q, Name: "random", Fields: fields}
			if l.Validate() == nil {
				return l
			}
		}
	}
	for trial := 0; trial < 25; trial++ {
		p := 2 + rng.Intn(3)
		q := 2 + rng.Intn(3)
		n := 1 + rng.Intn(min(p+q, 4))
		before := randomLayout(p, q, n)
		after := randomLayout(q, p, n)
		m := matrix.NewIota(p, q)
		d := matrix.Scatter(m, before)
		res, err := Transpose(plan.Exchange, d, after, opts(machine.Ideal(machine.OnePort)))
		if err != nil {
			t.Fatalf("trial %d (%s -> %s): %v", trial, before, after, err)
		}
		if verr := res.Dist.Verify(m.Transposed()); verr != nil {
			t.Fatalf("trial %d (%s -> %s): %v", trial, before, after, verr)
		}
	}
}
