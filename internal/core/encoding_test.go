package core

import (
	"testing"

	"boolcube/internal/field"
	"boolcube/internal/machine"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
)

func TestConvertEncoding(t *testing.T) {
	cases := []struct {
		name          string
		before, after field.Layout
	}{
		{
			"1d binary -> gray",
			field.OneDimConsecutiveRows(4, 4, 3, field.Binary),
			field.OneDimConsecutiveRows(4, 4, 3, field.Gray),
		},
		{
			"1d gray -> binary",
			field.OneDimCyclicCols(4, 4, 3, field.Gray),
			field.OneDimCyclicCols(4, 4, 3, field.Binary),
		},
		{
			"2d binary -> gray both fields",
			field.TwoDimConsecutive(4, 4, 2, 2, field.Binary),
			field.TwoDimConsecutive(4, 4, 2, 2, field.Gray),
		},
		{
			"2d mixed -> pure gray",
			field.TwoDimEncoded(4, 4, 2, 2, field.Binary, field.Gray),
			field.TwoDimEncoded(4, 4, 2, 2, field.Gray, field.Gray),
		},
		{
			"identity (no movement)",
			field.TwoDimCyclic(4, 4, 2, 2, field.Gray),
			field.TwoDimCyclic(4, 4, 2, 2, field.Gray),
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := matrix.NewIota(4, 4)
			d := matrix.Scatter(m, c.before)
			res, err := Transpose(plan.ConvertEncoding, d, c.after, opts(machine.IPSC()))
			if err != nil {
				t.Fatal(err)
			}
			if verr := res.Dist.Verify(m); verr != nil {
				t.Fatal(verr)
			}
			if c.name == "identity (no movement)" && res.Stats.Sends != 0 {
				t.Errorf("identity conversion generated %d messages", res.Stats.Sends)
			}
		})
	}
}

// Binary and Gray codes share the most significant bit, so a conversion of
// an n-bit field crosses at most n-1 dimensions (Section 2: "n-1 routing
// steps").
func TestConvertEncodingHopBound(t *testing.T) {
	n := 5
	before := field.OneDimConsecutiveRows(6, 6, n, field.Binary)
	after := field.OneDimConsecutiveRows(6, 6, n, field.Gray)
	pl, err := plan.NewMoves(before, after, false)
	if err != nil {
		t.Fatal(err)
	}
	for sp := 0; sp < before.N(); sp++ {
		for _, dp := range pl.Destinations(uint64(sp)) {
			dist := 0
			rel := uint64(sp) ^ dp
			for rel != 0 {
				dist += int(rel & 1)
				rel >>= 1
			}
			if dist > n-1 {
				t.Fatalf("node %b moves %d hops > n-1", sp, dist)
			}
		}
	}
}

func TestConvertEncodingRejectsBadPairs(t *testing.T) {
	m := matrix.NewIota(4, 4)
	d := matrix.Scatter(m, field.OneDimConsecutiveRows(4, 4, 2, field.Binary))
	// Shape change.
	if _, err := Transpose(plan.ConvertEncoding, d, field.OneDimConsecutiveRows(4, 5, 2, field.Gray),
		opts(machine.IPSC())); err == nil {
		t.Error("shape change accepted")
	}
	// Processor count change.
	if _, err := Transpose(plan.ConvertEncoding, d, field.OneDimConsecutiveRows(4, 4, 3, field.Gray),
		opts(machine.IPSC())); err == nil {
		t.Error("processor count change accepted")
	}
	// Consecutive -> cyclic is all-to-all, not a permutation.
	if _, err := Transpose(plan.ConvertEncoding, d, field.OneDimCyclicRows(4, 4, 2, field.Binary),
		opts(machine.IPSC())); err == nil {
		t.Error("non-permutation repartitioning accepted")
	}
}

// Converting binary->gray->binary round-trips, and conversions can chain
// with transposes: binary -> gray, transpose in gray, convert back.
func TestConvertEncodingComposes(t *testing.T) {
	p, q, n := 4, 4, 4
	m := matrix.NewIota(p, q)
	bin := field.TwoDimConsecutive(p, q, n/2, n/2, field.Binary)
	gry := field.TwoDimConsecutive(p, q, n/2, n/2, field.Gray)
	gryT := field.TwoDimConsecutive(q, p, n/2, n/2, field.Gray)
	binT := field.TwoDimConsecutive(q, p, n/2, n/2, field.Binary)

	d := matrix.Scatter(m, bin)
	r1, err := Transpose(plan.ConvertEncoding, d, gry, opts(machine.IPSC()))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Transpose(plan.Exchange, r1.Dist, gryT, opts(machine.IPSC()))
	if err != nil {
		t.Fatal(err)
	}
	r3, err := Transpose(plan.ConvertEncoding, r2.Dist, binT, opts(machine.IPSC()))
	if err != nil {
		t.Fatal(err)
	}
	if verr := r3.Dist.Verify(m.Transposed()); verr != nil {
		t.Fatal(verr)
	}
	total := r1.Stats.Time + r2.Stats.Time + r3.Stats.Time
	// The combined mixed algorithm should beat the three-phase chain.
	dm := matrix.Scatter(m, bin)
	direct, err := Transpose(plan.Exchange, dm, binT, opts(machine.IPSC()))
	if err != nil {
		t.Fatal(err)
	}
	if direct.Stats.Time >= total {
		t.Errorf("direct transpose (%v) not faster than convert+transpose+convert chain (%v)",
			direct.Stats.Time, total)
	}
}
