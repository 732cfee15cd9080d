package plan

import (
	"sync"
	"testing"

	"boolcube/internal/field"
	"boolcube/internal/machine"
)

func TestDeliveredSpansCoalesce(t *testing.T) {
	d := NewDelivered()
	d.Add(1, 2, 0, 3)
	d.Add(1, 2, 5, 2)
	d.Add(1, 2, 3, 2) // fills the gap: [0,3)+[3,5)+[5,7) -> [0,7)
	spans := d.Spans(1, 2)
	if len(spans) != 1 || spans[0] != (Span{Off: 0, Len: 7}) {
		t.Fatalf("Spans = %v, want [{0 7}]", spans)
	}
	if d.Elems() != 7 {
		t.Fatalf("Elems = %d, want 7", d.Elems())
	}
}

func TestDeliveredOverlapsMergeOnce(t *testing.T) {
	d := NewDelivered()
	d.Add(0, 1, 2, 4)
	d.Add(0, 1, 4, 4) // overlaps [4,6)
	d.Add(0, 1, 0, 1)
	spans := d.Spans(0, 1)
	want := []Span{{Off: 0, Len: 1}, {Off: 2, Len: 6}}
	if len(spans) != 2 || spans[0] != want[0] || spans[1] != want[1] {
		t.Fatalf("Spans = %v, want %v", spans, want)
	}
	if d.Elems() != 7 {
		t.Fatalf("Elems = %d, want 7 (overlap double-counted?)", d.Elems())
	}
	// Pairs are independent.
	if got := d.Spans(1, 0); got != nil {
		t.Fatalf("untouched pair has spans %v", got)
	}
}

// resumePlan compiles a small SPT plan for Remaining tests.
func resumePlan(t *testing.T) *Plan {
	t.Helper()
	n := 4
	before := field.TwoDimConsecutive(4, 4, n/2, n/2, field.Binary)
	after := field.TwoDimConsecutive(4, 4, n/2, n/2, field.Binary)
	p, err := Compile(SPT, before, after, Config{Machine: machine.IPSC()})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRemainingNilIsFullMoveSet(t *testing.T) {
	p := resumePlan(t)
	mv := p.Moves()
	full := p.Remaining(nil)
	elems := 0
	for _, r := range full {
		if r.Off != 0 {
			t.Fatalf("full residual %v does not start at 0", r)
		}
		if r.Len != mv.PayloadLen(r.Src, r.Dst) {
			t.Fatalf("residual %v shorter than payload %d", r, mv.PayloadLen(r.Src, r.Dst))
		}
		elems += r.Len
	}
	// The full residual must cover every element of every node's local array.
	want := p.Before().N() * p.Before().LocalSize()
	if elems != want {
		t.Fatalf("full residual covers %d elements, want %d", elems, want)
	}
}

func TestRemainingComplementsDelivered(t *testing.T) {
	p := resumePlan(t)
	full := p.Remaining(nil)
	d := NewDelivered()
	// Deliver the first pair fully and a middle slice of the second.
	r0, r1 := full[0], full[1]
	d.Add(r0.Src, r0.Dst, 0, r0.Len)
	d.Add(r1.Src, r1.Dst, 1, 1)
	rem := p.Remaining(d)
	for _, r := range rem {
		if r.Src == r0.Src && r.Dst == r0.Dst {
			t.Fatalf("fully delivered pair still has residual %v", r)
		}
	}
	var holes []Residual
	for _, r := range rem {
		if r.Src == r1.Src && r.Dst == r1.Dst {
			holes = append(holes, r)
		}
	}
	if len(holes) != 2 {
		t.Fatalf("punched pair residuals = %v, want 2 holes", holes)
	}
	if holes[0].Off != 0 || holes[0].Len != 1 || holes[1].Off != 2 || holes[1].Len != r1.Len-2 {
		t.Fatalf("holes = %v around delivered [1,2) of [0,%d)", holes, r1.Len)
	}
	// Residual + delivered = full move-set, by element count.
	remElems := 0
	for _, r := range rem {
		remElems += r.Len
	}
	fullElems := 0
	for _, r := range full {
		fullElems += r.Len
	}
	if remElems+d.Elems() != fullElems {
		t.Fatalf("residual %d + delivered %d != full %d", remElems, d.Elems(), fullElems)
	}
}

func TestRemainingEmptyWhenAllDelivered(t *testing.T) {
	p := resumePlan(t)
	d := NewDelivered()
	for _, r := range p.Remaining(nil) {
		d.Add(r.Src, r.Dst, 0, r.Len)
	}
	if rem := p.Remaining(d); len(rem) != 0 {
		t.Fatalf("fully delivered plan still has residuals %v", rem)
	}
}

// TestDirectFlowsConcurrentFirstUse: goroutines racing to the first
// DirectFlows call of one plan — as services sharing the plan cache do —
// all get the one memoized slice (run under -race by the check gate).
func TestDirectFlowsConcurrentFirstUse(t *testing.T) {
	p := resumePlan(t)
	const callers = 8
	got := make([][]Flow, callers)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = p.DirectFlows()
		}()
	}
	wg.Wait()
	if len(got[0]) == 0 {
		t.Fatal("no direct flow")
	}
	for i := range got {
		if &got[i][0] != &got[0][0] {
			t.Fatalf("caller %d got its own spans", i)
		}
	}
}
