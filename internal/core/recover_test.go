package core

import (
	"reflect"
	"slices"
	"testing"

	"boolcube/internal/field"
	"boolcube/internal/machine"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
)

// Relabel is the one step Recover and a service round take to finish a
// checkpoint: with no dead node it is the residual spans as they are (Phys
// unset, so a link-fault or deadline finish runs exactly those spans); a
// dead span endpoint moves every span onto live hosts.
func TestRelabel(t *testing.T) {
	const n = 4
	before := field.TwoDimConsecutive(3, 3, n/2, n/2, field.Binary)
	after := field.TwoDimConsecutive(3, 3, n/2, n/2, field.Binary)
	p, err := plan.Default.Compile(plan.SPT, before, after, plan.Config{Machine: machine.IPSCNPort()})
	if err != nil {
		t.Fatal(err)
	}
	d := matrix.Scatter(matrix.NewIota(3, 3), before)

	tr, err := Relabel(NewCheckpoint(p, d), n, nil)
	if err != nil || tr.Phys != nil || !reflect.DeepEqual(tr.Spans, p.DirectFlows()) {
		t.Fatalf("no dead node: err %v, Phys set %v, spans equal the direct flows %v",
			err, tr.Phys != nil, reflect.DeepEqual(tr.Spans, p.DirectFlows()))
	}

	const dead = 1
	tr, err = Relabel(NewCheckpoint(p, d), n, []uint64{dead})
	if err != nil || tr.Phys == nil {
		t.Fatalf("dead endpoint %d: err %v, Phys set %v", dead, err, tr.Phys != nil)
	}
	for _, sp := range tr.Spans {
		if tr.Phys(sp.Src) == dead || tr.Phys(sp.Dst) == dead {
			t.Fatalf("span %d->%d still hosted on dead node %d", sp.Src, sp.Dst, dead)
		}
	}
}

// UnionNodes sorts and deduplicates, and a service round's common case —
// no casualty, no quarantine — costs no allocation.
func TestUnionNodes(t *testing.T) {
	if got := UnionNodes([]uint64{5, 1}, []uint64{3, 5, 1}); !slices.Equal(got, []uint64{1, 3, 5}) {
		t.Fatalf("UnionNodes = %v, want [1 3 5]", got)
	}
	var got []uint64
	if allocs := testing.AllocsPerRun(100, func() { got = UnionNodes(nil, []uint64{}) }); allocs != 0 || got != nil {
		t.Fatalf("empty union: %v after %v allocation(s), want nil after none", got, allocs)
	}
}
