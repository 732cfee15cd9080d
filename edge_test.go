package boolcube

import "testing"

// Zero-cost machines (τ = 0 or t_c = 0) must not break the simulation.
func TestDegenerateMachines(t *testing.T) {
	cases := []func(m *Machine){
		func(m *Machine) { m.Tau = 0 },
		func(m *Machine) { m.Tc = 0 },
		func(m *Machine) { m.Tau, m.Tc = 0, 0 },
	}
	for i, mod := range cases {
		mach := Ideal(OnePort)
		mod(&mach)
		m := NewIotaMatrix(3, 3)
		before := OneDimConsecutiveRows(3, 3, 2, Binary)
		after := OneDimConsecutiveRows(3, 3, 2, Binary)
		d := Scatter(m, before)
		res, err := Transpose(d, after, Options{Algorithm: Exchange, Machine: mach})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if verr := res.Dist.Verify(m.Transposed()); verr != nil {
			t.Fatalf("case %d: %v", i, verr)
		}
	}
}

// A trace recorder attached through the public API captures the run.
func TestPublicTrace(t *testing.T) {
	m := NewIotaMatrix(3, 3)
	before := OneDimConsecutiveRows(3, 3, 2, Binary)
	after := OneDimConsecutiveRows(3, 3, 2, Binary)
	d := Scatter(m, before)
	rec := NewTrace()
	_, err := Transpose(d, after, Options{Algorithm: Exchange, Machine: IPSC(), Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Events) == 0 {
		t.Fatal("trace captured nothing")
	}
	sends := 0
	for _, ev := range rec.Events {
		if ev.Kind == "send" {
			sends++
		}
	}
	if sends == 0 {
		t.Error("trace has no send events")
	}
	if g := rec.Gantt(60); len(g) == 0 {
		t.Error("empty gantt")
	}
}
