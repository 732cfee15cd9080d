package simnet

import (
	"fmt"
	"math"
	"testing"

	"boolcube/internal/fabric"
	"boolcube/internal/machine"
)

func TestPoolSizeClasses(t *testing.T) {
	for _, tc := range []struct{ n, class int }{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1 << 10, 10},
	} {
		if got := classFor(tc.n); got != tc.class {
			t.Errorf("classFor(%d) = %d, want %d", tc.n, got, tc.class)
		}
	}
	for _, tc := range []struct{ c, class int }{
		{0, -1}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3},
		{1 << 24, 24}, {1 << 25, -1},
	} {
		if got := capClass(tc.c); got != tc.class {
			t.Errorf("capClass(%d) = %d, want %d", tc.c, got, tc.class)
		}
	}
}

func TestPoolReuse(t *testing.T) {
	var p bufPool
	a := p.getData(10)
	if len(a) != 10 || cap(a) != 16 {
		t.Fatalf("getData(10): len %d cap %d, want 10/16", len(a), cap(a))
	}
	p.putData(a)
	b := p.getData(12) // same size class: must reuse a's backing array
	if len(b) != 12 || cap(b) != 16 {
		t.Fatalf("getData(12) after put: len %d cap %d, want 12/16", len(b), cap(b))
	}
	if &a[0] != &b[0] {
		t.Error("pool did not reuse the recycled buffer within its size class")
	}
	c := p.getData(10) // pool empty again: fresh allocation
	if &c[0] == &b[0] {
		t.Error("pool handed out a live buffer")
	}

	ps := p.getParts(5)
	if len(ps) != 5 || cap(ps) != 8 {
		t.Fatalf("getParts(5): len %d cap %d, want 5/8", len(ps), cap(ps))
	}
	p.putParts(ps)
	ps2 := p.getParts(6) // same size class (cap 8)
	if &ps[0] != &ps2[0] {
		t.Error("parts pool did not reuse the recycled buffer")
	}
}

func TestPoolRejectsOversized(t *testing.T) {
	var p bufPool
	huge := make([]float64, 1<<maxPoolClass)
	p.putData(huge)
	for c := range p.data {
		if len(p.data[c]) != 0 {
			t.Fatalf("oversized buffer was pooled into class %d", c)
		}
	}
}

// TestRecycleDebugPoison: under SIMNET_DEBUG a recycled payload is filled
// with NaN, so a program that retains an alias past the recycle point reads
// poison instead of silently stale (or someone else's) data.
func TestRecycleDebugPoison(t *testing.T) {
	t.Setenv("SIMNET_DEBUG", "1")
	e, err := New(1, machine.IPSC())
	if err != nil {
		t.Fatal(err)
	}
	retained := make([][]float64, e.Nodes())
	err = e.Run(func(nd fabric.Node) {
		data := nd.AllocData(4)
		for i := range data {
			data[i] = 1.5
		}
		retained[nd.ID()] = data
		nd.Recycle(fabric.Msg{Data: data})
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, data := range retained {
		for i, v := range data[:4] {
			if !math.IsNaN(v) {
				t.Fatalf("node %d: retained[%d] = %v after Recycle, want NaN poison", id, i, v)
			}
		}
	}
}

// TestPoolInvisibleToTiming: recycling buffers must not change virtual time
// or statistics — buffer identity is host-side only — whether the buffers
// stay in one shard's pool or cross between four.
func TestPoolInvisibleToTiming(t *testing.T) {
	run := func(p int, recycle bool) fabric.Stats {
		e, err := New(3, machine.IPSC())
		if err != nil {
			t.Fatal(err)
		}
		e.SetShards(p)
		err = e.Run(func(nd fabric.Node) {
			for d := 0; d < nd.Dims(); d++ {
				nd.Send(d, fabric.Msg{Data: nd.AllocData(32)})
				m := nd.Recv(d)
				if recycle {
					nd.Recycle(m)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return e.Stats()
	}
	want := run(1, false)
	for _, p := range []int{1, 4} {
		for _, recycle := range []bool{false, true} {
			if got := run(p, recycle); got != want {
				t.Fatalf("P=%d recycle=%v changed the run:\n  got:  %+v\n  want: %+v", p, recycle, got, want)
			}
		}
	}
}

// TestPoolCrossShardRecycle: at four shards a buffer allocated in one shard
// and received in another is recycled into the receiving shard's pool, which
// hands it out to that shard's next allocation. Under -race this also holds
// the lock-free per-shard pools to the claim that only one goroutine touches
// each.
func TestPoolCrossShardRecycle(t *testing.T) {
	const elems = 16
	e, err := New(3, machine.IPSC())
	if err != nil {
		t.Fatal(err)
	}
	e.SetShards(4)
	sent := make([]*float64, e.Nodes())
	top := e.Dims() - 1
	err = e.Run(func(fn fabric.Node) {
		nd := fn.(*Node)
		buf := nd.AllocData(elems)
		sent[nd.ID()] = &buf[0]
		nd.Send(top, fabric.Msg{Data: buf})
		m := nd.Recv(top)
		if &m.Data[0] != sent[nd.Neighbor(top)] {
			nd.Fail(fmt.Errorf("node %d: received a buffer its neighbor did not send", nd.ID()))
		}
		nd.Recycle(m)
		again := nd.AllocData(elems)
		if &again[0] != &m.Data[0] {
			nd.Fail(fmt.Errorf("node %d: the recycled buffer was not handed out again by its shard's pool", nd.ID()))
		}
		for i := range again {
			again[i] = float64(i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, nd := range e.nodes {
		if nd.sh == e.nodes[i^1<<uint(top)].sh {
			t.Fatalf("nodes %d and %d share a shard: the exchange did not cross shards", i, i^1<<uint(top))
		}
	}
}
