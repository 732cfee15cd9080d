package boolcube

import (
	"fmt"
	"testing"
)

func commPayload(src, dst uint64, size int) []float64 {
	d := make([]float64, size)
	for i := range d {
		d[i] = float64(src)*1e6 + float64(dst)*1e3 + float64(i)
	}
	return d
}

func checkCommPayload(t *testing.T, got []float64, src, dst uint64, size int) {
	t.Helper()
	if len(got) != size {
		t.Fatalf("(%d->%d): %d elems, want %d", src, dst, len(got), size)
	}
	for i, v := range got {
		if want := float64(src)*1e6 + float64(dst)*1e3 + float64(i); v != want {
			t.Fatalf("(%d->%d)[%d] = %v, want %v", src, dst, i, v, want)
		}
	}
}

func TestAllToAllPersonalizedPublic(t *testing.T) {
	for _, routing := range []Routing{ExchangeRouting, SBnTRouting} {
		t.Run(fmt.Sprint(routing), func(t *testing.T) {
			n, size := 4, 3
			res, err := AllToAllPersonalized(n, IPSCNPort(), routing, SingleMessage,
				func(s, d uint64) []float64 { return commPayload(s, d, size) })
			if err != nil {
				t.Fatal(err)
			}
			N := uint64(1) << uint(n)
			for x := uint64(0); x < N; x++ {
				for s := uint64(0); s < N; s++ {
					checkCommPayload(t, res.Recv[x][s], s, x, size)
				}
			}
			if res.Stats.Time <= 0 {
				t.Error("no simulated time")
			}
		})
	}
}

// Every tree family delivers each node its share, the root's own included —
// also on the 0-cube, where the root's share is all there is.
func TestOneToAllPersonalizedPublic(t *testing.T) {
	for _, kind := range []TreeKind{SBTTree, RotatedSBTTrees, SBnTTree} {
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			const size = 8
			for _, c := range []struct {
				n    int
				root uint64
			}{{4, 5}, {0, 0}} {
				res, err := OneToAllPersonalized(c.n, IPSC(), kind, c.root,
					func(dst uint64) []float64 { return commPayload(c.root, dst, size) })
				if err != nil {
					t.Fatalf("n=%d: %v", c.n, err)
				}
				for x := uint64(0); x < 1<<uint(c.n); x++ {
					checkCommPayload(t, res.Recv[x][c.root], c.root, x, size)
				}
			}
		})
	}
}

func TestAllToOnePersonalizedPublic(t *testing.T) {
	n, size := 4, 2
	root := uint64(3)
	res, err := AllToOnePersonalized(n, IPSC(), root,
		func(src uint64) []float64 { return commPayload(src, root, size) })
	if err != nil {
		t.Fatal(err)
	}
	for s := uint64(0); s < 1<<uint(n); s++ {
		checkCommPayload(t, res.Recv[root][s], s, root, size)
	}
	if len(res.Recv[0]) != 0 && root != 0 {
		t.Error("non-root node received data")
	}
}

func TestSomeToAllPersonalizedPublic(t *testing.T) {
	n, k, size := 5, 2, 2
	res, err := SomeToAllPersonalized(n, k, IPSC(), SingleMessage,
		func(s, d uint64) []float64 { return commPayload(s, d, size) })
	if err != nil {
		t.Fatal(err)
	}
	N := uint64(1) << uint(n)
	sources := uint64(1) << uint(n-k)
	for x := uint64(0); x < N; x++ {
		if len(res.Recv[x]) != int(sources) {
			t.Fatalf("node %d received from %d sources, want %d", x, len(res.Recv[x]), sources)
		}
		for s := range res.Recv[x] {
			checkCommPayload(t, res.Recv[x][s], s, x, size)
		}
	}
}

func TestAllToSomePersonalizedPublic(t *testing.T) {
	n, k, size := 5, 2, 2
	res, err := AllToSomePersonalized(n, k, IPSC(), SingleMessage,
		func(s, d uint64) []float64 { return commPayload(s, d, size) })
	if err != nil {
		t.Fatal(err)
	}
	N := uint64(1) << uint(n)
	targets := uint64(1) << uint(n-k)
	for x := uint64(0); x < N; x++ {
		if x < targets {
			if len(res.Recv[x]) != int(N) {
				t.Fatalf("target %d received from %d sources, want %d", x, len(res.Recv[x]), N)
			}
			for s := range res.Recv[x] {
				checkCommPayload(t, res.Recv[x][s], s, x, size)
			}
		} else if len(res.Recv[x]) != 0 {
			t.Fatalf("non-target %d holds data", x)
		}
	}
}

func TestPersonalizedRejectsBadArgs(t *testing.T) {
	if _, err := SomeToAllPersonalized(3, 7, IPSC(), SingleMessage, nil); err == nil {
		t.Error("k > n accepted")
	}
	if _, err := AllToSomePersonalized(3, -1, IPSC(), SingleMessage, nil); err == nil {
		t.Error("negative k accepted")
	}
	if _, err := AllToAllPersonalized(3, IPSC(), Routing(9), SingleMessage, nil); err == nil {
		t.Error("unknown routing accepted")
	}
}
