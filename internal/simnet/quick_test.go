package simnet

import (
	"math/rand"
	"testing"

	"boolcube/internal/fabric"
	"boolcube/internal/machine"
)

// Randomized determinism: arbitrary (deterministically seeded) programs of
// exchanges, copies and advances must produce byte-identical stats on every
// run, independent of goroutine scheduling.
func TestRandomProgramDeterminism(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		run := func() (fabric.Stats, []fabric.LinkLoad) {
			n := int(seed%4) + 1
			e, err := New(n, machine.Ideal(machine.PortModel(seed%2)))
			if err != nil {
				t.Fatal(err)
			}
			err = e.Run(func(nd fabric.Node) {
				rng := rand.New(rand.NewSource(seed*1000 + int64(nd.ID())))
				for step := 0; step < 10; step++ {
					switch rng.Intn(3) {
					case 0:
						d := rng.Intn(n)
						nd.Exchange(d, fabric.Msg{Src: nd.ID(), Data: make([]float64, rng.Intn(8))})
					case 1:
						nd.Copy(rng.Intn(100))
					case 2:
						nd.Advance(float64(rng.Intn(50)))
					}
				}
			})
			// Exchanges on mismatched dims deadlock; with per-node RNGs
			// that is expected for most seeds — both runs must then agree
			// on the error too.
			if err != nil {
				return fabric.Stats{Time: -1}, nil
			}
			return e.Stats(), e.LinkLoads()
		}
		s1, l1 := run()
		s2, l2 := run()
		if s1 != s2 {
			t.Fatalf("seed %d: stats differ:\n%+v\n%+v", seed, s1, s2)
		}
		if len(l1) != len(l2) {
			t.Fatalf("seed %d: link load count differs", seed)
		}
		for i := range l1 {
			if l1[i] != l2[i] {
				t.Fatalf("seed %d: link load %d differs: %+v vs %+v", seed, i, l1[i], l2[i])
			}
		}
	}
}

// Synchronized random exchanges (every node uses the same dim sequence)
// never deadlock and remain deterministic.
func TestSynchronizedRandomExchanges(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		run := func() fabric.Stats {
			n := int(seed%4) + 2
			e, err := New(n, machine.Ideal(machine.NPort))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			dims := make([]int, 20)
			sizes := make([]int, 20)
			for i := range dims {
				dims[i] = rng.Intn(n)
				sizes[i] = rng.Intn(16)
			}
			err = e.Run(func(nd fabric.Node) {
				for i, d := range dims {
					nd.Exchange(d, fabric.Msg{Src: nd.ID(), Data: make([]float64, sizes[i])})
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			return e.Stats()
		}
		if a, b := run(), run(); a != b {
			t.Fatalf("seed %d: %+v vs %+v", seed, a, b)
		}
	}
}

func TestLinkLoads(t *testing.T) {
	e, err := New(2, machine.Ideal(machine.NPort))
	if err != nil {
		t.Fatal(err)
	}
	err = e.Run(func(nd fabric.Node) {
		if nd.ID() == 0 {
			nd.Send(0, fabric.Msg{Data: make([]float64, 5)})
			nd.Send(1, fabric.Msg{Data: make([]float64, 3)})
		}
		if nd.ID() == 1 {
			nd.Recv(0)
		}
		if nd.ID() == 2 {
			nd.Recv(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	loads := e.LinkLoads()
	if len(loads) != 2 {
		t.Fatalf("got %d loaded links, want 2", len(loads))
	}
	if loads[0].From != 0 || loads[0].Dim != 0 || loads[0].Bytes != 5 || loads[0].To() != 1 {
		t.Errorf("load[0] = %+v", loads[0])
	}
	if loads[1].From != 0 || loads[1].Dim != 1 || loads[1].Bytes != 3 || loads[1].To() != 2 {
		t.Errorf("load[1] = %+v", loads[1])
	}
}
