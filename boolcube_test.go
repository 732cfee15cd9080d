package boolcube

import (
	"fmt"
	"testing"

	"boolcube/internal/bits"
	"boolcube/internal/plan/plantest"
)

// Every public algorithm moves its own layout pair (plantest.Pair)
// correctly on every machine model.
func TestTransposeAllAlgorithms(t *testing.T) {
	p, q, n := 4, 4, 4
	machines := []Machine{IPSC(), IPSCNPort(), ConnectionMachine(), Ideal(OnePort), Ideal(NPort)}
	for _, mach := range machines {
		for _, alg := range Algorithms() {
			t.Run(fmt.Sprintf("%s/%s", mach.Name, alg), func(t *testing.T) {
				m := NewIotaMatrix(p, q)
				before, after, transposes := plantest.Pair(alg, p, q, n)
				d := Scatter(m, before)
				res, err := Transpose(d, after, Options{Algorithm: alg, Machine: mach})
				if err != nil {
					t.Fatal(err)
				}
				if verr := res.Dist.Verify(plantest.Want(m, transposes)); verr != nil {
					t.Fatal(verr)
				}
				if res.Stats.Time <= 0 || res.Stats.Startups <= 0 {
					t.Fatalf("implausible stats: %+v", res.Stats)
				}
			})
		}
	}
}

func TestTransposeDefaultsToIPSC(t *testing.T) {
	m := NewIotaMatrix(3, 3)
	before := OneDimConsecutiveRows(3, 3, 2, Binary)
	after := OneDimConsecutiveRows(3, 3, 2, Binary)
	d := Scatter(m, before)
	res, err := Transpose(d, after, Options{Algorithm: Exchange})
	if err != nil {
		t.Fatal(err)
	}
	if verr := res.Dist.Verify(m.Transposed()); verr != nil {
		t.Fatal(verr)
	}
}

func TestTransposeUnknownAlgorithm(t *testing.T) {
	m := NewIotaMatrix(2, 2)
	d := Scatter(m, OneDimCyclicCols(2, 2, 1, Binary))
	if _, err := Transpose(d, OneDimCyclicCols(2, 2, 1, Binary),
		Options{Algorithm: Algorithm(99)}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	// A Strategy outside the four is refused when the plan compiles, not by
	// a node program that has no packaging for it.
	before, after := TwoDimConsecutive(2, 2, 1, 1, Binary), TwoDimConsecutive(2, 2, 1, 1, Binary)
	opt := Options{Algorithm: Exchange, Strategy: Strategy(9)}
	if _, err := Compile(before, after, opt); err == nil {
		t.Error("unknown strategy compiled")
	}
	if _, err := Transpose(Scatter(m, before), after, opt); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestConvertPublicAPI(t *testing.T) {
	m := NewIotaMatrix(4, 4)
	d := Scatter(m, TwoDimConsecutive(4, 4, 1, 1, Binary))
	for _, alg := range []Algorithm{Convert1, Convert2, Convert3} {
		res, err := Transpose(d, TwoDimCyclic(4, 4, 1, 1, Binary), Options{Algorithm: alg, Machine: IPSC()})
		if err != nil {
			t.Fatal(err)
		}
		if verr := res.Dist.Verify(m.Transposed()); verr != nil {
			t.Fatalf("%v: %v", alg, verr)
		}
	}
}

// A before layout that is not exactly two-dimensional consecutive is refused
// when the conversion compiles: a one-field layout must not index past its
// fields and panic, and a cyclic input must not run the fixed dimension
// subsets over a move-set that leaves them, returning a wrong distribution
// with a nil error.
func TestConvertRejectsForeignLayouts(t *testing.T) {
	m := NewIotaMatrix(4, 4)
	for name, before := range map[string]Layout{
		"one field": OneDimConsecutiveRows(4, 4, 2, Binary),
		"cyclic":    TwoDimCyclic(4, 4, 2, 2, Binary),
		"mixed":     TwoDimEncoded(4, 4, 2, 2, Binary, Gray),
	} {
		for _, alg := range []Algorithm{Convert1, Convert2, Convert3} {
			after := TwoDimCyclic(4, 4, 2, 2, Binary)
			if res, err := Transpose(Scatter(m, before), after, Options{Algorithm: alg}); err == nil {
				t.Errorf("%s layout, %v: accepted (result verifies: %v)", name, alg, res.Dist.Verify(m.Transposed()) == nil)
			}
		}
	}
}

func TestClassifyPublic(t *testing.T) {
	for _, c := range []struct {
		before, after Layout
		want          Pattern
	}{
		{OneDimCyclicCols(4, 4, 2, Binary), OneDimCyclicCols(4, 4, 2, Binary), AllToAll},
		{TwoDimCyclic(4, 4, 2, 2, Binary), TwoDimCyclic(4, 4, 2, 2, Binary), Pairwise},
	} {
		if got, err := Classify(c.before, c.after); err != nil || got.Pattern != c.want {
			t.Errorf("%s -> %s: pattern %v, %v; want %v", c.before, c.after, got.Pattern, err, c.want)
		}
	}
	// A pair whose shapes are not transposes is refused, not a panic.
	rows := OneDimConsecutiveRows(3, 2, 2, Binary)
	if _, err := Classify(rows, rows); err == nil {
		t.Error("3x2 rows -> the same layout classified without an error")
	}
}

// permuteRows runs the Permute row on one row of two elements per node of an
// n-cube; holder[x] is the node row x went to.
func permuteRows(t *testing.T, n int, pi []int, mach Machine) (holder []uint64, st Stats) {
	t.Helper()
	before, m := OneDimConsecutiveRows(n, 1, n, Binary), NewIotaMatrix(n, 1)
	after, _ := PermutedDims(before, pi) // binary rows always permute
	res, err := Transpose(Scatter(m, before), after, Options{Algorithm: Permute, Machine: mach})
	if err != nil || res.Dist.Verify(m) != nil {
		t.Fatalf("%v: %v", pi, err)
	}
	holder = make([]uint64, len(res.Dist.Local))
	for x, row := range res.Dist.Local {
		holder[uint64(row[0])/2] = uint64(x)
	}
	return holder, res.Stats
}

// The 0-cube's one node is its own reversal: the data stays put at no cost.
func TestBitReversalPublic(t *testing.T) {
	for _, n := range []int{4, 0} {
		reversal := make([]int, n)
		for p := range reversal {
			reversal[p] = n - 1 - p
		}
		holder, st := permuteRows(t, n, reversal, IPSC())
		for x, at := range holder {
			if n > 0 && at != bits.Reverse(uint64(x), n) {
				t.Fatalf("n=%d: row %04b went to node %04b", n, x, at)
			}
		}
		if n == 0 && st != (Stats{}) || n > 0 && st.Time <= 0 {
			t.Errorf("n=%d: reversal cost %+v, want zero Stats on the 0-cube only", n, st)
		}
	}
}

func TestPermuteDimsShufflePublic(t *testing.T) {
	holder, _ := permuteRows(t, 4, ShufflePermutation(4, 2), Ideal(OnePort))
	for x, at := range holder {
		if at != bits.RotL(uint64(x), 2, 4) {
			t.Fatalf("shuffle: row %04b went to node %04b", x, at)
		}
	}
}

// The public Transpose must agree with the lower bound of Theorem 3 on
// every algorithm and machine.
func TestTheorem3LowerBound(t *testing.T) {
	p, q, n := 5, 5, 4
	for _, mach := range []Machine{IPSC(), IPSCNPort(), Ideal(OnePort), Ideal(NPort)} {
		for _, alg := range []Algorithm{Exchange, SPT, DPT, MPT, SBnT} {
			m := NewIotaMatrix(p, q)
			before := TwoDimConsecutive(p, q, n/2, n/2, Binary)
			after := TwoDimConsecutive(q, p, n/2, n/2, Binary)
			d := Scatter(m, before)
			res, err := Transpose(d, after, Options{Algorithm: alg, Machine: mach, Packets: 4})
			if err != nil {
				t.Fatal(err)
			}
			M := float64(int64(1)<<uint(p+q)) * float64(mach.ElemBytes)
			N := float64(int64(1) << uint(n))
			lb := float64(n) * mach.Tau
			if tr := M / (2 * N) * mach.Tc; tr > lb {
				lb = tr
			}
			if res.Stats.Time < lb-1e-6 {
				t.Errorf("%s/%s: time %v below Theorem 3 bound %v", mach.Name, alg, res.Stats.Time, lb)
			}
		}
	}
}

func TestParseLayoutPublic(t *testing.T) {
	l, err := ParseLayout("2d-cyclic:gray", 5, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if l.NBits() != 4 {
		t.Fatalf("parsed layout has %d dims", l.NBits())
	}
	m := NewIotaMatrix(5, 5)
	d := Scatter(m, l)
	after, err := ParseLayout("2d-cyclic:gray", 5, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Transpose(d, after, Options{Algorithm: Exchange, Machine: IPSC()})
	if err != nil {
		t.Fatal(err)
	}
	if verr := res.Dist.Verify(m.Transposed()); verr != nil {
		t.Fatal(verr)
	}
	if _, err := ParseLayout("bogus", 5, 5, 4); err == nil {
		t.Error("bogus spec accepted")
	}
}
