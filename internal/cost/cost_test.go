package cost

import (
	"math"
	"testing"

	"boolcube/internal/machine"
)

func TestOneToAllBounds(t *testing.T) {
	p := machine.IPSC()
	for _, n := range []int{2, 4, 6, 10} {
		for _, M := range []float64{1 << 10, 1 << 16, 1 << 20} {
			lb := OneToAllLowerBound(M, n, p)
			sbt := OneToAllSBT(M, n, p)
			np := OneToAllNPort(M, n, p)
			if sbt < lb {
				t.Errorf("n=%d M=%v: SBT %v below lower bound %v", n, M, sbt, lb)
			}
			// One-port SBT is within 2x of the one-port lower bound.
			if sbt > 2*lb+1e-9 {
				t.Errorf("n=%d M=%v: SBT %v above 2x lower bound %v", n, M, sbt, lb)
			}
			// n-port must not exceed one-port.
			if np > sbt+1e-9 {
				t.Errorf("n=%d M=%v: n-port %v above one-port %v", n, M, np, sbt)
			}
		}
	}
}

func TestAllToAllRelations(t *testing.T) {
	p := machine.IPSC()
	for _, n := range []int{2, 4, 8} {
		for _, M := range []float64{1 << 12, 1 << 20} {
			lb := TransposeLowerBound(M, n, p)
			ex := AllToAllExchange(M, n, p)
			sb := AllToAllSBnT(M, n, p)
			if ex < lb || sb < lb {
				t.Errorf("n=%d M=%v: algorithm below lower bound", n, M)
			}
			// SBnT (n-port) <= exchange (one-port).
			if sb > ex+1e-9 {
				t.Errorf("n=%d M=%v: SBnT %v above exchange %v", n, M, sb, ex)
			}
			// SBnT is within 2x of the lower bound.
			if sb > 2*lb+1e-9 {
				t.Errorf("n=%d M=%v: SBnT %v above 2x lower bound %v", n, M, sb, lb)
			}
		}
	}
}

func TestSomeToAllDegeneratesToKnownCases(t *testing.T) {
	p := machine.IPSC()
	M := float64(1 << 18)
	n := 6
	// l = n, k = 0 reduces to all-to-all exchange complexity.
	got := SomeToAllOnePort(M, 0, n, p)
	want := AllToAllExchange(M, n, p)
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("k=0: %v != all-to-all %v", got, want)
	}
	// l = 0, k = n reduces to the one-to-all complexity shape:
	// Σ M/2^(n-i) t_c = (1-1/N) M t_c plus n start-ups when B_m large.
	big := p
	big.Bm = 1 << 30
	got = SomeToAllOnePort(M, n, 0, big)
	want = OneToAllSBT(M, n, big)
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("l=0: %v != one-to-all %v", got, want)
	}
}

func TestSomeToAllNPortNotWorse(t *testing.T) {
	p := machine.IPSCNPort()
	M := float64(1 << 18)
	for k := 1; k <= 4; k++ {
		for l := 1; l <= 4; l++ {
			one := SomeToAllOnePort(M, k, l, p)
			np := SomeToAllNPort(M, k, l, p)
			if np > one+1e-9 {
				t.Errorf("k=%d l=%d: n-port %v above one-port %v", k, l, np, one)
			}
		}
	}
}

func TestSPTOptIsMinimum(t *testing.T) {
	p := machine.IPSC()
	M := float64(1 << 20)
	n := 6
	Bopt, Tmin := SPTOpt(M, n, p)
	if Bopt <= 0 {
		t.Fatal("Bopt not positive")
	}
	// The continuous-form minimum must lower-bound the discrete T over a
	// sweep, and T(Bopt) must be within a small factor of Tmin.
	tAtOpt := PipelinedPaths(M, n, n, 1, Bopt, p)
	if tAtOpt < Tmin-1e-6 {
		t.Errorf("T(Bopt) = %v below analytic minimum %v", tAtOpt, Tmin)
	}
	// The discrete ceil() costs a little over the continuous optimum.
	if tAtOpt > 1.25*Tmin {
		t.Errorf("T(Bopt) = %v not within 25%% of Tmin %v", tAtOpt, Tmin)
	}
	for _, B := range []float64{Bopt / 8, Bopt / 2, 2 * Bopt, 8 * Bopt} {
		if PipelinedPaths(M, n, n, 1, B, p) < tAtOpt-1e-6 {
			t.Errorf("T(%v) beats T(Bopt)", B)
		}
	}
}

func TestDPTHalvesTransfer(t *testing.T) {
	p := machine.IPSC()
	M := float64(1 << 22) // transfer dominated
	n := 4
	_, tspt := SPTOpt(M, n, p)
	_, tdpt := DPTOpt(M, n, p)
	ratio := tspt / tdpt
	if ratio < 1.3 || ratio > 2.1 {
		t.Errorf("DPT speedup = %v, want ≈ 2 for transfer-dominated sizes", ratio)
	}
}

func TestMPTRegimes(t *testing.T) {
	p := machine.IPSC()
	// Startup-bound: large n, small matrix.
	if _, r := MPT(1<<8, 10, p); r != MPTStartupBound {
		t.Errorf("small matrix: regime %v", r)
	}
	// Transfer-bound: small n, huge matrix.
	if _, r := MPT(1<<26, 4, p); r != MPTTransferBound {
		t.Errorf("huge matrix: regime %v", r)
	}
}

func TestMPTBeatsLowerBoundAndSPT(t *testing.T) {
	p := machine.IPSCNPort()
	for _, n := range []int{4, 6, 8, 10} {
		for _, M := range []float64{1 << 12, 1 << 16, 1 << 20, 1 << 24} {
			lb := TransposeLowerBound(M, n, p)
			mpt, regime := MPT(M, n, p)
			if mpt < lb-1e-9 {
				t.Errorf("n=%d M=%v: MPT %v below lower bound %v", n, M, mpt, lb)
			}
			// MPT is within a small constant factor of the lower bound.
			if mpt > 4*lb+1e-9 {
				t.Errorf("n=%d M=%v: MPT %v above 4x lower bound %v", n, M, mpt, lb)
			}
			// In the transfer-bound regime the multiple paths must beat the
			// single path; in start-up-bound regimes MPT pays about one
			// extra start-up ((n+1)τ vs nτ), so only require parity within
			// that slack.
			_, spt := SPTOpt(M, n, p)
			if regime == MPTTransferBound && mpt > spt+1e-9 {
				t.Errorf("n=%d M=%v: MPT %v above SPT %v in transfer-bound regime", n, M, mpt, spt)
			}
			if mpt > spt*(float64(n)+2)/float64(n)+2*p.Tau {
				t.Errorf("n=%d M=%v: MPT %v too far above SPT %v", n, M, mpt, spt)
			}
		}
	}
}

func TestMPTBoptPositive(t *testing.T) {
	p := machine.IPSC()
	for _, n := range []int{4, 6, 8} {
		for _, M := range []float64{1 << 10, 1 << 20} {
			if b := MPTBopt(M, n, p); b <= 0 {
				t.Errorf("n=%d M=%v: Bopt = %v", n, M, b)
			}
		}
	}
}

// Section 8.1: buffered must never exceed unbuffered by more than rounding,
// and for large cubes the unbuffered start-up count explodes (≈ N).
func TestOneDimBufferingComparison(t *testing.T) {
	p := machine.IPSC()
	M := float64(1 << 18)
	for n := 2; n <= 10; n++ {
		un := IPSCOneDimUnbuffered(M, n, p)
		bu := IPSCOneDimBuffered(M, n, p)
		if bu > un*1.05 {
			t.Errorf("n=%d: buffered %v above unbuffered %v", n, bu, un)
		}
	}
	// Unbuffered grows ~linearly in N for fixed M (start-up dominated).
	t8 := IPSCOneDimUnbuffered(M, 8, p)
	t10 := IPSCOneDimUnbuffered(M, 10, p)
	if t10 < 2*t8 {
		t.Errorf("unbuffered not exploding with N: T(8)=%v T(10)=%v", t8, t10)
	}
}

func TestBreakEvenN(t *testing.T) {
	p := machine.IPSC()
	// r = M·tc/τ; for M = 1 MB, r = 1048576/5000 ≈ 210, log2 ≈ 7.7,
	// N ≈ c·210/59 ≈ 2.6 for c = 0.75.
	got := BreakEvenN(1<<20, 0.75, p)
	if got < 1 || got > 10 {
		t.Errorf("break-even N = %v, out of plausible range", got)
	}
	if BreakEvenN(1, 0.75, p) != 1 {
		t.Error("tiny r should clamp to 1")
	}
}

func TestIPSCTwoDimShape(t *testing.T) {
	p := machine.IPSC()
	// For fixed M, T2d first decreases with n (less data per node) only if
	// transfer dominated; with start-ups multiplying by n it eventually
	// grows. Check the U-shape endpoints for a large matrix.
	M := float64(1 << 22)
	small := IPSCTwoDim(M, 2, p)
	mid := IPSCTwoDim(M, 6, p)
	if mid >= small {
		t.Errorf("T2d(6)=%v not below T2d(2)=%v for large M", mid, small)
	}
}

// OptimalCubeSize reproduces the Figure 14a crossover: tiny matrices want
// tiny cubes (start-up bound); large matrices want the biggest cube.
func TestOptimalCubeSize(t *testing.T) {
	p := machine.IPSC()
	model := func(M float64, n int) float64 { return IPSCTwoDim(M, n, p) }
	smallN, _ := OptimalCubeSize(1<<10, 10, model)
	largeN, _ := OptimalCubeSize(1<<24, 10, model)
	if smallN > 2 {
		t.Errorf("1 KB matrix: optimal n = %d, want <= 2", smallN)
	}
	if largeN < 8 {
		t.Errorf("16 MB matrix: optimal n = %d, want >= 8", largeN)
	}
	// Monotone growth of the optimum with matrix size.
	prev := 0
	for _, logM := range []int{10, 14, 18, 22, 26} {
		n, tm := OptimalCubeSize(float64(int64(1)<<uint(logM)), 12, model)
		if n < prev {
			t.Errorf("optimal n not monotone: %d after %d at M=2^%d", n, prev, logM)
		}
		if tm <= 0 {
			t.Errorf("non-positive optimal time at M=2^%d", logM)
		}
		prev = n
	}
}
