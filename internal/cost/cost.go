// Package cost implements the paper's closed-form complexity estimates, so
// the benchmark harness can print paper-predicted curves next to simulated
// measurements. All data volumes are in bytes, all times in µs; t_c and
// t_copy are per byte, matching machine.Params.
//
// Formula index:
//   - Section 3.1: one-to-all personalized communication (SBT, n-port trees)
//   - Section 3.2: all-to-all personalized communication (exchange, SBnT)
//   - Section 3.3 / Table 3: some-to-all personalized communication
//   - Section 6.1: SPT, DPT and MPT (Theorem 2), lower bound (Theorem 3)
//   - Section 8.1: iPSC one-dimensional transpose, unbuffered and buffered
//   - Section 8.2.1: iPSC two-dimensional SPT estimate
//   - Section 9: one- vs two-dimensional comparison and break-even point
package cost

import (
	"fmt"
	"math"

	"boolcube/internal/machine"
)

func ceilDiv(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return math.Ceil(a / b)
}

// nodesOf returns the node count N = 2^n, bounding the cube dimension so
// the shift stays below word size for any caller-supplied n.
func nodesOf(n int) float64 {
	if n < 0 || n > 62 {
		panic(fmt.Sprintf("cost: cube dimension %d out of range [0,62]", n))
	}
	return float64(int64(1) << uint(n))
}

// OneToAllSBT returns T_min for one-port SBT routing of M bytes from one
// node to all N = 2^n (Section 3.1): (1 - 1/N)·M·t_c + n·τ.
func OneToAllSBT(M float64, n int, p machine.Params) float64 {
	N := nodesOf(n)
	return (1-1/N)*M*p.Tc + float64(n)*p.Tau
}

// OneToAllNPort returns T_min for n-port routing over n rotated SBTs or a
// SBnT: (1/n)(1 - 1/N)·M·t_c + n·τ.
func OneToAllNPort(M float64, n int, p machine.Params) float64 {
	N := nodesOf(n)
	return (1-1/N)*M*p.Tc/float64(n) + float64(n)*p.Tau
}

// OneToAllLowerBound returns the one-port lower bound
// max((1-1/N)M·t_c, nτ).
func OneToAllLowerBound(M float64, n int, p machine.Params) float64 {
	N := nodesOf(n)
	return math.Max((1-1/N)*M*p.Tc, float64(n)*p.Tau)
}

// AllToAllExchange returns the one-port standard exchange time for M total
// bytes over an n-cube: n·(M/(2N))·t_c + n·ceil(M/(2N·B_m))·τ
// (Section 3.2), with T_min = n(M/(2N)·t_c + τ) once B_m >= M/(2N).
func AllToAllExchange(M float64, n int, p machine.Params) float64 {
	N := nodesOf(n)
	startups := 1.0
	if p.Bm > 0 {
		startups = ceilDiv(M/(2*N), float64(p.Bm))
	}
	return float64(n) * (M/(2*N)*p.Tc + startups*p.Tau)
}

// AllToAllSBnT returns the n-port SBnT time M/(2N)·t_c + nτ (Section 3.2).
func AllToAllSBnT(M float64, n int, p machine.Params) float64 {
	N := nodesOf(n)
	return M/(2*N)*p.Tc + float64(n)*p.Tau
}

// SomeToAllOnePort returns the Table 3 one-port estimate for k splitting
// steps and l all-to-all steps on M total bytes:
// T = (l·M/2^(k+l+1) + Σ_{i=0..k-1} M/2^(k+l-i))·t_c
//   - (l·ceil(M/(B_m·2^(k+l+1))) + Σ ceil(M/(B_m·2^(k+l-i))))·τ.
func SomeToAllOnePort(M float64, k, l int, p machine.Params) float64 {
	bm := float64(p.Bm)
	if p.Bm <= 0 {
		bm = math.Inf(1)
	}
	tc := float64(l) * M / math.Exp2(float64(k+l+1)) * p.Tc
	tau := float64(l) * ceilDiv(M/math.Exp2(float64(k+l+1)), bm) * p.Tau
	for i := 0; i < k; i++ {
		v := M / math.Exp2(float64(k+l-i))
		tc += v * p.Tc
		tau += ceilDiv(v, bm) * p.Tau
	}
	return tc + tau
}

// SomeToAllNPort returns the Table 3 n-port estimate.
func SomeToAllNPort(M float64, k, l int, p machine.Params) float64 {
	bm := float64(p.Bm)
	if p.Bm <= 0 {
		bm = math.Inf(1)
	}
	tc := M / math.Exp2(float64(k+l+1)) * p.Tc
	sum := 0.0
	tau := float64(l) * ceilDiv(M/(float64(max(l, 1))*math.Exp2(float64(k+l+1))), bm) * p.Tau
	for i := 0; i < k; i++ {
		v := M / math.Exp2(float64(k+l-i))
		sum += v
		tau += ceilDiv(v/float64(max(k, 1)), bm) * p.Tau
	}
	if k > 0 {
		tc += sum / float64(k) * p.Tc
	}
	return tc + tau
}

// PipelinedPaths returns the generic pipelined path-transpose estimate for
// a pairwise transposition whose per-pair M/N-byte payload is split over k
// edge-disjoint paths of `hops` hops each and pipelined in packets of B
// bytes: (ceil(M/(k·B·N)) + hops - 1)(B·t_c + τ). The Single Path
// Transpose for packet size B (Section 6.1.1) is the (k=1, hops=n) case and
// the Dual Paths Transpose (Section 6.1.2) the (k=2, hops=n) case; route
// systems with longer or shorter paths (mixed-encoding routes, e-cube
// routing) plug in their own hop counts.
func PipelinedPaths(M float64, n, hops, k int, B float64, p machine.Params) float64 {
	N := nodesOf(n)
	return (ceilDiv(M/(float64(k)*N), B) + float64(hops) - 1) * (B*p.Tc + p.Tau)
}

// SPTOpt returns the optimal packet size B_opt = sqrt(M·τ/(N(n-1)t_c)) and
// the minimum time (sqrt(M/N·t_c) + sqrt((n-1)τ))².
func SPTOpt(M float64, n int, p machine.Params) (Bopt, Tmin float64) {
	N := nodesOf(n)
	Bopt = math.Sqrt(M * p.Tau / (N * float64(n-1) * p.Tc))
	s := math.Sqrt(M/N*p.Tc) + math.Sqrt(float64(n-1)*p.Tau)
	return Bopt, s * s
}

// DPTOpt returns B_opt and T_min for the DPT.
func DPTOpt(M float64, n int, p machine.Params) (Bopt, Tmin float64) {
	N := nodesOf(n)
	Bopt = math.Sqrt(M * p.Tau / (2 * N * float64(n-1) * p.Tc))
	s := math.Sqrt(M/(2*N)*p.Tc) + math.Sqrt(float64(n-1)*p.Tau)
	return Bopt, s * s
}

// MPTRegime identifies which case of Theorem 2 applies.
type MPTRegime int

const (
	// MPTStartupBound: n >= sqrt(M t_c / (N τ)).
	MPTStartupBound MPTRegime = iota
	// MPTMidEven: middle band with n/2 even.
	MPTMidEven
	// MPTMidOdd: middle band with n/2 odd.
	MPTMidOdd
	// MPTTransferBound: n <= sqrt(M t_c / (2N τ)).
	MPTTransferBound
)

func (r MPTRegime) String() string {
	switch r {
	case MPTStartupBound:
		return "startup-bound"
	case MPTMidEven:
		return "mid(n/2 even)"
	case MPTMidOdd:
		return "mid(n/2 odd)"
	default:
		return "transfer-bound"
	}
}

// MPT returns the Theorem 2 minimum time for the Multiple Paths Transpose
// of an M-byte matrix on an n-cube, and the regime used.
func MPT(M float64, n int, p machine.Params) (float64, MPTRegime) {
	N := nodesOf(n)
	nf := float64(n)
	hi := math.Sqrt(M * p.Tc / (N * p.Tau))
	lo := math.Sqrt(M * p.Tc / (2 * N * p.Tau))
	switch {
	case nf >= hi:
		return (nf+1)*p.Tau + (nf+1)/(2*nf)*M/N*p.Tc, MPTStartupBound
	case nf > lo && (n/2)%2 == 0:
		return (nf/2+3)*p.Tau + (nf+6)/(2*nf+8)*M/N*p.Tc, MPTMidEven
	case nf > lo:
		return (nf/2+2)*p.Tau + (nf+4)/(2*nf+4)*M/N*p.Tc, MPTMidOdd
	default:
		s := math.Sqrt(p.Tau) + math.Sqrt(M*p.Tc/(2*N))
		return s * s, MPTTransferBound
	}
}

// MPTBopt returns the Theorem 2 optimum packet size in bytes.
func MPTBopt(M float64, n int, p machine.Params) float64 {
	N := nodesOf(n)
	nf := float64(n)
	lo := math.Sqrt(M * p.Tc / (2 * N * p.Tau))
	if nf > lo {
		if (n/2)%2 == 0 {
			return math.Ceil(M / (N * (nf + 4)))
		}
		return math.Ceil(M / (N * (nf + 2)))
	}
	return math.Sqrt(M * p.Tau / (2 * N * p.Tc))
}

// TransposeLowerBound returns Theorem 3's bound max(nτ, M/(2N)·t_c), which
// is also the all-to-all personalized communication bound (Section 3.2).
func TransposeLowerBound(M float64, n int, p machine.Params) float64 {
	N := nodesOf(n)
	return math.Max(float64(n)*p.Tau, M/(2*N)*p.Tc)
}

// IPSCTwoDim returns the Section 8.2.1 estimate for the step-by-step SPT on
// the iPSC: T = (M/N·t_c + ceil(M/(B_m·N))·τ)·n + 2·M/N·t_copy.
func IPSCTwoDim(M float64, n int, p machine.Params) float64 {
	N := nodesOf(n)
	return (M/N*p.Tc+ceilDiv(M/N, float64(p.Bm))*p.Tau)*float64(n) + 2*M/N*p.TCopy
}

// IPSCOneDimUnbuffered returns the Section 8.1 unbuffered one-dimensional
// exchange transpose time, with the exact per-step start-up count: step k
// sends 2^k separate runs of M/(2^(k+1)·N) bytes each, so
// T = n·M/(2N)·t_c + Σ_k 2^k·⌈M/(2^(k+1)·N·B_m)⌉·τ. (The paper's closed
// form N + ⌈M/(2B_m N)⌉·min(n, log2⌈M/(B_m N)⌉) − M/(B_m N) is the n >
// log2(M/(B_m N)) approximation of this sum.)
func IPSCOneDimUnbuffered(M float64, n int, p machine.Params) float64 {
	N := nodesOf(n)
	bm := float64(p.Bm)
	startups := 0.0
	for k := 0; k < n; k++ {
		run := M / (math.Exp2(float64(k+1)) * N)
		startups += math.Exp2(float64(k)) * ceilDiv(run, bm)
	}
	return float64(n)*M/(2*N)*p.Tc + startups*p.Tau
}

// IPSCOneDimBuffered returns the Section 8.1 optimally buffered
// one-dimensional exchange transpose time: runs of at least B_copy bytes go
// out directly, smaller runs are copied into one buffer (charging t_copy)
// and sent as a single message.
func IPSCOneDimBuffered(M float64, n int, p machine.Params) float64 {
	N := nodesOf(n)
	bm, bc := float64(p.Bm), float64(p.BCopy)
	startups, copyTime := 0.0, 0.0
	for k := 0; k < n; k++ {
		run := M / (math.Exp2(float64(k+1)) * N)
		if run >= bc {
			startups += math.Exp2(float64(k)) * ceilDiv(run, bm)
		} else {
			copyTime += M / (2 * N) * p.TCopy
			startups += ceilDiv(M/(2*N), bm)
		}
	}
	return float64(n)*M/(2*N)*p.Tc + copyTime + startups*p.Tau
}

// OneDimNPortMin returns the Section 9 n-port one-dimensional minimum
// T = M/(2N)·t_c + nτ.
func OneDimNPortMin(M float64, n int, p machine.Params) float64 {
	return AllToAllSBnT(M, n, p)
}

// OptimalCubeSize returns the cube dimension in [1, maxN] minimizing the
// given time model for an M-byte matrix, with the minimal time. Useful for
// answering the paper's implicit sizing question ("as the matrix size
// increases the transpose time decreases with increased cube size" — until
// start-ups win, Figure 14a).
func OptimalCubeSize(M float64, maxN int, model func(M float64, n int) float64) (bestN int, bestT float64) {
	bestN, bestT = 1, math.Inf(1)
	for n := 1; n <= maxN; n++ {
		if t := model(M, n); t < bestT {
			bestN, bestT = n, t
		}
	}
	return bestN, bestT
}

// BreakEvenN returns the Section 9 approximate break-even processor count
// N ≈ c·r/log2²(r) with r = M·t_c/τ, for a given constant c in (1/2, 1).
func BreakEvenN(M float64, c float64, p machine.Params) float64 {
	r := M * p.Tc / p.Tau
	if r <= 2 {
		return 1
	}
	lg := math.Log2(r)
	return c * r / (lg * lg)
}
