// Permute demonstrates Section 7 of the paper: using the general exchange
// algorithm for permutations other than the transpose. It performs the
// bit-reversal permutation (the data reordering of an FFT) and arbitrary
// dimension permutations realized by at most ceil(log2 n) parallel
// swappings (Lemma 15) as the Permute registry row, verifying each against
// the input matrix.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"boolcube"
)

// permute moves the one element each node of an n-cube holds (a 2^n x 1
// matrix in consecutive rows) to the node whose address is its own with the
// bits permuted by pi, and checks the result.
func permute(n int, pi []int) boolcube.Stats {
	before := boolcube.OneDimConsecutiveRows(n, 0, n, boolcube.Binary)
	after, err := boolcube.PermutedDims(before, pi)
	if err != nil {
		log.Fatal(err)
	}
	ct, err := boolcube.Compile(before, after, boolcube.Options{Algorithm: boolcube.Permute, Machine: boolcube.IPSC()})
	if err != nil {
		log.Fatal(err)
	}
	m := boolcube.NewIotaMatrix(n, 0)
	res, err := ct.Execute(boolcube.Scatter(m, before))
	if err != nil {
		log.Fatal(err)
	}
	if err := res.Dist.Verify(m); err != nil {
		log.Fatalf("permutation %v: %v", pi, err)
	}
	return res.Stats
}

func main() {
	const n = 6

	// --- Bit reversal (FFT data reordering) ---
	reversal := make([]int, n)
	for p := range reversal {
		reversal[p] = n - 1 - p
	}
	st := permute(n, reversal)
	fmt.Printf("bit-reversal on a %d-cube: %.1f ms simulated, %d start-ups — verified\n",
		n, st.Time/1000, st.Startups)

	// --- Shuffle sh^2 as a dimension permutation ---
	st = permute(n, boolcube.ShufflePermutation(n, 2))
	fmt.Printf("sh^2 shuffle via parallel swappings: %.1f ms simulated — verified\n", st.Time/1000)

	// --- A random dimension permutation ---
	pi := rand.New(rand.NewSource(42)).Perm(n)
	st = permute(n, pi)
	fmt.Printf("random dimension permutation %v via ≤ %d parallel swappings: %.1f ms — verified\n",
		pi, ceilLog2(n), st.Time/1000)
}

func ceilLog2(n int) int {
	k, s := 0, 1
	for s < n {
		s *= 2
		k++
	}
	return k
}
