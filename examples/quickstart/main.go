// Quickstart: distribute a 32x32 matrix over a 16-processor simulated
// hypercube, transpose it with two different algorithms, and compare the
// simulated communication cost.
package main

import (
	"fmt"
	"log"

	"boolcube"
)

func main() {
	const p, q, n = 5, 5, 4 // 32x32 matrix, 2^4 processors

	m := boolcube.NewIotaMatrix(p, q)
	before := boolcube.TwoDimConsecutive(p, q, n/2, n/2, boolcube.Binary)
	after := boolcube.TwoDimConsecutive(q, p, n/2, n/2, boolcube.Binary)

	fmt.Printf("transposing a %dx%d matrix on a %d-cube (%d processors)\n",
		m.Rows(), m.Cols(), n, 1<<n)
	cls, err := boolcube.Classify(before, after)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("communication pattern: %v\n\n", cls.Pattern)

	for _, cfg := range []struct {
		alg  boolcube.Algorithm
		mach boolcube.Machine
	}{
		{boolcube.Exchange, boolcube.IPSC()},
		{boolcube.SPT, boolcube.IPSC()},
		{boolcube.MPT, boolcube.IPSCNPort()},
	} {
		d := boolcube.Scatter(m, before)
		res, err := boolcube.Transpose(d, after, boolcube.Options{
			Algorithm: cfg.alg,
			Machine:   cfg.mach,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := res.Dist.Verify(m.Transposed()); err != nil {
			log.Fatalf("%v: wrong result: %v", cfg.alg, err)
		}
		fmt.Printf("%-10s on %-11s: %8.2f ms simulated, %4d start-ups, %6d bytes moved\n",
			cfg.alg, cfg.mach.Name, res.Stats.Time/1000, res.Stats.Startups, res.Stats.Bytes)
	}
	fmt.Println("\nall results verified element-exact against the dense transpose")
}
