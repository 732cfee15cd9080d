// Storage demonstrates Corollary 6 and 7 of the paper: transposition
// combined with conversion between the six storage forms — consecutive or
// cyclic assignment by rows or columns, with binary or Gray encodings — is
// always all-to-all (or general) personalized communication realized by the
// same standard exchange algorithm. The example converts one matrix through
// a chain of storage forms, verifying placement after every hop, and prints
// the communication class and cost of each conversion.
package main

import (
	"fmt"
	"log"

	"boolcube"
)

const (
	pBits, qBits = 5, 5
	nCube        = 3
)

func main() {
	m := boolcube.NewIotaMatrix(pBits, qBits)
	mach := boolcube.IPSC()

	// A chain of storage forms; each hop transposes the matrix, so the
	// expected dense content flips every step.
	specs := []string{
		"1d-consecutive-rows",
		"1d-cyclic-rows",
		"1d-consecutive-cols:gray",
		"1d-cyclic-cols",
		"1d-consecutive-rows:gray",
		"1d-consecutive-rows",
	}

	cur, err := boolcube.ParseLayout(specs[0], pBits, qBits, nCube)
	if err != nil {
		log.Fatal(err)
	}
	d := boolcube.Scatter(m, cur)
	want := m
	fmt.Printf("storage-form conversion chain on a %d-cube (%dx%d matrix):\n\n",
		nCube, m.Rows(), m.Cols())

	for _, spec := range specs[1:] {
		after, err := boolcube.ParseLayout(spec, want.Q, want.P, nCube)
		if err != nil {
			log.Fatal(err)
		}
		cls, err := boolcube.Classify(d.Layout, after)
		if err != nil {
			log.Fatal(err)
		}
		res, err := boolcube.Transpose(d, after, boolcube.Options{
			Algorithm: boolcube.Exchange, Machine: mach, Strategy: boolcube.Buffered,
		})
		if err != nil {
			log.Fatal(err)
		}
		want = want.Transposed()
		if verr := res.Dist.Verify(want); verr != nil {
			log.Fatalf("%s -> %s: %v", d.Layout.Name, spec, verr)
		}
		fmt.Printf("%-28s -> %-28s  %-11s  %7.1f ms  %4d start-ups\n",
			d.Layout.Name, after.Name, cls.Pattern.String(), res.Stats.Time/1000, res.Stats.Startups)
		d = res.Dist
	}
	fmt.Println("\nevery hop verified element-exact against the running transpose")
}
