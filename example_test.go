package boolcube_test

import (
	"fmt"

	"boolcube"
)

// ExampleTranspose demonstrates the basic workflow: distribute, transpose,
// verify, inspect cost.
func ExampleTranspose() {
	m := boolcube.NewIotaMatrix(4, 4) // 16x16 matrix
	before := boolcube.TwoDimConsecutive(4, 4, 1, 1, boolcube.Binary)
	after := boolcube.TwoDimConsecutive(4, 4, 1, 1, boolcube.Binary)

	d := boolcube.Scatter(m, before)
	res, err := boolcube.Transpose(d, after, boolcube.Options{
		Algorithm: boolcube.MPT,
		Machine:   boolcube.Ideal(boolcube.NPort),
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("verified:", res.Dist.Verify(m.Transposed()) == nil)
	fmt.Println("start-ups:", res.Stats.Startups)
	// Output:
	// verified: true
	// start-ups: 8
}

// ExampleClassify shows the communication-pattern classification of
// Section 2 of the paper.
func ExampleClassify() {
	oneDim := boolcube.OneDimConsecutiveRows(5, 5, 3, boolcube.Binary)
	twoDim := boolcube.TwoDimCyclic(5, 5, 2, 2, boolcube.Gray)

	c1, _ := boolcube.Classify(oneDim, boolcube.OneDimConsecutiveRows(5, 5, 3, boolcube.Binary))
	c2, _ := boolcube.Classify(twoDim, boolcube.TwoDimCyclic(5, 5, 2, 2, boolcube.Gray))
	fmt.Println("1-D partitioning:", c1.Pattern)
	fmt.Println("2-D partitioning:", c2.Pattern)
	// Output:
	// 1-D partitioning: all-to-all
	// 2-D partitioning: pairwise
}

// ExampleSimulate runs a custom two-node program on the simulated machine.
func ExampleSimulate() {
	stats, err := boolcube.Simulate(1, boolcube.Ideal(boolcube.OnePort), func(nd boolcube.Node) {
		reply := nd.Exchange(0, boolcube.Msg{Data: []float64{float64(nd.ID())}})
		_ = reply
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("time %.0f µs, %d bytes\n", stats.Time, stats.Bytes)
	// Output:
	// time 2 µs, 2 bytes
}

// ExamplePermutedDims_bitReversal performs the Section 7 bit-reversal
// permutation: the Permute row onto the layout with the processor address
// bits reversed.
func ExamplePermutedDims_bitReversal() {
	before := boolcube.OneDimConsecutiveRows(3, 0, 3, boolcube.Binary) // one element per node
	after, _ := boolcube.PermutedDims(before, []int{2, 1, 0})          // binary rows always permute
	res, err := boolcube.Transpose(boolcube.Scatter(boolcube.NewIotaMatrix(3, 0), before), after,
		boolcube.Options{Algorithm: boolcube.Permute, Machine: boolcube.Ideal(boolcube.OnePort)})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for x, d := range res.Dist.Local {
		fmt.Printf("node %03b holds payload %v\n", x, d[0])
	}
	// Output:
	// node 000 holds payload 0
	// node 001 holds payload 4
	// node 010 holds payload 2
	// node 011 holds payload 6
	// node 100 holds payload 1
	// node 101 holds payload 5
	// node 110 holds payload 3
	// node 111 holds payload 7
}
