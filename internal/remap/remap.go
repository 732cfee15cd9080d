// Package remap relabels the logical Boolean n-cube onto the surviving
// physical nodes after crash-stop failures, so a checkpointed job can finish
// on the degraded machine.
//
// The job's data lives host-side in the checkpoint (the source distribution
// and the partially filled destination arrays), so recovery only has to
// re-embed the *transport*: each residual transfer logically moves a span
// from logical node s to logical node d, and the recovery run is free to
// inject it at any live physical node and eject it at any other. An
// Assignment is that embedding — a total map Phys from logical ids to live
// physical ids — computed by one of two strategies:
//
//   - Spare substitution. When the machine has live nodes that carry no
//     residual traffic (spares), each dead node that does carry traffic is
//     substituted by one spare, everything else keeps its identity mapping.
//     Routes are recompiled between the new endpoints, so the substitution
//     is transparent to the transport.
//
//   - Gray-code-preserving fold. When no spare is available, the cube is
//     folded onto a dead-free subcube: along a chosen dimension d every
//     node is reflected into the kept half (φ(x) = x when bit d already has
//     the kept value, φ(x) = x XOR 2^d otherwise), and the fold is iterated
//     along further dimensions until the image contains no dead node. A
//     fold is a graph homomorphism of the hypercube onto its subcube —
//     cube neighbors map to the same node or stay neighbors across the same
//     dimension — so Gray-code adjacency, and with it the dimension-order
//     routing structure the paper's algorithms rely on, is preserved.
//     Transfers whose endpoints coincide under the fold degenerate to
//     host-side copies.
//
// The fold always succeeds while at least one node survives: keeping the
// half with fewer dead nodes at least halves the dead count per iteration,
// so at most n folds reach a dead-free image.
package remap

import (
	"fmt"
	"sort"
)

// Mode identifies the strategy an Assignment used.
type Mode int

const (
	// Identity: no active node was dead; the embedding is untouched.
	Identity Mode = iota
	// Spare: dead active nodes were substituted by idle live nodes.
	Spare
	// Fold: the cube was folded onto a dead-free subcube.
	Fold
)

// Assignment is a computed relabeling of the logical cube onto live
// physical nodes. The zero value is not valid; build one with Plan.
type Assignment struct {
	// N is the cube dimension n.
	N int
	// Dead lists the dead physical nodes, ascending.
	Dead []uint64
	// Mode is the strategy used.
	Mode Mode
	// Spared maps each substituted logical node to its spare (Mode Spare).
	Spared map[uint64]uint64
	// FoldDims lists the folded dimensions in fold order (Mode Fold).
	FoldDims []int

	foldMask uint64 // folded dimension bits
	keptBits uint64 // kept value on each folded bit
}

// Plan computes an assignment for an n-cube with the given dead physical
// nodes. active lists the logical nodes that must land on live hosts — the
// endpoints of the traffic still to be moved. Plan fails only when no node
// survives.
func Plan(n int, dead []uint64, active []uint64) (*Assignment, error) {
	if n < 0 || n > 20 {
		return nil, fmt.Errorf("remap: cube dimension %d out of range [0,20]", n)
	}
	N := uint64(1) << uint(n)
	deadSet := make(map[uint64]bool, len(dead))
	for _, d := range dead {
		if d >= N {
			return nil, fmt.Errorf("remap: dead node %d out of range [0,%d)", d, N)
		}
		deadSet[d] = true
	}
	if uint64(len(deadSet)) == N {
		return nil, fmt.Errorf("remap: all %d nodes dead; nothing to recover onto", N)
	}
	a := &Assignment{N: n, Dead: sortedKeys(deadSet)}

	activeSet := make(map[uint64]bool, len(active))
	for _, x := range active {
		if x >= N {
			return nil, fmt.Errorf("remap: active node %d out of range [0,%d)", x, N)
		}
		activeSet[x] = true
	}

	// needed: active nodes whose identity host is dead.
	var needed []uint64
	for x := range activeSet {
		if deadSet[x] {
			needed = append(needed, x)
		}
	}
	if len(needed) == 0 {
		a.Mode = Identity
		return a, nil
	}
	sort.Slice(needed, func(i, j int) bool { return needed[i] < needed[j] })

	// Spare substitution: live nodes that carry no residual traffic.
	var spares []uint64
	for x := uint64(0); x < N; x++ {
		if !deadSet[x] && !activeSet[x] {
			spares = append(spares, x)
		}
	}
	if len(spares) >= len(needed) {
		a.Mode = Spare
		a.Spared = make(map[uint64]uint64, len(needed))
		for i, x := range needed {
			a.Spared[x] = spares[i]
		}
		return a, nil
	}

	// Gray-preserving fold: from the highest dimension down, fold the
	// current image onto whichever half holds fewer dead nodes, until the
	// image is dead-free. Keeping the smaller half at least halves the dead
	// count, so the loop terminates with survivors remaining.
	a.Mode = Fold
	for d := n - 1; d >= 0; d-- {
		bit := uint64(1) << uint(d)
		var c0, c1 int
		for nd := range deadSet {
			if nd&a.foldMask != a.keptBits { // outside the current image
				continue
			}
			if nd&bit == 0 {
				c0++
			} else {
				c1++
			}
		}
		if c0+c1 == 0 {
			break
		}
		a.foldMask |= bit
		if c1 < c0 {
			a.keptBits |= bit
		}
		a.FoldDims = append(a.FoldDims, d)
	}
	return a, nil
}

// Phys maps a logical node to its live physical host.
func (a *Assignment) Phys(x uint64) uint64 {
	switch a.Mode {
	case Spare:
		if s, ok := a.Spared[x]; ok {
			return s
		}
		return x
	case Fold:
		return (x &^ a.foldMask) | a.keptBits
	}
	return x
}

// Degraded reports whether the assignment changes any mapping at all.
func (a *Assignment) Degraded() bool { return a.Mode != Identity }

func sortedKeys(m map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
