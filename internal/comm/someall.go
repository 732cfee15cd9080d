package comm

import (
	"fmt"
	"slices"

	"boolcube/internal/bits"
	"boolcube/internal/fabric"
)

// This file implements some-to-all and all-to-some personalized
// communication (Section 3.3): k steps of data splitting (or accumulation)
// over the split dimensions combined with l steps of all-to-all personalized
// communication over the exchange dimensions. Theorem 1 says the steps
// commute but that splitting first (for some-to-all) and exchanging first
// (for all-to-some) minimizes the data transfer time; both orders are
// provided so the theorem can be measured.

// recvBlocks receives one message on dimension d and appends its blocks to
// held, growing held once. The blocks alias the received Data buffer (whose
// ownership passes to them); the Parts buffer is consumed here and goes
// back to the pool.
func recvBlocks(nd fabric.Node, d int, held []Block) []Block {
	m := nd.Recv(d)
	held = slices.Grow(held, len(m.Parts))
	off := 0
	for _, p := range m.Parts {
		held = append(held, Block{Src: p.Src, Dst: p.Dst, Data: m.Data[off : off+p.N : off+p.N]})
		off += p.N
	}
	nd.Recycle(fabric.Msg{Parts: m.Parts})
	return held
}

// zeroOn reports whether x has zero bits on all the given dimensions.
func zeroOn(x uint64, dims []int) bool {
	for _, d := range dims {
		if bits.Bit(x, d) == 1 {
			return false
		}
	}
	return true
}

// SplitDims returns the dimension sets of a k-split on an n-cube (Section
// 3.3): the k highest dimensions are split and the other n-k run the
// all-to-all exchange, both in descending order.
func SplitDims(n, k int) (split, exch []int) {
	dims := DescendingDims(n)
	return dims[:k:k], dims[k:]
}

// SplitBlocks performs the k splitting steps over splitDims (one-to-all
// personalized communication within each split subcube): before, only the
// nodes with zero bits on all splitDims hold blocks; after, every node
// holds the blocks whose destination matches it on all splitDims.
func SplitBlocks(nd fabric.Node, splitDims []int, held []Block) []Block {
	id := nd.ID()
	for step, d := range splitDims {
		unprocessed := splitDims[step+1:]
		if !zeroOn(id, unprocessed) {
			continue // receives in a later step
		}
		if bits.Bit(id, d) == 0 {
			nb, ne := 0, 0
			for _, b := range held {
				if bits.Bit(b.Dst, d) == 1 {
					nb++
					ne += len(b.Data)
				}
			}
			var m fabric.Msg
			if nb > 0 {
				m = fabric.Msg{Parts: nd.AllocParts(nb), Data: nd.AllocData(ne)}
			}
			keep := held[:0] // filtered in place; writes trail reads
			po, do := 0, 0
			for _, b := range held {
				if bits.Bit(b.Dst, d) == 1 {
					m.Parts[po] = fabric.Part{Src: b.Src, Dst: b.Dst, N: len(b.Data)}
					po++
					do += copy(m.Data[do:], b.Data)
				} else {
					keep = append(keep, b)
				}
			}
			nd.Send(d, m)
			held = keep
		} else {
			held = recvBlocks(nd, d, held)
		}
	}
	return held
}

// AccumulateBlocks performs the k accumulation steps over splitDims
// (all-to-one personalized communication within each split subcube): every
// node may start holding blocks; afterwards only the nodes with zero bits
// on all splitDims hold them.
func AccumulateBlocks(nd fabric.Node, splitDims []int, held []Block) []Block {
	id := nd.ID()
	for step, d := range splitDims {
		if !zeroOn(id, splitDims[:step]) {
			continue // already handed everything off in an earlier step
		}
		if bits.Bit(id, d) == 1 {
			var m fabric.Msg
			if len(held) > 0 {
				ne := 0
				for _, b := range held {
					ne += len(b.Data)
				}
				m = fabric.Msg{Parts: nd.AllocParts(len(held)), Data: nd.AllocData(ne)}
				do := 0
				for i, b := range held {
					m.Parts[i] = fabric.Part{Src: b.Src, Dst: b.Dst, N: len(b.Data)}
					do += copy(m.Data[do:], b.Data)
				}
			}
			nd.Send(d, m)
			held = nil
		} else {
			held = recvBlocks(nd, d, held)
		}
	}
	return held
}

// SomeToAll performs 2^l-to-2^(l+k) personalized communication: the sources
// are the nodes with zero bits on all splitDims; every source holds a block
// for every node of its splitDims+exchDims subcube. splitFirst selects the
// phase order of Theorem 1 (true is optimal for some-to-all). result[x]
// maps sources to the data received by x.
func SomeToAll(e fabric.Fabric, splitDims, exchDims []int, strat Strategy, splitFirst bool, block func(src, dst uint64) []float64) ([]map[uint64][]float64, error) {
	if err := validateDimSets(e, splitDims, exchDims); err != nil {
		return nil, err
	}
	if err := checkStrategy(strat); err != nil {
		return nil, err
	}
	result := make([]map[uint64][]float64, e.Nodes())
	err := e.Run(func(nd fabric.Node) {
		id := nd.ID()
		var held []Block
		if zeroOn(id, splitDims) { // I am a source
			held = make([]Block, 0, 1<<uint(len(splitDims)+len(exchDims)))
			for _, dk := range subcube(id, splitDims) {
				for _, dst := range subcube(dk, exchDims) {
					held = append(held, Block{Src: id, Dst: dst, Data: block(id, dst)})
				}
			}
		}
		if splitFirst {
			held = SplitBlocks(nd, splitDims, held)
			held = ExchangeBlocks(nd, exchDims, strat, held)
		} else {
			// Exchange first: the all-to-all over exchDims runs among the
			// sources (empty elsewhere); routing reads only the exchange
			// bits of Dst, so blocks land on the source that will split
			// them toward their final split bits.
			held = ExchangeBlocks(nd, exchDims, strat, held)
			held = SplitBlocks(nd, splitDims, held)
		}
		out := make(map[uint64][]float64, len(held))
		for _, b := range held {
			if b.Dst != id {
				panic(fmt.Sprintf("comm: node %d ended with block for %d", id, b.Dst))
			}
			out[b.Src] = b.Data
		}
		result[id] = out
	})
	if err != nil {
		return nil, err
	}
	return result, nil
}

// AllToSome performs 2^(l+k)-to-2^l personalized communication: every node
// of each splitDims+exchDims subcube holds one block for every target (the
// zero-split-bit nodes of the subcube). exchangeFirst = true is the optimal
// order of Theorem 1. result[x] is populated only at targets.
func AllToSome(e fabric.Fabric, splitDims, exchDims []int, strat Strategy, exchangeFirst bool, block func(src, dst uint64) []float64) ([]map[uint64][]float64, error) {
	if err := validateDimSets(e, splitDims, exchDims); err != nil {
		return nil, err
	}
	if err := checkStrategy(strat); err != nil {
		return nil, err
	}
	result := make([]map[uint64][]float64, e.Nodes())
	err := e.Run(func(nd fabric.Node) {
		id := nd.ID()
		var held []Block
		for _, tgt := range targets(id, splitDims, exchDims) {
			held = append(held, Block{Src: id, Dst: tgt, Data: block(id, tgt)})
		}
		if exchangeFirst {
			// Src bits on exchDims equal mine; Dst exchange bits route the
			// block to the node that accumulates it down to the target.
			held = ExchangeBlocks(nd, exchDims, strat, held)
			held = AccumulateBlocks(nd, splitDims, held)
		} else {
			// Accumulation never moves a block across exchange dimensions,
			// so after it the blocks' Src still agrees with the holder on
			// exchDims and the plain exchange applies.
			held = AccumulateBlocks(nd, splitDims, held)
			held = ExchangeBlocks(nd, exchDims, strat, held)
		}
		out := make(map[uint64][]float64, len(held))
		for _, b := range held {
			if b.Dst != id {
				panic(fmt.Sprintf("comm: node %d ended with block for %d", id, b.Dst))
			}
			out[b.Src] = b.Data
		}
		result[id] = out
	})
	if err != nil {
		return nil, err
	}
	return result, nil
}

// targets lists the zero-split-bit nodes of id's splitDims+exchDims subcube.
func targets(id uint64, splitDims, exchDims []int) []uint64 {
	base := id
	for _, d := range splitDims {
		base = bits.SetBit(base, d, 0)
	}
	return subcube(base, exchDims)
}

func validateDimSets(e fabric.Fabric, splitDims, exchDims []int) error {
	if err := checkDims(e, splitDims); err != nil {
		return err
	}
	if err := checkDims(e, exchDims); err != nil {
		return err
	}
	set := make(map[int]bool, len(splitDims))
	for _, d := range splitDims {
		set[d] = true
	}
	for _, d := range exchDims {
		if set[d] {
			return fmt.Errorf("comm: dimension %d in both split and exchange sets", d)
		}
	}
	return nil
}
