package comm

import (
	"boolcube/internal/cube"
	"boolcube/internal/fabric"
	"boolcube/internal/router"
)

// AllToAllSBnT performs all-to-all personalized communication by routing
// each of the N(N-1) transfers along its spanning-balanced-n-tree path
// (Section 3.2 / the SBnT transpose of Section 5): the route from src to
// dst visits the set bits of src XOR dst in ascending cyclic order starting
// at the base of the relative address. Each transfer is its own flow, so a
// node pays one start-up per destination per hop — not the paper's nτ,
// which needs the transfers bundled into one message per port per round
// (ROADMAP item 5(b)).
//
// block(src, dst) supplies the payload for every ordered pair; result[x]
// maps sources to the data x received.
func AllToAllSBnT(e fabric.Fabric, block func(src, dst uint64) []float64) ([]map[uint64][]float64, error) {
	n := e.Dims()
	N := uint64(e.Nodes())
	var flows []router.Flow
	for s := uint64(0); s < N; s++ {
		for d := uint64(0); d < N; d++ {
			if s == d {
				continue
			}
			flows = append(flows, router.Flow{
				Src: s, Dst: d,
				Dims: cube.SBnTPath(s^d, n),
				Data: block(s, d),
			})
		}
	}
	deliveries, err := router.Run(e, flows)
	if err != nil {
		return nil, err
	}
	result := make([]map[uint64][]float64, N)
	for x := uint64(0); x < N; x++ {
		out := make(map[uint64][]float64)
		for _, del := range deliveries[x] {
			out[del.Src] = del.Data
		}
		out[x] = block(x, x)
		result[x] = out
	}
	return result, nil
}
