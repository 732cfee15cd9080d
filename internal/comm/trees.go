package comm

import (
	"cmp"
	"fmt"
	"slices"

	"boolcube/internal/cube"
	"boolcube/internal/fabric"
)

// This file implements one-to-all personalized communication (Section 3.1)
// by scatter over n rotated SBTs or a spanning balanced n-tree, both with
// "all data for a subtree at once" scheduling. The scatter over a single SBT
// is the plan registry's exchange row from one node to all.

// nextHop returns the child of x on the tree path toward dst (x must be an
// ancestor of dst; dst != x).
func nextHop(t *cube.Tree, x, dst uint64) uint64 {
	cur := dst
	for {
		p := t.Parent[cur]
		if p < 0 {
			panic(fmt.Sprintf("comm: %d is not an ancestor of %d", x, dst))
		}
		if uint64(p) == x {
			return cur
		}
		cur = uint64(p)
	}
}

// ScatterOnNode executes the node's role in a one-to-all personalized
// communication from root over the given spanning trees. parts(dst, k)
// supplies the fraction of dst's data routed over trees[k]; only the root's
// calls are used. Returns this node's received data, concatenated in tree
// order (k ascending).
//
// With n rotated SBTs (or an SBnT) and n-port communication the transfer
// term drops by a factor of n from the single SBT's (Section 3.1).
func ScatterOnNode(nd fabric.Node, root uint64, trees []*cube.Tree, parts func(dst uint64, k int) []float64) []float64 {
	id := nd.ID()
	var own []float64
	ownByTree := make([][]float64, len(trees))

	if id == root {
		for k, t := range trees {
			ownByTree[k] = parts(root, k)
			// One message per root subtree, largest subtree first so the
			// longest chain starts draining earliest.
			children := append([]uint64(nil), t.Children[root]...)
			slices.SortFunc(children, func(a, b uint64) int {
				return cmp.Or(cmp.Compare(t.SubtreeSize(b), t.SubtreeSize(a)), cmp.Compare(a, b))
			})
			for _, c := range children {
				m := buildSubtreeMsg(t, c, k, parts)
				nd.Send(dimOf(root, c), m)
			}
		}
	} else {
		// Every non-root node receives exactly one message per tree.
		type group struct {
			child  uint64
			nb, ne int
			msg    fabric.Msg
			po, do int
		}
		var groups []*group // at most one per cube dimension
		for range trees {
			m := nd.RecvAny()
			k := m.Tag
			t := trees[k]
			// Split the payload: keep own part, forward the rest grouped by
			// child subtree. First pass sizes each child's message so its
			// buffers come from the pool at exact size; second pass fills.
			groups = groups[:0]
			findGroup := func(c uint64) *group {
				for _, g := range groups {
					if g.child == c {
						return g
					}
				}
				g := &group{child: c}
				groups = append(groups, g)
				return g
			}
			childOf := make([]uint64, len(m.Parts))
			for i, p := range m.Parts {
				if p.Dst == id {
					continue
				}
				c := nextHop(t, id, p.Dst)
				childOf[i] = c
				g := findGroup(c)
				g.nb++
				g.ne += p.N
			}
			for _, g := range groups {
				g.msg = fabric.Msg{Tag: k, Parts: nd.AllocParts(g.nb), Data: nd.AllocData(g.ne)}
			}
			off := 0
			for i, p := range m.Parts {
				data := m.Data[off : off+p.N]
				off += p.N
				if p.Dst == id {
					// Copy the own chunk out so the received buffer can be
					// recycled once the forwards below have drained it.
					ownByTree[k] = append([]float64(nil), data...)
					continue
				}
				g := findGroup(childOf[i])
				g.msg.Parts[g.po] = p
				g.po++
				g.do += copy(g.msg.Data[g.do:], data)
			}
			// Forward larger subtrees first, as at the root.
			slices.SortFunc(groups, func(a, b *group) int {
				return cmp.Or(cmp.Compare(t.SubtreeSize(b.child), t.SubtreeSize(a.child)), cmp.Compare(a.child, b.child))
			})
			for _, g := range groups {
				nd.Send(dimOf(id, g.child), g.msg)
			}
			nd.Recycle(m)
		}
	}
	for _, d := range ownByTree {
		own = append(own, d...)
	}
	return own
}

func buildSubtreeMsg(t *cube.Tree, subroot uint64, k int, parts func(dst uint64, k int) []float64) fabric.Msg {
	m := fabric.Msg{Tag: k}
	var walk func(x uint64)
	walk = func(x uint64) {
		d := parts(x, k)
		m.Parts = append(m.Parts, fabric.Part{Src: t.Root, Dst: x, N: len(d)})
		m.Data = append(m.Data, d...)
		for _, c := range t.Children[x] {
			walk(c)
		}
	}
	walk(subroot)
	return m
}

func dimOf(a, b uint64) int {
	d := a ^ b
	dim := 0
	for d > 1 {
		d >>= 1
		dim++
	}
	return dim
}

// TreeKind selects the spanning tree family for scatter wrappers.
type TreeKind int

const (
	// KindRotatedSBTs splits each destination's data over n rotated SBTs.
	KindRotatedSBTs TreeKind = iota
	// KindSBnT routes over the spanning balanced n-tree.
	KindSBnT
)

func (k TreeKind) String() string {
	if k == KindRotatedSBTs {
		return "rotated-sbts"
	}
	return "sbnt"
}

// BuildTrees constructs the spanning tree set of the given kind rooted at
// root on an n-cube. The rotated family has n trees, and one on the 0-cube,
// so the root's own share is never split zero ways.
func BuildTrees(kind TreeKind, n int, root uint64) []*cube.Tree {
	c := cube.New(n)
	if kind != KindRotatedSBTs {
		return []*cube.Tree{cube.SBnT(c, root)}
	}
	ts := make([]*cube.Tree, max(n, 1))
	for k := range ts {
		ts[k] = cube.RotatedSBT(c, root, k)
	}
	return ts
}

// OneToAll scatters data(dst) from root to every node using the given tree
// family. result[x] is the payload x received (its own data for x == root).
func OneToAll(e fabric.Fabric, kind TreeKind, root uint64, data func(dst uint64) []float64) ([][]float64, error) {
	if root >= uint64(e.Nodes()) {
		return nil, fmt.Errorf("comm: root %d out of range", root)
	}
	trees := BuildTrees(kind, e.Dims(), root)
	parts := func(dst uint64, k int) []float64 {
		return chunkOf(data(dst), len(trees), k)
	}
	result := make([][]float64, e.Nodes())
	err := e.Run(func(nd fabric.Node) {
		result[nd.ID()] = ScatterOnNode(nd, root, trees, parts)
	})
	if err != nil {
		return nil, err
	}
	return result, nil
}

// chunkOf splits data into parts nearly-equal chunks, the first len%parts
// one element longer, and returns chunk k.
func chunkOf(data []float64, parts, k int) []float64 {
	base, rem := len(data)/parts, len(data)%parts
	off := k*base + min(k, rem)
	return data[off : off+base+min(max(rem-k, 0), 1)]
}
