package cube

import "boolcube/internal/bits"

// Tree is a spanning tree of the cube rooted at Root. Parent[x] is the
// parent node of x (Parent[Root] = -1); Children lists each node's children.
type Tree struct {
	Cube     Cube
	Root     uint64
	Parent   []int64
	Children [][]uint64
}

// newTreeFromParent builds the Children lists and validates that parent
// pointers define a spanning tree over all N nodes.
func newTreeFromParent(c Cube, root uint64, parent []int64) *Tree {
	t := &Tree{Cube: c, Root: root, Parent: parent, Children: make([][]uint64, c.Nodes())}
	for x := 0; x < c.Nodes(); x++ {
		p := parent[x]
		if p < 0 {
			continue
		}
		t.Children[p] = append(t.Children[p], uint64(x))
	}
	return t
}

// Depth returns the depth of node x in the tree (root depth 0).
func (t *Tree) Depth(x uint64) int {
	d := 0
	for t.Parent[x] >= 0 {
		x = uint64(t.Parent[x])
		d++
		if d > t.Cube.Nodes() {
			panic("cube: parent cycle in tree")
		}
	}
	return d
}

// SubtreeSize returns the number of nodes in the subtree rooted at x
// (including x).
func (t *Tree) SubtreeSize(x uint64) int {
	s := 1
	for _, ch := range t.Children[x] {
		s += t.SubtreeSize(ch)
	}
	return s
}

// SBT returns the spanning binomial tree rooted at root. In relative
// address space (y = x XOR root), the parent of y != 0 is obtained by
// clearing its highest-order set bit; equivalently the children of y are
// obtained by complementing one of its leading zeroes [17,2,5].
func SBT(c Cube, root uint64) *Tree {
	parent := make([]int64, c.Nodes())
	for x := 0; x < c.Nodes(); x++ {
		y := uint64(x) ^ root
		if y == 0 {
			parent[x] = -1
			continue
		}
		hb := highestSetBit(y)
		parent[x] = int64((y ^ 1<<uint(hb)) ^ root)
	}
	return newTreeFromParent(c, root, parent)
}

// ReflectedSBT returns the reflection of the SBT (Definition 9): addresses
// bit-reversed, equivalently children obtained by complementing trailing
// zeroes instead of leading zeroes.
func ReflectedSBT(c Cube, root uint64) *Tree {
	parent := make([]int64, c.Nodes())
	for x := 0; x < c.Nodes(); x++ {
		y := uint64(x) ^ root
		if y == 0 {
			parent[x] = -1
			continue
		}
		lb := lowestSetBit(y)
		parent[x] = int64((y ^ 1<<uint(lb)) ^ root)
	}
	return newTreeFromParent(c, root, parent)
}

// RotatedSBT returns the SBT rotated by k shuffle steps (Definition 8): all
// relative addresses are mapped through sh^k before applying the SBT parent
// rule. k = 0 gives the plain SBT.
func RotatedSBT(c Cube, root uint64, k int) *Tree {
	n := c.Dims()
	parent := make([]int64, c.Nodes())
	for x := 0; x < c.Nodes(); x++ {
		y := uint64(x) ^ root
		if y == 0 {
			parent[x] = -1
			continue
		}
		// Rotate into canonical space, take the SBT parent, rotate back.
		yr := bits.RotR(y, k, n)
		hb := highestSetBit(yr)
		pr := yr ^ 1<<uint(hb)
		parent[x] = int64(bits.RotL(pr, k, n) ^ root)
	}
	return newTreeFromParent(c, root, parent)
}

// Translate returns the tree rooted at s obtained by translating t (rooted
// at 0 or anywhere): node x of the new tree corresponds to node x XOR s XOR
// t.Root of t (Section 3.2).
func Translate(t *Tree, s uint64) *Tree {
	c := t.Cube
	shift := s ^ t.Root
	parent := make([]int64, c.Nodes())
	for x := 0; x < c.Nodes(); x++ {
		old := uint64(x) ^ shift
		if t.Parent[old] < 0 {
			parent[x] = -1
			continue
		}
		parent[x] = int64(uint64(t.Parent[old]) ^ shift)
	}
	return newTreeFromParent(c, s, parent)
}

// SBnTPath returns the dimension routing order from a source node to the
// node at relative address r != 0 under spanning balanced n-tree routing:
// the set bits of r visited in ascending cyclic order starting at base(r),
// the rotation that minimizes the rotated value of r (Section 5's SBnT
// transpose pseudo code). Distinct relative addresses with distinct bases
// leave the source on distinct ports, balancing the n ports.
func SBnTPath(r uint64, n int) []int {
	if r == 0 {
		return nil
	}
	b := bits.Base(r, n)
	var dims []int
	for i := 0; i < n; i++ {
		d := (b + i) % n
		if bits.Bit(r, d) == 1 {
			dims = append(dims, d)
		}
	}
	return dims
}

// SBnT returns the spanning balanced n-tree rooted at root, built from the
// SBnTPath routing rule: the parent of node x is the next-to-last node on
// the path from the root to x.
func SBnT(c Cube, root uint64) *Tree {
	n := c.Dims()
	parent := make([]int64, c.Nodes())
	parent[root] = -1
	for x := 0; x < c.Nodes(); x++ {
		r := uint64(x) ^ root
		if r == 0 {
			continue
		}
		dims := SBnTPath(r, n)
		last := dims[len(dims)-1]
		parent[x] = int64(bits.FlipBit(uint64(x), last))
	}
	return newTreeFromParent(c, root, parent)
}

func highestSetBit(y uint64) int {
	hb := -1
	for i := 0; y != 0; i++ {
		if y&1 == 1 {
			hb = i
		}
		y >>= 1
	}
	return hb
}

func lowestSetBit(y uint64) int {
	for i := 0; ; i++ {
		if y>>uint(i)&1 == 1 {
			return i
		}
	}
}
