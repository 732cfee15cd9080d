// Command cubeinfo inspects the combinatorial structure behind the
// transpose algorithms: node neighborhoods, spanning trees, the SPT/DPT/MPT
// path systems of a node, and the ~s equivalence class that makes the MPT
// schedule conflict-free.
//
// Example:
//
//	cubeinfo -n 6 -node 0b000111
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"boolcube/internal/cube"
)

func main() {
	if err := realMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "cubeinfo: %v\n", err)
		os.Exit(1)
	}
}

func realMain(args []string, out io.Writer) error {
	flag := flag.NewFlagSet("cubeinfo", flag.ContinueOnError)
	n := flag.Int("n", 6, "cube dimensions (even for path systems)")
	nodeStr := flag.String("node", "7", "node address (decimal, 0x hex or 0b binary)")
	tree := flag.String("tree", "", "print a spanning tree instead: sbt, reflected, rotated:<k>, sbnt")
	toStr := flag.String("to", "", "print the n node-disjoint paths to this node instead")
	if err := flag.Parse(args); err != nil {
		return err
	}

	x, err := parseAddr(*nodeStr)
	if err != nil {
		return err
	}
	if *n < 0 || *n > cube.MaxDims {
		return fmt.Errorf("-n %d out of range [0,%d]", *n, cube.MaxDims)
	}
	c := cube.New(*n)
	if x >= uint64(c.Nodes()) {
		return fmt.Errorf("node %d out of range for a %d-cube", x, *n)
	}

	if *tree != "" {
		return printTree(out, c, x, *tree)
	}
	if *toStr != "" {
		y, err := parseAddr(*toStr)
		if err != nil || y >= uint64(c.Nodes()) || y == x {
			return fmt.Errorf("bad -to node %q", *toStr)
		}
		fmt.Fprintf(out, "%d node-disjoint paths from %0*b to %0*b (H=%d):\n",
			c.Dims(), *n, x, *n, y, c.Distance(x, y))
		for i, p := range cube.DisjointPaths(c, x, y) {
			fmt.Fprintf(out, "  path %d (len %d): dims %v\n", i, len(p), p)
		}
		return nil
	}

	fmt.Fprintf(out, "cube: %d dimensions, %d nodes, %d links\n", c.Dims(), c.Nodes(), c.Links())
	fmt.Fprintf(out, "node %0*b:\n", *n, x)
	fmt.Fprintf(out, "  neighbors:")
	for d := 0; d < c.Dims(); d++ {
		fmt.Fprintf(out, " %0*b", *n, c.Neighbor(x, d))
	}
	fmt.Fprintln(out)

	if *n%2 != 0 {
		fmt.Fprintln(out, "  (odd dimension: transpose path systems need even n)")
		return nil
	}
	if *n == 0 {
		return nil // a single node: nothing to transpose
	}
	tr := cube.Tr(x, *n)
	H := cube.HalfHamming(x, *n)
	fmt.Fprintf(out, "  transpose partner tr(x): %0*b (distance %d, H(x)=%d)\n", *n, tr, 2*H, H)
	if H == 0 {
		fmt.Fprintln(out, "  diagonal node: no data movement needed")
		return nil
	}
	fmt.Fprintf(out, "  SPT path: %v\n", cube.SPTPath(x, *n))
	for i, p := range cube.DPTPaths(x, *n) {
		fmt.Fprintf(out, "  DPT path %d: %v\n", i, p)
	}
	for i, p := range cube.MPTPaths(x, *n) {
		fmt.Fprintf(out, "  MPT path %d: %v\n", i, p)
	}
	class := cube.SClass(x, *n)
	parts := make([]string, len(class))
	for i, y := range class {
		parts[i] = fmt.Sprintf("%0*b", *n, y)
	}
	fmt.Fprintf(out, "  ~s class (%d nodes sharing these edges in (2,2H)-disjoint cycles): %s\n",
		len(class), strings.Join(parts, " "))
	return nil
}

func printTree(out io.Writer, c cube.Cube, root uint64, kind string) error {
	var t *cube.Tree
	switch {
	case kind == "sbt":
		t = cube.SBT(c, root)
	case kind == "reflected":
		t = cube.ReflectedSBT(c, root)
	case kind == "sbnt":
		t = cube.SBnT(c, root)
	case strings.HasPrefix(kind, "rotated:"):
		k, err := strconv.Atoi(strings.TrimPrefix(kind, "rotated:"))
		if err != nil {
			return fmt.Errorf("bad rotation %q", kind)
		}
		t = cube.RotatedSBT(c, root, k)
	default:
		return fmt.Errorf("unknown tree %q", kind)
	}
	fmt.Fprintf(out, "%s spanning tree rooted at %0*b:\n", kind, c.Dims(), root)
	var walk func(x uint64, depth int)
	walk = func(x uint64, depth int) {
		fmt.Fprintf(out, "%s%0*b (subtree %d)\n", strings.Repeat("  ", depth+1), c.Dims(), x, t.SubtreeSize(x))
		for _, ch := range t.Children[x] {
			walk(ch, depth+1)
		}
	}
	walk(root, 0)
	return nil
}

func parseAddr(s string) (uint64, error) {
	switch {
	case strings.HasPrefix(s, "0b"):
		return strconv.ParseUint(s[2:], 2, 64)
	case strings.HasPrefix(s, "0x"):
		return strconv.ParseUint(s[2:], 16, 64)
	default:
		return strconv.ParseUint(s, 10, 64)
	}
}
