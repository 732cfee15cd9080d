package main

import (
	"strings"
	"testing"
)

func out(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var sb strings.Builder
	err := realMain(args, &sb)
	return sb.String(), err
}

func TestNodeReport(t *testing.T) {
	s, err := out(t, "-n", "6", "-node", "0b000111")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"transpose partner tr(x): 111000",
		"SPT path: [5 2 4 1 3 0]",
		"MPT path 5:",
		"~s class (8 nodes",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
}

func TestDiagonalNode(t *testing.T) {
	s, err := out(t, "-n", "4", "-node", "0b0101")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "diagonal node") {
		t.Errorf("diagonal not reported:\n%s", s)
	}
}

func TestOddDimension(t *testing.T) {
	s, err := out(t, "-n", "5", "-node", "1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "odd dimension") {
		t.Errorf("odd-n note missing:\n%s", s)
	}
}

func TestTreePrinting(t *testing.T) {
	for _, kind := range []string{"sbt", "reflected", "sbnt", "rotated:2"} {
		s, err := out(t, "-n", "3", "-node", "0", "-tree", kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !strings.Contains(s, "spanning tree rooted at 000") {
			t.Errorf("%s: malformed output:\n%s", kind, s)
		}
		if !strings.Contains(s, "(subtree 8)") {
			t.Errorf("%s: root subtree size missing:\n%s", kind, s)
		}
	}
}

func TestDisjointPathsOutput(t *testing.T) {
	s, err := out(t, "-n", "4", "-node", "0b0001", "-to", "0b1110")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "4 node-disjoint paths") {
		t.Errorf("paths missing:\n%s", s)
	}
}

func TestCubeinfoErrors(t *testing.T) {
	cases := [][]string{
		{"-node", "zzz"},
		{"-n", "3", "-node", "99"},
		{"-n", "3", "-node", "0", "-tree", "oak"},
		{"-n", "3", "-node", "0", "-tree", "rotated:x"},
		{"-n", "3", "-node", "1", "-to", "1"},
		{"-n", "-1"},
		{"-n", "25"},
		{"-n", "64"},
	}
	for _, args := range cases {
		if _, err := out(t, args...); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestZeroCube(t *testing.T) {
	s, err := out(t, "-n", "0", "-node", "0")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "cube: 0 dimensions, 1 nodes, 0 links") {
		t.Errorf("0-cube report missing:\n%s", s)
	}
}
