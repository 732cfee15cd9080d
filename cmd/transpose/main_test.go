package main

import (
	"strings"
	"testing"
)

func run(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var sb strings.Builder
	err := realMain(args, &sb)
	return sb.String(), err
}

func TestRunBasic(t *testing.T) {
	out, err := run(t, "-p", "4", "-q", "4", "-n", "2", "-alg", "mpt", "-machine", "ipsc-nport")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"matrix:            16x16",
		"verified element-exact",
		"communication:     pairwise",
		"algorithm:         mpt on iPSC-nport",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunStorageConversion(t *testing.T) {
	out, err := run(t, "-p", "5", "-q", "5", "-n", "3",
		"-layout", "1d-consecutive-rows", "-after", "1d-cyclic-cols:gray")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "1d-cyclic-cols/gray") {
		t.Errorf("after layout not applied:\n%s", out)
	}
}

// The code conversion does not transpose: its after layout describes the
// input's shape, and the result verifies against the input matrix.
func TestRunConvertEncoding(t *testing.T) {
	for _, args := range [][]string{
		{"-p", "4", "-q", "4", "-n", "4", "-alg", "convert-encoding"},
		{"-p", "5", "-q", "4", "-n", "4", "-alg", "convert-encoding", "-after", "2d-consecutive:gray"},
		// The other row that does not transpose: the bit reversal as a custom
		// after layout, the row bits as one-bit fields in reversed order.
		{"-p", "4", "-q", "2", "-n", "4", "-alg", "permute", "-layout", "1d-consecutive-rows", "-after", "custom([2,3)+[3,4)+[4,5)+[5,6))"},
	} {
		out, err := run(t, args...)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if !strings.Contains(out, "verified element-exact") {
			t.Errorf("%v: output not verified:\n%s", args, out)
		}
	}
}

func TestRunTrace(t *testing.T) {
	out, err := run(t, "-p", "3", "-q", "3", "-n", "2", "-alg", "spt", "-trace")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "legend: S send") {
		t.Errorf("trace gantt missing:\n%s", out)
	}
}

func TestRunMachineOverrides(t *testing.T) {
	fast, err := run(t, "-p", "4", "-q", "4", "-n", "2", "-tau", "1")
	if err != nil {
		t.Fatal(err)
	}
	slow, err := run(t, "-p", "4", "-q", "4", "-n", "2", "-tau", "100000")
	if err != nil {
		t.Fatal(err)
	}
	if fast == slow {
		t.Error("tau override had no effect")
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-alg", "warp-drive"},
		{"-machine", "cray"},
		{"-enc", "trinary"},
		{"-layout", "nope"},
		{"-layout", "1d-consecutive-rows", "-after", "custom([0,99))"},
		{"-p", "2", "-q", "2", "-n", "4", "-layout", "1d-consecutive-rows"},
	}
	for _, args := range cases {
		if _, err := run(t, args...); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
