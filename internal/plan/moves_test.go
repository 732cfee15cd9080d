package plan

import (
	"slices"
	"strings"
	"testing"

	"boolcube/internal/comm"
	"boolcube/internal/field"
	"boolcube/internal/machine"
)

// panicOf runs f and returns what it panicked with, or nil.
func panicOf(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// Both range calls refuse a range outside the payload with the same plan:
// panic, instead of slicing out of bounds.
func TestRangeCallsRejectBadRange(t *testing.T) {
	l := field.OneDimConsecutiveRows(3, 3, 2, field.Binary)
	mv := MustMoves(l, l, true)
	src, dst := make([]float64, l.LocalSize()), make([]float64, l.LocalSize())
	n := mv.PayloadLen(0, 1)
	const want = "plan: payload range does not match move-set"
	for _, r := range []struct{ off, n int }{{-1, 1}, {0, n + 1}, {n, 1}, {1, n}} {
		for name, call := range map[string]func(){
			"GatherRange":     func() { mv.GatherRange(0, src, 1, r.off, r.n) },
			"GatherRangeInto": func() { mv.GatherRangeInto(0, src, 1, r.off, r.n, make([]float64, r.n)) },
			"ScatterRange":    func() { mv.ScatterRange(1, dst, 0, r.off, make([]float64, r.n)) },
		} {
			if got := panicOf(call); got != want {
				t.Errorf("%s(off=%d, n=%d) of a %d-element payload panicked with %v, want %q", name, r.off, r.n, n, got, want)
			}
		}
	}
	if got := panicOf(func() { mv.GatherRange(0, src, 1, 0, -1) }); got != want {
		t.Errorf("GatherRange with n = -1 panicked with %v, want %q", got, want)
	}
}

// GatherInto fills the front of a longer buffer with Gather's payload and
// returns its length, and refuses a shorter one.
func TestGatherIntoWritesFront(t *testing.T) {
	l := field.OneDimConsecutiveRows(3, 3, 2, field.Binary)
	mv := MustMoves(l, l, true)
	src := make([]float64, l.LocalSize())
	for i := range src {
		src[i] = float64(i + 1)
	}
	want := mv.Gather(0, src, 1)
	buf := make([]float64, len(want)+3)
	if n := mv.GatherInto(0, src, 1, buf); n != len(want) || !slices.Equal(buf[:n], want) || buf[n] != 0 {
		t.Errorf("GatherInto wrote %d elements %v, want %v and the rest untouched", n, buf, want)
	}
	if got := panicOf(func() { mv.GatherInto(0, src, 1, buf[:len(want)-1]) }); got != "plan: gather buffer shorter than the payload" {
		t.Errorf("GatherInto into a short buffer panicked with %v", got)
	}
}

// A run holds int32 slots, so a local array past 2^31-1 elements on either
// side is refused up front, before any per-processor array is allocated.
func TestNewMovesRefusesLocalArraysPastInt32(t *testing.T) {
	huge := field.OneDimConsecutiveRows(16, 16, 0, field.Binary) // 2^32 elements on one processor
	fits := field.OneDimConsecutiveRows(16, 16, 2, field.Binary) // 2^30 each on four
	for _, pair := range [][2]field.Layout{{huge, fits}, {fits, huge}} {
		_, err := NewMoves(pair[0], pair[1], true)
		if err == nil || !strings.Contains(err.Error(), "int32") {
			t.Errorf("NewMoves(%s -> %s) = %v, want the int32 refusal", pair[0], pair[1], err)
		}
	}
}

// copyRuns reads and writes any progression, descending ones included, from
// any element offset. NewMoves never emits a descending run (a pair's
// destination slots are a bit permutation of its element index, so every
// run climbs), which is why this is tested on hand-built runs.
func TestCopyRunsWalksAnyStride(t *testing.T) {
	runs := []run{{start: 7, stride: -2, n: 3}, {start: 0, stride: 1, n: 2}, {start: 9, stride: 1, n: 1}, {start: 6, stride: -4, n: 2}}
	seq := []int{7, 5, 3, 0, 1, 9, 6, 2}
	local := make([]float64, 10)
	for i := range local {
		local[i] = float64(i)
	}
	for off := 0; off <= len(seq); off++ {
		for n := 0; off+n <= len(seq); n++ {
			buf := make([]float64, n)
			copyRuns(runs, off, local, buf, false)
			out := make([]float64, len(local))
			copyRuns(runs, off, out, buf, true)
			for i, s := range seq[off : off+n] {
				if buf[i] != float64(s) || out[s] != float64(s) {
					t.Fatalf("[%d,+%d): element %d gathered %v, scattered slot %d = %v; want slot %d both ways", off, n, i, buf[i], s, out[s], s)
				}
			}
		}
	}
}

// The retained size of a compiled move-set is its runs, so it must stay
// run-length: on the layouts bench's replay workloads compile (see
// bench/shapes.go), every pair keeps at most the runs measured when the
// representation landed. A return to per-element storage — 1024 slots per
// pair on the 8-cube shapes — fails here.
func TestReplayMoveSetsStayRunLength(t *testing.T) {
	for _, c := range []struct {
		name          string
		alg           Algorithm
		before        field.Layout
		cfg           Config
		maxOut, maxIn int
	}{
		{"a2a7", SBnT, field.OneDimConsecutiveRows(7, 7, 7, field.Binary), Config{Machine: machine.IPSCNPort()}, 1, 1},
		{"mpt8", MPT, field.TwoDimConsecutive(9, 9, 4, 4, field.Binary), Config{Machine: machine.IPSCNPort(), Packets: 4}, 1, 32},
		{"exbuf8", Exchange, field.OneDimConsecutiveRows(9, 9, 8, field.Binary), Config{Machine: machine.IPSC(), Strategy: comm.Buffered}, 2, 2},
		{"ex2d8", Exchange, field.TwoDimConsecutive(9, 9, 4, 4, field.Binary), Config{Machine: machine.IPSC()}, 1, 32},
		{"mixed6", MixedCombined, field.TwoDimEncoded(7, 7, 3, 3, field.Binary, field.Gray), Config{Machine: machine.IPSC()}, 1, 16},
	} {
		p, err := Compile(c.alg, c.before, c.before, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		mv := p.Moves()
		for _, side := range []struct {
			name string
			x    *index
			max  int
		}{{"out", &mv.out, c.maxOut}, {"in", &mv.in, c.maxIn}} {
			most := 0
			for i := range side.x.peer {
				most = max(most, side.x.at[i+1]-side.x.at[i])
			}
			if most > side.max {
				t.Errorf("%s: a pair holds %d %s-side runs, want <= %d", c.name, most, side.name, side.max)
			}
		}
	}
}
