package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"boolcube/internal/fabric"
	"boolcube/internal/field"
	"boolcube/internal/machine"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
	"boolcube/internal/plan/plantest"
	"boolcube/internal/trace"
)

// TestCheckpointAtEveryDeadline proves checkpoints correct at every failure
// instant a run has: for every registry row, on its plantest.Pair layouts and
// on one-dimensional consecutive rows (where the row compiles them), on an
// n-port and a Connection Machine model, it cuts a clean run with a deadline
// at each distinct operation end inside (0, makespan). At each cut the
// checkpoint's delivery record must be true — every span it claims holds the
// clean run's elements in Loc — its sunk cost must be what the cut run
// traced, and Resume, looped on *ExecError, must finish bit-identical to the
// clean run. A progress record filed under the wrong node, or a checkpoint
// that drops the cost already paid, leaves every uninterrupted result intact
// and fails here.
func TestCheckpointAtEveryDeadline(t *testing.T) {
	deadlines, aborts := 0, 0
	for _, mach := range []machine.Params{machine.IPSCNPort(), machine.ConnectionMachine()} {
		for _, n := range []int{2, 3, 4} {
			p, q := n, n
			// Shifted iota: every element is nonzero and distinct, so a
			// span claimed over still-zero destination slots cannot pass.
			m := matrix.NewIota(p, q)
			for i := range m.Data {
				m.Data[i]++
			}
			for _, alg := range plan.Algorithms() {
				before, after, transposes := plantest.Pair(alg, p, q, n)
				oneDim := field.OneDimConsecutiveRows(q, p, n, field.Binary)
				if !transposes {
					oneDim = field.OneDimConsecutiveRows(p, q, n, field.Gray)
				}
				pairs := []struct {
					name          string
					before, after field.Layout
					required      bool
				}{
					{"pair", before, after, true},
					{"1d-rows", field.OneDimConsecutiveRows(p, q, n, field.Binary), oneDim, false},
				}
				for _, lp := range pairs {
					name := fmt.Sprintf("%s/n%d/%s/%s", mach.Name, n, alg, lp.name)
					pl, err := plan.Default.Compile(alg, lp.before, lp.after, opts(mach).PlanConfig())
					if err != nil {
						if lp.required {
							t.Fatalf("%s: %v", name, err)
						}
						continue
					}
					d, a := deadlineSweep(t, name, pl, m)
					deadlines += d
					aborts += a
				}
			}
		}
	}
	t.Logf("%d deadlines, %d aborts", deadlines, aborts)
	if aborts == 0 {
		t.Fatal("no deadline aborted a run; the sweep checked no checkpoint")
	}
}

// deadlineSweep runs one cell of TestCheckpointAtEveryDeadline and returns
// how many deadlines it tried and how many of them aborted the run.
func deadlineSweep(t *testing.T, name string, pl *plan.Plan, m *matrix.Matrix) (deadlines, aborts int) {
	t.Helper()
	rec := trace.New()
	clean, err := ExecuteWith(pl, matrix.Scatter(m, pl.Before()), ExecOptions{Tracer: rec})
	if err != nil {
		t.Fatalf("%s: clean run: %v", name, err)
	}
	var ends []float64
	for _, ev := range rec.Events {
		if ev.End > 0 && ev.End < clean.Stats.Time {
			ends = append(ends, ev.End)
		}
	}
	slices.Sort(ends)
	for _, at := range slices.Compact(ends) {
		deadlines++
		cut := trace.New()
		res, err := ExecuteWith(pl, matrix.Scatter(m, pl.Before()), ExecOptions{Deadline: at, Tracer: cut})
		if err != nil {
			var xe *ExecError
			if !errors.As(err, &xe) {
				t.Fatalf("%s: deadline %g: %v (not a resumable *ExecError)", name, at, err)
			}
			aborts++
			cp := xe.Checkpoint
			got, want := cp.Stats, tracedCost(cut)
			if got.Time != want.Time || got.Sends != want.Sends || got.Bytes != want.Bytes {
				t.Fatalf("%s: deadline %g: checkpoint carries sunk cost t=%g, %d sends, %d bytes; the cut run traced t=%g, %d sends, %d bytes",
					name, at, got.Time, got.Sends, got.Bytes, want.Time, want.Sends, want.Bytes)
			}
			checkDelivered(t, fmt.Sprintf("%s: deadline %g", name, at), cp, clean.Dist)
			for attempt := 0; err != nil; attempt++ {
				if attempt == 4 {
					t.Fatalf("%s: deadline %g: resume did not converge in 4 attempts", name, at)
				}
				if res, err = Resume(xe.Checkpoint, ExecOptions{}); err != nil && !errors.As(err, &xe) {
					t.Fatalf("%s: deadline %g: resume: %v (not a resumable *ExecError)", name, at, err)
				}
			}
		}
		if diff := diffBits(res.Dist, clean.Dist); diff != "" {
			t.Fatalf("%s: deadline %g: %s", name, at, diff)
		}
	}
	return deadlines, aborts
}

// checkDelivered asserts that every span the checkpoint records as
// delivered is really in its Loc arrays: each destination slot the span's
// move-set runs mark holds the clean run's element.
func checkDelivered(t *testing.T, name string, cp *Checkpoint, clean *matrix.Dist) {
	t.Helper()
	mv := cp.Plan.Moves()
	for src := range cp.Src.Local {
		for dst, loc := range cp.Loc {
			if loc == nil {
				continue
			}
			for _, s := range cp.Delivered.Spans(uint64(src), uint64(dst)) {
				marks := make([]float64, len(loc))
				ones := make([]float64, s.Len)
				for i := range ones {
					ones[i] = 1
				}
				mv.ScatterRange(uint64(dst), marks, uint64(src), s.Off, ones)
				for i, mark := range marks {
					if mark == 1 && math.Float64bits(loc[i]) != math.Float64bits(clean.Local[dst][i]) {
						t.Fatalf("%s: checkpoint claims %d->%d [%d,+%d) delivered but Loc[%d][%d]=%v want %v",
							name, src, dst, s.Off, s.Len, dst, i, loc[i], clean.Local[dst][i])
					}
				}
			}
		}
	}
}

// tracedCost is the part of a run's Stats its trace determines: the last
// operation end, and the count and volume of its sends.
func tracedCost(rec *trace.Recorder) fabric.Stats {
	var st fabric.Stats
	for _, ev := range rec.Events {
		st.Time = max(st.Time, ev.End)
		if ev.Kind == "send" {
			st.Sends++
			st.Bytes += int64(ev.Bytes)
		}
	}
	return st
}

// diffBits compares two distributions bit for bit and describes the first
// difference, or returns "" when they are identical.
func diffBits(got, want *matrix.Dist) string {
	if len(got.Local) != len(want.Local) {
		return fmt.Sprintf("%d local arrays, clean run has %d", len(got.Local), len(want.Local))
	}
	for i := range want.Local {
		if len(got.Local[i]) != len(want.Local[i]) {
			return fmt.Sprintf("Local[%d] has %d elements, clean run has %d", i, len(got.Local[i]), len(want.Local[i]))
		}
		for j, w := range want.Local[i] {
			if g := got.Local[i][j]; math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Sprintf("Local[%d][%d] = %v, clean run has %v", i, j, g, w)
			}
		}
	}
	return ""
}
