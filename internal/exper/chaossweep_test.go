package exper

import (
	"slices"
	"strconv"
	"testing"
)

// chaos-sweep is left out of both goldens because its livenet half runs on
// the wall clock; this pins the half that is deterministic. The simnet rows
// are asserted cell for cell; every livenet row must account for all four of
// its runs as direct or recovered, none failed. It is not skipped under
// -short: generating the table runs the one-goroutine-per-cell fan-out, so
// this is also that fan-out's coverage under the race detector.
func TestChaosSweep(t *testing.T) {
	tab, err := Run("chaos-sweep")
	if err != nil {
		t.Fatal(err)
	}
	simnet := map[string][]string{ // algorithm/k -> direct, recovered, failed, bytes, ratio
		"SPT/1": {"3", "1", "0", "1024", "0.02"},
		"SPT/2": {"1", "3", "0", "2389", "0.05"},
		"DPT/1": {"3", "1", "0", "1024", "0.02"},
		"DPT/2": {"1", "3", "0", "2389", "0.05"},
		"MPT/1": {"3", "1", "0", "1024", "0.02"},
		"MPT/2": {"1", "3", "0", "1544", "0.03"},
	}
	live := 0
	for _, r := range tab.Rows {
		if len(r) != 8 {
			t.Fatalf("row %v has %d cells, want 8", r, len(r))
		}
		key := r[0] + "/" + r[2]
		switch r[1] {
		case "simnet":
			want, ok := simnet[key]
			if !ok {
				t.Errorf("unexpected simnet row %v", r)
				continue
			}
			if !slices.Equal(r[3:], want) {
				t.Errorf("simnet %s: got %v, want %v", key, r[3:], want)
			}
			delete(simnet, key)
		case "livenet":
			live++
			direct, _ := strconv.Atoi(r[3])
			recovered, _ := strconv.Atoi(r[4])
			if direct+recovered != 4 || r[5] != "0" {
				t.Errorf("livenet %s: direct %s + recovered %s != 4 or failed %s != 0", key, r[3], r[4], r[5])
			}
		default:
			t.Errorf("unknown backend in row %v", r)
		}
	}
	for key := range simnet {
		t.Errorf("simnet row %s missing", key)
	}
	if live != 6 {
		t.Errorf("%d livenet rows, want 6", live)
	}
}
