package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"boolcube"
)

// goldenFile holds the simulated statistics every deterministic op must
// reproduce bit for bit: host-side speed never moves a virtual-time result.
// Only a benchmark change regenerates it (go run ./bench -update-golden).
//
//go:embed golden.json
var goldenFile []byte

// golden maps "<workload>/<shape>" to Stats.Logical() plus Stats.Time, and
// holds the SHA-256 of the sweep's deterministic tables.
type golden struct {
	Stats       map[string]boolcube.Stats `json:"stats"`
	SweepSHA256 string                    `json:"sweep_sha256"`

	// record makes check store what it sees instead of comparing.
	record bool
}

func loadGolden() (*golden, error) {
	g := &golden{}
	if err := json.Unmarshal(goldenFile, g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	if g.Stats == nil {
		g.Stats = make(map[string]boolcube.Stats)
	}
	return g, nil
}

// goldenStats is the part of a run's statistics that must repeat exactly.
func goldenStats(st boolcube.Stats) boolcube.Stats {
	g := st.Logical()
	g.Time = st.Time
	return g
}

// check compares one op's statistics with the golden record.
func (g *golden) check(key string, st boolcube.Stats) error {
	got := goldenStats(st)
	if g.record {
		g.Stats[key] = got
		return nil
	}
	want, ok := g.Stats[key]
	if !ok {
		return fmt.Errorf("golden: no record for %s (run -update-golden)", key)
	}
	if got != want {
		return fmt.Errorf("golden: %s simulated stats moved: got %+v, want %+v", key, got, want)
	}
	return nil
}

// checkSweep compares the digest of the sweep's deterministic tables.
func (g *golden) checkSweep(sha string) error {
	if g.record {
		g.SweepSHA256 = sha
		return nil
	}
	if sha != g.SweepSHA256 {
		return fmt.Errorf("golden: sweep tables moved: sha256 %s, want %s", sha, g.SweepSHA256)
	}
	return nil
}

// save writes the record back to bench/golden.json (-update-golden).
func (g *golden) save(path string) error {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	return nil
}
