package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"

	"boolcube/internal/exper"
)

// wallClockTables are the experiments whose cells are host wall-clock
// readings; every other table is a pure function of the code and must hash
// to the golden digest.
var wallClockTables = map[string]bool{"service-sweep": true, "chaos-sweep": true}

// sweepIDs lists the experiments one sweep op generates: the whole registry,
// or three quick tables for the smoke test.
func sweepIDs() []string {
	if small {
		return []string{"table1", "table3", "fig16"}
	}
	return exper.IDs()
}

// sweepReport is what one sweep hands back: the digest of its deterministic
// tables and, per experiment, when its generator started and ended.
type sweepReport struct {
	SHA256 string     `json:"sha256"`
	IDs    []string   `json:"ids"`
	Spans  [][2]int64 `json:"spans_ns"` // per id: start, end since the sweep began
	WallNs int64      `json:"wall_ns"`
}

// sweepOnce generates the whole registry as cmd/experiments -all does:
// exper.RunMany's fan-out (exper.Par over exper.Run, one worker per CPU),
// every table rendered as text to a discarded writer. It is RunMany
// recomposed so that each generator can be timed.
func sweepOnce() (*sweepReport, error) {
	ids := sweepIDs()
	type timedTable struct {
		tab        *exper.Table
		start, end time.Duration
	}
	t0 := now()
	tabs, err := exper.Par(len(ids), 0, func(i int) (timedTable, error) {
		s := now()
		t, err := exper.Run(ids[i])
		if err != nil {
			return timedTable{}, fmt.Errorf("%s: %w", ids[i], err)
		}
		return timedTable{t, s - t0, now() - t0}, nil
	})
	if err != nil {
		return nil, err
	}
	rep := &sweepReport{IDs: ids}
	var deterministic bytes.Buffer
	for i, tt := range tabs {
		text := tt.tab.String()
		if _, err := io.WriteString(io.Discard, text); err != nil {
			return nil, err
		}
		if !wallClockTables[ids[i]] {
			deterministic.WriteString(text)
		}
		rep.Spans = append(rep.Spans, [2]int64{int64(tt.start), int64(tt.end)})
	}
	digest := sha256.Sum256(deterministic.Bytes())
	rep.SHA256 = hex.EncodeToString(digest[:])
	rep.WallNs = int64(now() - t0)
	return rep, nil
}

// sweepChildMain is the body of the re-executed child: one cold sweep (or
// nothing at all with noop, which measures process start), the report as one
// JSON line on stdout.
func sweepChildMain(noop bool, out io.Writer) error {
	rep := &sweepReport{}
	if !noop {
		var err error
		if rep, err = sweepOnce(); err != nil {
			return err
		}
	} else {
		rep.IDs = sweepIDs()
	}
	return json.NewEncoder(out).Encode(rep)
}

// sweepChild runs one sweep in a fresh child process — the plan cache and
// the heap start cold, which is what a cmd/experiments -all user pays — and
// returns its report, the wall time from spawn to exit and the child's peak
// resident set in MB.
func sweepChild(noop bool) (*sweepReport, time.Duration, float64, error) {
	t0 := now()
	var buf bytes.Buffer
	rssMB := 0.0
	if small { // a test binary cannot re-execute itself as the benchmark
		if err := sweepChildMain(noop, &buf); err != nil {
			return nil, 0, 0, err
		}
		var err error
		if rssMB, err = peakRSSMB(); err != nil {
			return nil, 0, 0, err
		}
	} else {
		exe, err := os.Executable()
		if err != nil {
			return nil, 0, 0, fmt.Errorf("sweep: %w", err)
		}
		args := []string{"-sweep-child"}
		if noop {
			args = append(args, "-sweep-noop")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout = &buf
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, 0, 0, fmt.Errorf("sweep child: %w", err)
		}
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			rssMB = float64(ru.Maxrss) / 1024 // Linux reports KB
		}
	}
	wall := now() - t0
	rep := &sweepReport{}
	if err := json.Unmarshal(buf.Bytes(), rep); err != nil {
		return nil, 0, 0, fmt.Errorf("sweep child report: %w", err)
	}
	return rep, wall, rssMB, nil
}

// runSweep is the researcher's workload: op = the full experiment registry
// in a fresh child process. Set-up is what precedes the first generator:
// process start and registry initialisation, measured by starting a child
// that does nothing else. The seed does not reach this workload: the
// registry's inputs are fixed by the paper's figures.
func runSweep(e *env) (*measured, error) {
	m := newMeasured()
	for i := 0; i < 11; i++ {
		_, wall, _, err := sweepChild(true)
		if err != nil {
			return nil, err
		}
		m.setups = append(m.setups, sec(wall))
	}
	// The child times every generator whether or not this is the traced
	// pass (two clock readings per table), so the traced op is the same
	// child op with its spans kept, and tracing costs nothing extra.
	peak, ops := 0.0, 0
	child := func() error {
		base := now()
		rep, wall, rss, err := sweepChild(false)
		if err != nil {
			return err
		}
		ops++
		if rss > peak {
			peak = rss
		}
		root, serial := 0, 0.0
		if e.traced() {
			e.tr.add("bench.sweep", ops, -1, base, base+wall)
			root = len(e.tr.spans) - 1
		}
		for i, id := range rep.IDs {
			s, t := time.Duration(rep.Spans[i][0]), time.Duration(rep.Spans[i][1])
			e.tr.add("exper."+id, ops, root, base+s, base+t)
			m.set("exper."+id+"_ms", ms(t-s), "ms")
			serial += ms(t - s)
		}
		workers := runtime.GOMAXPROCS(0)
		if workers > len(rep.IDs) {
			workers = len(rep.IDs)
		}
		m.set("exper.par_efficiency", serial/(ms(time.Duration(rep.WallNs))*float64(workers)), "ratio")
		return e.gold.checkSweep(rep.SHA256)
	}
	if e.traced() {
		m.ops = []float64{ms(m.attempt(child))}
		m.plain = m.ops
		return m, nil
	}
	m.timed(e.seconds, 2, child)
	m.set("peak_rss_mb", peak, "MB")
	return m, nil
}
