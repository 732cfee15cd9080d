// Command bench is the repository's one benchmark: five named workloads,
// end-to-end metrics a user of the system would see, per-layer metrics from a
// separate traced pass, every result verified element-exact and every
// simulated statistic held to golden.json. See README.md in this directory
// and BENCHMARK.json at the repository root.
//
//	go run ./bench -seed 1                    every workload, end-to-end metrics
//	go run ./bench -seed 1 -trace 1           every workload, per-layer metrics + span files
//	go run ./bench -aa 2                      the whole benchmark twice, differences vs bounds
//	go run ./bench -workload cube16 -seed 3 -seconds 15 -trace 0
//	                                          one workload in this process; the last
//	                                          line of output is the JSON result
//	go run ./bench -update-golden             regenerate bench/golden.json
//	go run ./bench -manifest                  print BENCHMARK.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"boolcube"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long one workload run
// measures.
const defaultSeconds = 15

// outDir is where span files and result records go; bench/.gitignore
// excludes it.
const outDir = "bench/out"

func main() {
	if err := realMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err) //cubevet:ignore liberrors -- last-resort diagnostic before exiting non-zero
		os.Exit(1)
	}
}

func realMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload in this process and print its JSON result last (default: all, one child process each)")
	seed := fs.Int64("seed", 1, "seed for every generated input: matrix contents, the service job draw and arrival schedule")
	seconds := fs.Float64("seconds", defaultSeconds, "how long one workload run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass, spans written to "+outDir)
	aa := fs.Int("aa", 0, "run the whole benchmark this many times on the same build and compare the runs with the bounds")
	update := fs.Bool("update-golden", false, "regenerate bench/golden.json from this build (benchmark changes only)")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	sweepChild := fs.Bool("sweep-child", false, "internal: run one cold sweep and print its report")
	sweepNoop := fs.Bool("sweep-noop", false, "internal: with -sweep-child, start and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if os.Getenv("SIMNET_DEBUG") != "" {
		// Debug assertions and per-element address tags change the program
		// being measured.
		return fmt.Errorf("refusing to measure with SIMNET_DEBUG set")
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	switch {
	case *sweepChild:
		return sweepChildMain(*sweepNoop, stdout)
	case *manifest:
		return writeManifest(stdout)
	case *update:
		return updateGolden(stdout)
	case *name != "":
		return runOne(stdout, *name, *seed, *seconds, *trace == 1)
	case *aa > 0:
		return runAA(stdout, *aa, *seed, *seconds)
	default:
		_, err := runAll(stdout, *seed, *seconds, *trace == 1)
		return err
	}
}

// conditions are recorded with every result: numbers without them cannot be
// compared.
type conditions struct {
	Commit     string  `json:"commit"`
	Date       string  `json:"date"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

func currentConditions(seed int64, seconds float64, trace bool) conditions {
	commit := "unknown" // a checkout without .git, as the driver's
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return conditions{
		Commit: commit, Date: time.Now().UTC().Format(time.RFC3339), //cubevet:ignore detbreak -- the record's date stamp
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: seed, Seconds: seconds, Trace: trace,
	}
}

func (c conditions) String() string {
	return fmt.Sprintf("commit %s  %s  %s  GOMAXPROCS %d  NumCPU %d  seed %d  seconds %g  trace %v",
		c.Commit, c.Date, c.GoVersion, c.GOMAXPROCS, c.NumCPU, c.Seed, c.Seconds, c.Trace)
}

// record is what one workload run leaves in bench/out: the result line plus
// everything the line has no room for.
type record struct {
	Workload   string                 `json:"workload"`
	Conditions conditions             `json:"conditions"`
	Result     result                 `json:"result"`
	Samples    map[string]summary     `json:"samples"`
	Detail     map[string]metricValue `json:"detail"`
	SetupS     []float64              `json:"setup_s"`
	OpMs       []float64              `json:"op_ms"`
	Failures   []string               `json:"failures,omitempty"`
	WallS      float64                `json:"wall_s"`
}

// runOne runs one workload in this process: the driver's entry point, and
// what the orchestrating modes re-execute once per workload so that the plan
// cache and the heap start cold and peak RSS is the workload's own.
func runOne(stdout io.Writer, name string, seed int64, seconds float64, trace bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	gold, err := loadGolden()
	if err != nil {
		return err
	}
	e := &env{seed: seed, seconds: seconds, gold: gold}
	if trace {
		e.tr = &tracer{}
	}
	cond := currentConditions(seed, seconds, trace)
	t0 := now()
	m, err := w.run(e)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	rec := record{Workload: name, Conditions: cond, Detail: m.detail, SetupS: m.setups, OpMs: m.ops, Failures: m.failures}
	rec.Result = result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed}
	rec.Samples = map[string]summary{"setup_s": summarize(m.setups), "op_ms": summarize(m.ops)}
	if trace {
		rec.Result.Metrics, err = perLayerMetrics(e, m)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := e.tr.write(outDir, name); err != nil {
			return err
		}
	} else {
		if rec.Result.Metrics, err = endToEndMetrics(m); err != nil {
			return err
		}
		m.set("op_ms_p90", quantile(m.ops, 0.9), "ms")
	}
	rec.WallS = sec(now() - t0)

	var buf bytes.Buffer
	fmt.Fprintf(&buf, "workload %s  %s\n", name, cond)
	fmt.Fprintf(&buf, "  attempted %d  failed %d  wall %.1f s\n", m.attempted, m.failed, rec.WallS)
	for _, f := range m.failures {
		fmt.Fprintf(&buf, "  FAILED: %s\n", f)
	}
	for _, k := range []string{"setup_s", "op_ms"} {
		s := rec.Samples[k]
		fmt.Fprintf(&buf, "  %-28s n=%-5d p25 %-12.6g p50 %-12.6g p75 %-12.6g\n", k, s.N, s.P25, s.P50, s.P75)
	}
	printReadings(&buf, "  ", rec.Result.Metrics)
	if len(m.detail) > 0 {
		fmt.Fprintf(&buf, "  -- detail (not in BENCHMARK.json)\n")
		printReadings(&buf, "  ", m.detail)
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		return err
	}
	buf.Write(line)
	buf.WriteByte('\n')
	if err := writeRecord(rec, trace); err != nil {
		return err
	}
	_, err = stdout.Write(buf.Bytes())
	return err
}

func printReadings(buf *bytes.Buffer, indent string, ms map[string]metricValue) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(buf, "%s%-28s %-14.6g %s\n", indent, k, ms[k].Value, ms[k].Unit)
	}
}

func writeRecord(rec record, trace bool) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	mode := "e2e"
	if trace {
		mode = "layers"
	}
	return os.WriteFile(filepath.Join(outDir, fmt.Sprintf("result_%s_%s.json", rec.Workload, mode)), append(b, '\n'), 0o644)
}

// runChild re-executes this binary for one workload, passes its report
// through, and returns the parsed result line.
func runChild(stdout io.Writer, name string, seed int64, seconds float64, trace bool) (result, error) {
	var res result
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", t)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("%s: %w", name, err)
	}
	text := strings.TrimRight(out.String(), "\n")
	i := strings.LastIndexByte(text, '\n')
	if _, err := io.WriteString(stdout, text[:i+1]); err != nil {
		return res, err
	}
	if err := json.Unmarshal([]byte(text[i+1:]), &res); err != nil {
		return res, fmt.Errorf("%s: result line: %w", name, err)
	}
	return res, nil
}

// runAll runs every workload, each in its own fresh child process.
func runAll(stdout io.Writer, seed int64, seconds float64, trace bool) (map[string]result, error) {
	all := make(map[string]result)
	bad := 0
	for _, w := range workloads() {
		res, err := runChild(stdout, w.name, seed, seconds, trace)
		if err != nil {
			return nil, err
		}
		all[w.name] = res
		bad += res.Failed
	}
	if bad > 0 {
		return all, fmt.Errorf("%d op(s) failed", bad)
	}
	return all, nil
}

// runAA is the A/A mode: the whole benchmark n times on one build. For every
// end-to-end metric and workload it prints the runs' relative difference
// beside the metric's bound and fails if any difference exceeds its bound.
func runAA(stdout io.Writer, n int, seed int64, seconds float64) error {
	if n < 2 {
		return fmt.Errorf("-aa needs at least 2 runs")
	}
	runs := make([]map[string]result, n)
	for i := range runs {
		var err error
		if runs[i], err = runAll(stdout, seed, seconds, false); err != nil {
			return err
		}
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "\nA/A over %d runs  %s\n", n, currentConditions(seed, seconds, false))
	fmt.Fprintf(&buf, "%-12s %-12s %14s %14s %9s %7s\n", "workload", "metric", "min", "max", "diff", "bound")
	over := 0
	for _, w := range workloads() {
		for _, d := range endToEnd {
			vals := make([]float64, n)
			for i := range runs {
				vals[i] = runs[i][w.name].Metrics[d.Name].Value
			}
			lo, hi := quantile(vals, 0), quantile(vals, 1)
			diff := (hi - lo) / lo
			mark := ""
			if diff > d.Bound {
				mark = "  OVER"
				over++
			}
			fmt.Fprintf(&buf, "%-12s %-12s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", w.name, d.Name, lo, hi, 100*diff, 100*d.Bound, mark)
		}
	}
	if _, err := stdout.Write(buf.Bytes()); err != nil {
		return err
	}
	if over > 0 {
		return fmt.Errorf("A/A: %d metric(s) differ by more than their bound", over)
	}
	return nil
}

// updateGolden reruns the deterministic workloads briefly in this process,
// recording instead of comparing, and rewrites bench/golden.json.
func updateGolden(stdout io.Writer) error {
	gold := &golden{Stats: make(map[string]boolcube.Stats), record: true}
	for _, w := range workloads() {
		if w.name == "service" {
			continue // rounds compose by arrival timing; nothing repeats exactly
		}
		if _, err := w.run(&env{seed: 1, seconds: 0.1, gold: gold}); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
	}
	if err := gold.save("bench/golden.json"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(stdout, "wrote bench/golden.json: %d stats records, sweep sha256 %s\n", len(gold.Stats), gold.SweepSHA256)
	return err
}
