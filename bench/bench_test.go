package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"boolcube"
)

// TestSmoke runs every workload in this process at tiny sizes and durations,
// first untraced and then traced, and checks what the result line promises:
// every metric BENCHMARK.json names, once, finite, under a well-formed name;
// no failed op; and simulated statistics that repeat between the two passes.
func TestSmoke(t *testing.T) {
	small = true
	defer func() { small = false }()
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	gold := &golden{Stats: make(map[string]boolcube.Stats), record: true}
	for _, traced := range []bool{false, true} {
		defs := endToEnd
		if traced {
			defs = perLayer
			gold.record = false // the traced pass must reproduce the untraced one
		}
		for _, w := range workloads() {
			e := &env{seed: 7, seconds: 0.1, gold: gold}
			if traced {
				e.tr = &tracer{}
			}
			m, err := w.run(e)
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", w.name, traced, err)
			}
			if m.failed != 0 || m.attempted == 0 {
				t.Errorf("%s (traced=%v): attempted %d, failed %d: %v", w.name, traced, m.attempted, m.failed, m.failures)
			}
			var got map[string]metricValue
			if traced {
				got, err = perLayerMetrics(e, m)
				if len(e.tr.spans) == 0 {
					t.Errorf("%s: traced pass recorded no spans", w.name)
				}
			} else {
				got, err = endToEndMetrics(m)
			}
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", w.name, traced, err)
			}
			if len(got) != len(defs) {
				t.Errorf("%s (traced=%v): %d metrics, want %d", w.name, traced, len(got), len(defs))
			}
			for _, d := range defs {
				v, ok := got[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s missing", w.name, d.Name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: metric %s = %v", w.name, d.Name, v.Value)
				case v.Unit != d.Unit:
					t.Errorf("%s: metric %s has unit %q, want %q", w.name, d.Name, v.Unit, d.Unit)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, v.Value)
				}
				if !nameRE.MatchString(d.Name) {
					t.Errorf("metric name %q is malformed", d.Name)
				}
			}
		}
	}
}

// TestManifest holds the checked-in BENCHMARK.json to what this build would
// write (go run ./bench -manifest) and to the limits of its contract.
func TestManifest(t *testing.T) {
	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("BENCHMARK.json is stale: regenerate it with go run ./bench -manifest > BENCHMARK.json")
	}
	m := currentManifest()
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), m.EndToEnd...), m.PerLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
	setup := false
	for _, d := range m.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range m.PerLayer {
		if d.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", d.Name)
		}
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range m.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
}

// TestGoldenCoversWorkloads: every deterministic op has its record.
func TestGoldenCoversWorkloads(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"cube16/scan16"}
	for _, s := range flowShapes() {
		want = append(want, "replay_flow/"+s.name)
	}
	for _, s := range exchShapes() {
		want = append(want, "replay_exch/"+s.name)
	}
	for _, k := range want {
		if st, ok := g.Stats[k]; !ok || st.Sends == 0 || st.Time == 0 {
			t.Errorf("golden.json has no usable record for %s", k)
		}
	}
	if len(g.SweepSHA256) != 64 {
		t.Errorf("golden.json sweep digest %q", g.SweepSHA256)
	}
}

// TestRecomposedFlowPipeline: the pipeline the traced pass recomposes from
// the layers' exported functions is the computation core.Execute performs —
// same distribution, same statistics — on 4-cube flow plans.
func TestRecomposedFlowPipeline(t *testing.T) {
	small = true
	defer func() { small = false }()
	prep, err := prepare(flowShapes(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range prep {
		if err := checkRecomposed(p); err != nil {
			t.Error(err)
		}
		tr := &tracer{}
		tr.beginOp("round")
		dist, _, err := flowPipeline(tr, p)
		tr.end()
		if err != nil {
			t.Fatal(err)
		}
		if err := dist.Verify(p.want); err != nil {
			t.Errorf("%s: %v", p.name, err)
		}
		self := tr.selfByLayer()
		for _, l := range []string{"plan", "core", "simnet", "router"} {
			if self[l] <= 0 {
				t.Errorf("%s: no self time attributed to layer %s", p.name, l)
			}
		}
	}
}

func TestRefusesSimnetDebug(t *testing.T) {
	t.Setenv("SIMNET_DEBUG", "1")
	var out bytes.Buffer
	err := realMain([]string{"-workload", "cube16", "-seconds", "0.1"}, &out)
	if err == nil || !strings.Contains(err.Error(), "SIMNET_DEBUG") {
		t.Errorf("realMain with SIMNET_DEBUG set: %v", err)
	}
}

// TestSpread pins the spread the acceptance rule uses to Python's
// statistics.quantiles(values, n=4) on a worked example, and the span
// accounting to children that overlap.
func TestSpread(t *testing.T) {
	v := []float64{10, 12, 11, 15, 13, 14, 12, 11, 13, 12}
	// statistics.quantiles(v, n=4) == [11.0, 12.0, 13.25]
	if q1, q3 := quartileExclusive(v, 0.25), quartileExclusive(v, 0.75); q1 != 11 || q3 != 13.25 {
		t.Errorf("quartiles %v, %v, want 11, 13.25", q1, q3)
	}
	if got, want := relSpread(v), 2.25/12; math.Abs(got-want) > 1e-12 {
		t.Errorf("relSpread %v, want %v", got, want)
	}
	if got := covered([][2]int64{{0, 10}, {5, 12}, {20, 30}, {22, 25}}); got != 22 {
		t.Errorf("covered = %d, want 22", got)
	}
}

// TestResultLine: the line a workload run prints last has exactly the keys
// of the contract.
func TestResultLine(t *testing.T) {
	b, err := json.Marshal(result{Correct: true, Attempted: 3, Metrics: map[string]metricValue{"setup_s": {0.5, "s"}}})
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"correct": true, "attempted": 3.0, "failed": 0.0,
		"metrics": map[string]any{"setup_s": map[string]any{"value": 0.5, "unit": "s"}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("result line %s", b)
	}
}
