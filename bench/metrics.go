package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// metricDef declares one metric of BENCHMARK.json. Bound (end-to-end metrics
// only) is the share of the parent's median by which the metric may get
// worse before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system would see, reported by
// every workload. All four carry the largest bound a benchmark may declare:
// three times the usual run-to-run spread on the 2-CPU dev host would allow
// 0.20 for the middle two, but the host has noisy minutes in which ten runs
// of one workload spread by 20% (README.md has the three measured sets).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// metricValue is one reading in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload run prints: exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// peakRSSMB reads this process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// endToEndMetrics folds an untraced run into the end-to-end metrics.
func endToEndMetrics(m *measured) (map[string]metricValue, error) {
	rss, ok := m.detail["peak_rss_mb"]
	if !ok {
		v, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rss = metricValue{v, "MB"}
	}
	return map[string]metricValue{
		"setup_s":     {median(m.setups), "s"},
		"op_ms_p50":   {median(m.ops), "ms"},
		"ops_per_s":   {m.opsPerSec, "1/s"},
		"peak_rss_mb": {rss.Value, "MB"},
	}, nil
}

// manifest is BENCHMARK.json: exactly these keys.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []manifestLoad `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func currentManifest() manifest {
	m := manifest{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads() {
		m.Workloads = append(m.Workloads, manifestLoad{w.name, w.why})
	}
	return m
}

// writeManifest prints BENCHMARK.json as this build defines it; the smoke
// test holds the checked-in file to it.
func writeManifest(w io.Writer) error {
	b, err := json.MarshalIndent(currentManifest(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// shareLayers are the layers a workload's traced op can spend self time in,
// as seen from outside: the layer of each span is the module whose exported
// function the span wraps; "bench" is the benchmark's own code around them.
var shareLayers = []string{"plan", "matrix", "core", "router", "simnet", "service", "exper", "bench"}

// perLayer are the single-layer metrics of the traced pass. The layer probes
// (probes.go) are timings of one layer's exported functions on fixed shapes;
// share.<layer>_pct is the layer's self time as a share of this workload's
// traced ops; simnet.sends/startups/sim_time_us are the simulated statistics
// of one op of this workload, which repeat exactly (except on service, whose
// rounds compose by arrival timing, and on sweep, which reports none).
var perLayer = perLayerDefs()

func perLayerDefs() []metricDef {
	lower := func(unit string, names ...string) []metricDef {
		var out []metricDef
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: "lower"})
		}
		return out
	}
	var d []metricDef
	d = append(d, lower("ms", "plan.compile_ms", "plan.newmoves_ms")...)
	d = append(d, lower("us", "plan.cache_hit_us")...)
	d = append(d, lower("ns", "field.localof_ns", "field.procof_ns", "field.elementof_ns")...)
	d = append(d, lower("ms", "matrix.scatter_ms", "matrix.verify_ms")...)
	d = append(d, lower("ms", "core.execute_ms", "core.gather_ms", "core.scatter_ms", "core.oneshot_ms", "core.recover_ms")...)
	d = append(d, lower("MB", "core.alloc_mb_per_op")...)
	d = append(d, lower("count", "core.mallocs_per_op")...)
	d = append(d, lower("ms", "router.run_ms", "router.failover_ms")...)
	d = append(d, lower("count", "router.flows")...)
	d = append(d, lower("ns", "router.ns_per_flow")...)
	d = append(d, lower("ms", "comm.exchange_ms")...)
	d = append(d, lower("ms", "simnet.new_ms.n6", "simnet.new_ms.n8", "simnet.new_ms.n16",
		"simnet.scan_ms.n12", "simnet.scan_ms.n14", "simnet.serial_ms.n10", "simnet.sharded_ms.n10")...)
	d = append(d, lower("ns", "simnet.host_ns_per_send")...)
	d = append(d, lower("B", "simnet.bytes_per_node")...)
	d = append(d, lower("count", "simnet.shards", "simnet.sends", "simnet.startups")...)
	d = append(d, lower("sim_us", "simnet.sim_time_us")...)
	d = append(d, metricDef{Name: "fabric.checksum_gbps", Unit: "GB/s", Better: "higher"})
	d = append(d, lower("ms", "livenet.replay_ms")...)
	d = append(d, lower("us", "service.submit_us")...)
	d = append(d, lower("ms", "service.round_ms", "service.private_exec_ms")...)
	d = append(d, metricDef{Name: "service.jobs_per_round", Unit: "count", Better: "higher"})
	d = append(d, metricDef{Name: "service.batched_ratio", Unit: "ratio", Better: "higher"})
	d = append(d, lower("ratio", "service.resumed_ratio", "service.overhead_x")...)
	d = append(d, lower("count", "service.sends_per_job")...)
	d = append(d, lower("KB", "service.alloc_kb_per_job")...)
	for _, l := range shareLayers {
		d = append(d, metricDef{Name: "share." + l + "_pct", Unit: "%", Better: "lower"})
	}
	d = append(d, lower("ms", "bench.op_ms_p90")...)
	d = append(d, lower("%", "bench.trace_overhead_pct")...)
	d = append(d, metricDef{Name: "bench.samples", Unit: "count", Better: "higher"})
	return d
}

// perLayerMetrics folds a traced run into the per-layer metrics: the probes,
// the spans' self time per layer, the op's simulated statistics, and what
// tracing cost.
func perLayerMetrics(e *env, m *measured) (map[string]metricValue, error) {
	pr, err := runProbes(e.seed)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	self := e.tr.selfByLayer()
	total := 0.0
	for _, d := range self {
		total += float64(d)
	}
	for _, l := range shareLayers {
		share := 0.0
		if total > 0 {
			share = 100 * float64(self[l]) / total
		}
		pr["share."+l+"_pct"] = share
	}
	pr["simnet.sends"] = float64(m.simSends)
	pr["simnet.startups"] = float64(m.simStartups)
	pr["simnet.sim_time_us"] = m.simTimeUs
	pr["bench.op_ms_p90"] = quantile(m.plain, 0.9)
	pr["bench.trace_overhead_pct"] = 100 * (median(m.ops)/median(m.plain) - 1)
	pr["bench.samples"] = float64(len(m.ops))

	out := make(map[string]metricValue, len(perLayer))
	for _, d := range perLayer {
		v, ok := pr[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("per-layer metric %s was not measured (%v)", d.Name, v)
		}
		out[d.Name] = metricValue{v, d.Unit}
	}
	return out, nil
}
