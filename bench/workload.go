package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// env is what one workload run is given: the seed that drives every input
// it generates, how long to measure, the span recorder (nil in the untraced
// pass that yields the end-to-end metrics) and the golden record.
type env struct {
	seed    int64
	seconds float64
	tr      *tracer
	gold    *golden
}

func (e *env) traced() bool { return e.tr != nil }

// measured is what a workload run yields before it is folded into metrics.
type measured struct {
	setups []float64 // set-up repetitions, s
	ops    []float64 // timed ops, ms (traced ops in the traced pass)
	// plain holds the untraced ops the traced pass interleaves with its
	// traced ones; their medians' difference is the tracing overhead.
	plain []float64
	// opsPerSec is work completed per second of the timed phase.
	opsPerSec float64
	attempted int
	failed    int
	failures  []string // first few failure descriptions
	// detail holds the workload's own extra readings (name -> value, unit),
	// printed and stored in bench/out but not part of BENCHMARK.json.
	detail map[string]metricValue
	// sim accumulates the exact-repeat simulated statistics of one op.
	simSends, simStartups int64
	simTimeUs             float64
}

func newMeasured() *measured { return &measured{detail: make(map[string]metricValue)} }

func (m *measured) set(name string, v float64, unit string) { m.detail[name] = metricValue{v, unit} }

// setUps measures the workload's set-up setupReps times: each repetition
// starts, as the first one in a fresh process does, from an empty plan cache
// and — once release has dropped what the previous repetition built — a
// collected heap. The last repetition's state is the one the run uses.
func (m *measured) setUps(release func(), build func() error) error {
	for i := 0; i < setupReps; i++ {
		release()
		coldPlanCache()
		runtime.GC()
		t0 := now()
		if err := build(); err != nil {
			return err
		}
		m.setups = append(m.setups, sec(now()-t0))
	}
	return nil
}

// fail counts one failed op and keeps the first few reasons.
func (m *measured) fail(err error) {
	m.failed++
	if len(m.failures) < 5 {
		m.failures = append(m.failures, err.Error())
	}
}

// attempt runs one op, counting it and its failure.
func (m *measured) attempt(op func() error) time.Duration {
	t0 := now()
	err := op()
	d := now() - t0
	m.attempted++
	if err != nil {
		m.fail(err)
	}
	return d
}

// timed runs op in a closed loop with one client for the given number of
// seconds: at least minOps ops, and then for as long as another op of the
// last one's length still fits. It appends each op's wall time to m.ops and
// sets m.opsPerSec.
func (m *measured) timed(seconds float64, minOps int, op func() error) {
	budget := time.Duration(seconds * float64(time.Second))
	start := now()
	var last time.Duration
	n := 0
	for ; n < minOps || now()-start+last <= budget; n++ {
		last = m.one(op)
		m.ops = append(m.ops, ms(last))
	}
	m.opsPerSec = float64(n) / sec(now()-start)
}

// alternated is the traced pass's loop: plain and traced ops take turns, so
// both see the same machine state, for at least minPairs pairs and then for
// as long as another pair still fits. Traced ops go to m.ops, plain ones to
// m.plain; the difference of their medians is the tracing overhead.
func (m *measured) alternated(seconds float64, minPairs int, plain, traced func() error) {
	budget := time.Duration(seconds * float64(time.Second))
	start := now()
	var last time.Duration
	for n := 0; n < minPairs || now()-start+last <= budget; n++ {
		t0 := now()
		m.plain = append(m.plain, ms(m.one(plain)))
		m.ops = append(m.ops, ms(m.one(traced)))
		last = now() - t0
	}
}

// one runs one timed op from a collected heap. Without the (untimed)
// collection the previous op's garbage, and where the collector happens to
// be in its cycle, decide part of the op's time and of the peak memory: on
// cube16 it took the run-to-run spread of op_ms_p50 from 5% to 2% and that
// of peak_rss_mb from 16% to under 1%.
func (m *measured) one(op func() error) time.Duration {
	runtime.GC()
	return m.attempt(op)
}

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(e *env) (*measured, error)
}

// workloads lists the benchmark's workloads in reporting order.
func workloads() []workload {
	return []workload{
		{
			name: "replay_flow",
			why:  "compiled flow plans (SBnT all-to-all, MPT) replayed in a closed loop: router.RunRecover and the serial simnet scheduler are ~90% of the op",
			run:  func(e *env) (*measured, error) { return runReplay(e, "replay_flow", flowShapes()) },
		},
		{
			name: "replay_exch",
			why:  "compiled exchange plans replayed: comm node programs, Moves.Scatter and Verify dominate, router idle; the bypass workload for flow-side optimisations",
			run:  func(e *env) (*measured, error) { return runReplay(e, "replay_exch", exchShapes()) },
		},
		{
			name: "cube16",
			why:  "one 65,536-node dimension-scan all-to-all straight on simnet: the sharded epoch scheduler and its memory footprint do all the work",
			run:  runCube16,
		},
		{
			name: "service",
			why:  "long-lived 6-cube service: closed-loop saturation, then an open loop at a fixed 40 jobs/s timed from each job's due time; queueing, round build, demux and per-round engines",
			run:  runService,
		},
		{
			name: "sweep",
			why:  "the full experiment registry in a fresh process per op (cold plan cache), as cmd/experiments -all users pay it; compile, NewMoves and Scatter dominate",
			run:  runSweep,
		},
	}
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	sort.Strings(names)
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
