package core

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"boolcube/internal/comm"
	"boolcube/internal/fabric"
	"boolcube/internal/fault"
	"boolcube/internal/field"
	"boolcube/internal/machine"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
	"boolcube/internal/plan/plantest"
	"boolcube/internal/simnet"
	"boolcube/internal/trace"
)

// shardedBackend is the simulation forced to four epoch workers, and
// serialBackend the simulation forced to one. They are registered in this
// test binary only, so the shard contract runs a plan through the unchanged
// executor on more than one worker — and on exactly one, whatever the
// automatic policy would pick on the runner's CPUs.
const (
	shardedBackend = "simnet-4"
	serialBackend  = "simnet-1"
)

func init() {
	caps, _ := fabric.Caps("simnet")
	for name, p := range map[string]int{shardedBackend: 4, serialBackend: 1} {
		fabric.Register(name, func(n int, params machine.Params) (fabric.Fabric, error) {
			e, err := simnet.New(n, params)
			if err != nil {
				return nil, err
			}
			e.SetShards(p)
			return e, nil
		}, caps)
	}
}

// oracles maps a registry row to the published program (Sections 5 and 6.3)
// whose Stats it must reproduce wherever that program accepts the layouts.
var oracles = map[plan.Algorithm]func(*matrix.Dist, field.Layout, machine.Params) (*Result, error){
	plan.Exchange:      TransposeExchangePseudocode,
	plan.SBnT:          TransposeSBnTPseudocode,
	plan.MixedCombined: mixedProgramOracle,
}

// knownDivergences are the cells known to break a contract, each with why. A
// cell an entry matches may fail that contract; an entry no cell fails any
// more fails the suite, so the change that closes the gap deletes the entry.
var knownDivergences = []struct {
	contract string
	matches  func(*contractCell) bool
	why      string
}{
	{"oracle", func(c *contractCell) bool { return c.alg == plan.SBnT },
		"the row sends one flow per (source, destination) pair, a start-up per destination per hop; the published program sends one bundle per port per round for n rounds (ROADMAP item 5(b))"},
	{"oracle", func(c *contractCell) bool {
		return c.alg == plan.MixedCombined && c.pl.Config().Machine.Ports == machine.OnePort
	}, "on one port the row takes longer than the published program with the same sends and bytes (n-port and CM match); the cause is open (ROADMAP item 5(a))"},
}

// TestContract is the registry's contract suite: every contract a transpose
// makes, asserted once, over every plan.Algorithms() row — so a new row is
// covered by being registered. The rows run on their plantest.Pair layouts
// and on one-dimensional consecutive rows wherever they compile them; on the
// one-port iPSC, the n-port iPSC and the Connection Machine; at n = 2, 3, 4
// (and 6, pairs only, outside -short); each at the zero options and, up to
// n = 4, at one seeded draw of Strategy × Packets × LocalCopies (see
// contractCells). Outside -short the scale leg runs every row on 2,048
// nodes (checkScale).
func TestContract(t *testing.T) {
	sizes := []int{2, 3, 4}
	if !testing.Short() {
		sizes = append(sizes, 6)
	}
	rng := rand.New(rand.NewSource(20260808))
	tally := &contractTally{oracleCells: map[plan.Algorithm]int{}, known: make([]int, len(knownDivergences))}
	for _, n := range sizes {
		for _, mach := range []machine.Params{machine.IPSC(), machine.IPSCNPort(), machine.ConnectionMachine()} {
			for _, alg := range plan.Algorithms() {
				for _, c := range contractCells(t, rng, alg, n, mach) {
					c.tally = tally
					t.Run(c.name, c.check)
				}
			}
		}
	}
	if !testing.Short() {
		t.Run("scale", checkScale)
	}
	t.Logf("%d deadlines, %d aborts; oracle cells %v; known divergences shown %v",
		tally.deadlines, tally.aborts, tally.oracleCells, tally.known)
	if strings.Contains(flag.Lookup("test.run").Value.String(), "/") {
		return // a -run filter picked cells or contracts: the suite-wide counts do not apply
	}
	if tally.aborts == 0 {
		t.Error("no deadline aborted a run; the deadline contract checked no checkpoint")
	}
	for alg := range oracles {
		if tally.oracleCells[alg] == 0 {
			t.Errorf("the %v oracle accepted no cell; its parity was never checked", alg)
		}
	}
	for i, k := range knownDivergences {
		if tally.known[i] == 0 {
			t.Errorf("known %s divergence no longer shows; delete its entry: %s", k.contract, k.why)
		}
	}
}

// contractTally counts, across the suite, what a contract could check
// vacuously and which known divergences showed.
type contractTally struct {
	deadlines, aborts int
	oracleCells       map[plan.Algorithm]int
	known             []int // per knownDivergences entry, the cells that showed it
}

// contractCell is one row on one layout pair, machine and option set,
// compiled through plan.Default.
type contractCell struct {
	name       string
	alg        plan.Algorithm
	opt        Options
	pl         *plan.Plan
	m          *matrix.Matrix
	transposes bool
	base       bool            // the zero options: the deadline and oracle contracts run here
	flaky      *fault.Plan     // drawn cells only, a third of the time
	clean      *Result         // the traced simnet run every contract compares with
	rec        *trace.Recorder // its trace
	tally      *contractTally
}

// diverged reports a broken contract: a failure, unless a knownDivergences
// entry matches the cell.
func (c *contractCell) diverged(t *testing.T, contract, format string, args ...any) {
	t.Helper()
	for i, k := range knownDivergences {
		if k.contract == contract && k.matches(c) {
			c.tally.known[i]++
			t.Logf("known divergence (%s): "+format, append([]any{k.why}, args...)...)
			return
		}
	}
	t.Errorf(format, args...)
}

// contractCells compiles the row's cells at n on mach. The plantest pair
// must compile; the one-dimensional rows are a cell wherever they do. A
// seeded draw also redraws what the randomized sweeps drew: a rectangular
// matrix, cyclic storage and Gray encoding for the layouts no row needs in
// particular, and a flaky link.
func contractCells(t *testing.T, rng *rand.Rand, alg plan.Algorithm, n int, mach machine.Params) []*contractCell {
	t.Helper()
	var cells []*contractCell
	for _, base := range []bool{true, false} {
		if !base && n > 4 {
			break // the seeded draws run where the randomized sweeps ran
		}
		p, q, h := n, n, n/2
		opt := Options{Machine: mach}
		mk2, mk1, storage, enc := field.TwoDimConsecutive, field.OneDimConsecutiveRows, "consecutive", field.Binary
		flaky, flakyFrom, flakyDim := false, 0, 0
		variant := "base"
		if !base {
			q += rng.Intn(2)
			opt.Strategy = comm.Strategy(rng.Intn(4))
			opt.Packets = rng.Intn(4)
			opt.LocalCopies = rng.Intn(2) == 1
			if rng.Intn(2) == 1 {
				mk2, mk1, storage = field.TwoDimCyclic, field.OneDimCyclicRows, "cyclic"
			}
			enc = field.Encoding(rng.Intn(2))
			flaky = rng.Intn(3) == 0
			flakyFrom, flakyDim = rng.Int(), rng.Int()
			variant = fmt.Sprintf("%dx%d/%s-%v/%v/packets%d/copies=%v/flaky=%v",
				p, q, storage, enc, opt.Strategy, opt.Packets, opt.LocalCopies, flaky)
		}
		before, after, transposes := plantest.Pair(alg, p, q, n)
		if after.String() == field.TwoDimConsecutive(q, p, h, h, field.Binary).String() {
			before, after = mk2(p, q, h, h, enc), mk2(q, p, h, h, enc)
		}
		oneDim := mk1(q, p, n, enc)
		if !transposes {
			mk1, oneDim = field.OneDimConsecutiveRows, field.OneDimConsecutiveRows(p, q, n, field.Gray)
		}
		for _, lp := range []struct {
			name          string
			before, after field.Layout
		}{
			{"pair", before, after},
			{"1d-rows", mk1(p, q, n, enc), oneDim},
		} {
			if lp.name == "1d-rows" && n > 4 {
				continue // the 6-cube runs the pairs only
			}
			name := fmt.Sprintf("n%d/%s/%s/%s/%s", n, mach.Name, alg, lp.name, variant)
			pl, err := plan.Default.Compile(alg, lp.before, lp.after, opt.PlanConfig())
			if err != nil {
				if lp.name == "pair" {
					t.Fatalf("%s: %v", name, err)
				}
				continue
			}
			// Shifted iota: every element is nonzero and distinct, so a span
			// claimed over still-zero destination slots cannot pass.
			m := matrix.NewIota(p, q)
			for i := range m.Data {
				m.Data[i]++
			}
			c := &contractCell{name: name, alg: alg, opt: opt, pl: pl, m: m, transposes: transposes, base: base}
			if nd := pl.NDims(); flaky {
				c.flaky = fault.MustCompile(fault.FlakyLink(uint64(flakyFrom%(1<<nd)), flakyDim%nd, 0.4), nd)
			}
			cells = append(cells, c)
		}
	}
	return cells
}

// src scatters the cell's matrix on its before layout.
func (c *contractCell) src() *matrix.Dist { return matrix.Scatter(c.m, c.pl.Before()) }

// run executes the cached plan and fails the test on any error.
func (c *contractCell) run(t *testing.T, xo ExecOptions) *Result {
	t.Helper()
	res, err := ExecuteWith(c.pl, c.src(), xo)
	if err != nil {
		t.Fatalf("%s run: %v", xo.Backend, err)
	}
	return res
}

// movesOffNode reports whether any payload of the plan crosses a link.
func (c *contractCell) movesOffNode() bool {
	mv := c.pl.Moves()
	for src := 0; src < c.pl.Before().N(); src++ {
		for _, dst := range mv.Destinations(uint64(src)) {
			if dst != uint64(src) {
				return true
			}
		}
	}
	return false
}

func (c *contractCell) check(t *testing.T) {
	c.rec = trace.New()
	c.clean = c.run(t, ExecOptions{Tracer: c.rec})
	t.Run("exact", c.checkExact)
	t.Run("replay", c.checkReplay)
	t.Run("shards", c.checkShards)
	if c.base && c.pl.NDims() <= 4 {
		t.Run("deadline", c.checkDeadlines)
	}
	t.Run("faults", c.checkFaults)
	if oracles[c.alg] != nil && c.base {
		t.Run("oracle", c.checkOracle)
	}
	if c.pl.Kind() == plan.KindExchange {
		t.Run("direct-flows", c.checkDirectFlows)
	}
}

// Contract 1, exact: the Dist equals plantest.Want on simnet and on livenet,
// Stats.Logical() agrees across the two, and a plan that moves anything
// reports time and start-ups. A drawn flaky link, which both backends drop
// on the same attempts, changes none of it.
func (c *contractCell) checkExact(t *testing.T) {
	want := plantest.Want(c.m, c.transposes)
	live := c.run(t, ExecOptions{Backend: "livenet"})
	if c.movesOffNode() && (c.clean.Stats.Time <= 0 || c.clean.Stats.Startups <= 0 || live.Stats.Time <= 0) {
		t.Errorf("implausible stats: simnet %+v, livenet time %v", c.clean.Stats, live.Stats.Time)
	}
	pairs := [][2]*Result{{c.clean, live}}
	if c.flaky != nil {
		xo := ExecOptions{Faults: c.flaky, Retry: fabric.RetryPolicy{Attempts: 64, Backoff: 1}}
		sim := c.run(t, xo)
		xo.Backend = "livenet"
		pairs = append(pairs, [2]*Result{sim, c.run(t, xo)})
	}
	for _, pr := range pairs {
		for i, backend := range []string{"simnet", "livenet"} {
			if err := pr[i].Dist.Verify(want); err != nil {
				t.Fatalf("%s result wrong: %v", backend, err)
			}
		}
		if s, l := pr[0].Stats.Logical(), pr[1].Stats.Logical(); s != l {
			t.Fatalf("logical stats diverge:\nlivenet %+v\nsimnet  %+v", l, s)
		}
	}
}

// Contract 2, replay and cache: the one-shot Transpose hits the cached plan,
// and replays the clean run bit for bit; a fresh uncached plan.Compile
// describes, schedules, prices and runs the same. The cache tells the
// cell's key from the same key on the other port model.
func (c *contractCell) checkReplay(t *testing.T) {
	before, after, cfg := c.pl.Before(), c.pl.After(), c.pl.Config()
	if again, err := plan.Default.Compile(c.alg, before, after, cfg); err != nil || again != c.pl {
		t.Fatalf("plan.Default handed out %p (err %v), not the cached plan %p", again, err, c.pl)
	}
	flip := cfg
	flip.Machine.Ports = machine.NPort - cfg.Machine.Ports
	if other, err := plan.Default.Compile(c.alg, before, after, flip); err != nil || other.Config() != flip {
		t.Errorf("plan.Default for %v ports handed out a plan for %+v (err %v)", flip.Machine.Ports, other.Config(), err)
	}
	oneShot, err := Transpose(c.alg, c.src(), after, c.opt)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := plan.Compile(c.alg, before, after, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == c.pl {
		t.Fatal("plan.Compile returned the cached plan; nothing is being compared")
	}
	if a, b := fresh.Describe(), c.pl.Describe(); a != b {
		t.Errorf("Describe: fresh %q, cached %q", a, b)
	}
	if a, b := fresh.PredictedCost(), c.pl.PredictedCost(); a != b {
		t.Errorf("PredictedCost: fresh %v, cached %v", a, b)
	}
	if !reflect.DeepEqual(fresh.Flows(), c.pl.Flows()) || !reflect.DeepEqual(fresh.Phases(), c.pl.Phases()) {
		t.Error("Flows or Phases differ between the fresh and the cached plan")
	}
	freshRes, err := ExecuteWith(fresh, c.src(), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Result{"one-shot": oneShot, "fresh plan": freshRes} {
		if r.Stats != c.clean.Stats {
			t.Errorf("%s Stats diverge:\ngot  %+v\nwant %+v", name, r.Stats, c.clean.Stats)
		}
		if diff := diffBits(r.Dist, c.clean.Dist); diff != "" {
			t.Errorf("%s: %s", name, diff)
		}
	}
}

// Contract 3, shards: four simnet workers give the Dist and Stats of one.
func (c *contractCell) checkShards(t *testing.T) {
	four, err := ExecuteWith(c.pl, c.src(), ExecOptions{Backend: shardedBackend})
	if err != nil {
		c.diverged(t, "shards", "4 workers: %v", err)
		return
	}
	if four.Stats != c.clean.Stats {
		t.Errorf("Stats at 4 workers diverge:\ngot  %+v\nwant %+v", four.Stats, c.clean.Stats)
	}
	if diff := diffBits(four.Dist, c.clean.Dist); diff != "" {
		t.Error(diff)
	}
}

// The scale leg of contract 3: every row on an 11-cube, with 1 and with 4
// elements per node, on each machine — wherever the row compiles that shape.
// A row that compiles neither (the path systems and the Section 6.3 rows need
// an even n) runs on a 12-cube instead. At this size an exchange sends empty
// messages between every pair of shards; four workers must still give the
// Dist and Stats of one.
func checkScale(t *testing.T) {
	for _, mach := range []machine.Params{machine.IPSC(), machine.IPSCNPort(), machine.ConnectionMachine()} {
		for _, alg := range plan.Algorithms() {
			compiled := false
			for _, n := range []int{11, 12} {
				hr, hc := n-n/2, n/2 // the node address: hr row bits over hc column bits
				shapes := [][2]int{{hr, hc}, {hr + 1, hc + 1}}
				if n == 12 {
					if compiled {
						break
					}
					shapes = shapes[:1] // 1 element per node keeps the 12-cube affordable
				}
				for _, pq := range shapes {
					p, q := pq[0], pq[1]
					before := field.TwoDimConsecutive(p, q, hr, hc, field.Binary)
					after, transposes := field.TwoDimConsecutive(q, p, hc, hr, field.Binary), alg.Transposes()
					switch {
					case !transposes:
						after = field.TwoDimConsecutive(p, q, hr, hc, field.Gray)
					case alg == plan.MixedNaive || alg == plan.MixedCombined:
						before = field.TwoDimEncoded(p, q, hr, hc, field.Binary, field.Gray)
						after = field.TwoDimEncoded(q, p, hc, hr, field.Binary, field.Gray)
					}
					pl, err := plan.Compile(alg, before, after, plan.Config{Machine: mach})
					if err != nil {
						continue
					}
					compiled = true
					t.Run(fmt.Sprintf("n%d/%s/%v/%dx%d", n, mach.Name, alg, p, q), func(t *testing.T) {
						m := matrix.NewIota(p, q)
						run := func(backend string) *Result {
							res, err := ExecuteWith(pl, matrix.Scatter(m, before), ExecOptions{Backend: backend})
							if err != nil {
								t.Fatalf("%s: %v", backend, err)
							}
							return res
						}
						one, four := run(serialBackend), run(shardedBackend)
						if err := one.Dist.Verify(plantest.Want(m, transposes)); err != nil {
							t.Fatalf("one worker: %v", err)
						}
						if four.Stats != one.Stats {
							t.Errorf("Stats at 4 workers diverge:\ngot  %+v\nwant %+v", four.Stats, one.Stats)
						}
						if diff := diffBits(four.Dist, one.Dist); diff != "" {
							t.Error(diff)
						}
					})
				}
			}
			if !compiled && alg.Transposes() && !strings.HasPrefix(alg.String(), "convert-") {
				t.Errorf("%v compiles no 11- or 12-cube shape on %s", alg, mach.Name)
			}
		}
	}
}

// Contract 4, deadline → Resume: the clean run is cut with a deadline at
// each distinct operation end inside (0, makespan). At each cut the
// checkpoint's delivery record must be true — every span it claims holds the
// clean run's elements in Loc — its sunk cost must be what the cut run
// traced, and Resume, looped on *ExecError, must finish bit-identical to the
// clean run. A progress record filed under the wrong node, or a checkpoint
// that drops the cost already paid, leaves every uninterrupted result intact
// and fails here.
func (c *contractCell) checkDeadlines(t *testing.T) {
	pl, aborts := c.pl, 0
	var ends []float64
	for _, ev := range c.rec.Events {
		if ev.End > 0 && ev.End < c.clean.Stats.Time {
			ends = append(ends, ev.End)
		}
	}
	slices.Sort(ends)
	ends = slices.Compact(ends)
	defer func() { c.tally.deadlines, c.tally.aborts = c.tally.deadlines+len(ends), c.tally.aborts+aborts }()
	for _, at := range ends {
		cut := trace.New()
		res, err := ExecuteWith(pl, c.src(), ExecOptions{Deadline: at, Tracer: cut})
		if err != nil {
			var xe *ExecError
			if !errors.As(err, &xe) {
				t.Fatalf("deadline %g: %v (not a resumable *ExecError)", at, err)
			}
			aborts++
			cp := xe.Checkpoint
			got, want := cp.Stats, tracedCost(cut)
			if got.Time != want.Time || got.Sends != want.Sends || got.Bytes != want.Bytes {
				t.Fatalf("deadline %g: checkpoint carries sunk cost t=%g, %d sends, %d bytes; the cut run traced t=%g, %d sends, %d bytes",
					at, got.Time, got.Sends, got.Bytes, want.Time, want.Sends, want.Bytes)
			}
			checkDelivered(t, fmt.Sprintf("deadline %g", at), cp, c.clean.Dist)
			for attempt := 0; err != nil; attempt++ {
				if attempt == 4 {
					t.Fatalf("deadline %g: resume did not converge in 4 attempts", at)
				}
				if res, err = Resume(xe.Checkpoint, ExecOptions{}); err != nil && !errors.As(err, &xe) {
					t.Fatalf("deadline %g: resume: %v (not a resumable *ExecError)", at, err)
				}
			}
		}
		if diff := diffBits(res.Dist, c.clean.Dist); diff != "" {
			t.Fatalf("deadline %g: %s", at, diff)
		}
	}
}

// Contract 5, faults: the link that carries the clean run's middle send is
// killed, and its sender crash-stops, at that send's start. Each failure
// hands back a checkpoint that Resume (link) or Recover (crash) finishes
// bit-identical to the clean run, at a resume cost of exactly what the
// finishing runs traced (Bytes - cp.Stats.Bytes). At the zero options each
// scenario also replays identically, and on livenet, which has no timed
// faults, the link drops every frame instead and the round trip to Resume
// must land the same Dist. The 6-cube, where a conversion's coarse
// checkpoint reruns 4,032 flows, takes the crash alone.
func (c *contractCell) checkFaults(t *testing.T) {
	var sends []fabric.TraceEvent
	for _, ev := range c.rec.Events {
		if ev.Kind == "send" {
			sends = append(sends, ev)
		}
	}
	if len(sends) == 0 {
		if c.movesOffNode() {
			t.Fatal("the clean run traced no send")
		}
		return // nothing crosses a link: no fault can touch the run
	}
	// A link down from t = 0 is no mid-run kill: the executor refuses it or
	// routes around it before the run starts. A plan whose every send starts
	// at t = 0 therefore takes only the crash, at that instant.
	slices.SortStableFunc(sends, func(a, b fabric.TraceEvent) int { return cmp.Compare(a.Start, b.Start) })
	mid := slices.DeleteFunc(slices.Clone(sends), func(ev fabric.TraceEvent) bool { return ev.Start == 0 })
	v := sends[len(sends)/2]
	if len(mid) > 0 {
		v = mid[len(mid)/2]
	}
	n := c.pl.NDims()
	link := fault.Link{From: v.Node, Dim: v.Dim}
	for _, sc := range []struct {
		name   string
		spec   fault.Spec
		finish func(*Checkpoint, ExecOptions) (*Result, error)
	}{
		{"kill", fault.Spec{Rules: []fault.Rule{{Kind: fault.LinkDown, Link: link, Start: v.Start}}}, Resume},
		{"crash", fault.NodeCrash(v.Node, v.Start), Recover},
	} {
		if sc.name == "kill" && v.Start == 0 {
			t.Logf("every send starts at t=0: no mid-run instant to kill %v at", link)
			continue
		}
		if sc.name == "kill" && n > 4 {
			continue // the 6-cube takes the crash its recovery test took
		}
		fp := fault.MustCompile(sc.spec, n)
		a := c.faulted(t, sc.name, fp, sc.finish)
		if diff := diffBits(a.dist, c.clean.Dist); diff != "" {
			t.Errorf("%s at t=%g: %s", sc.name, v.Start, diff)
		}
		if !c.base {
			continue
		}
		if b := c.faulted(t, sc.name, fp, sc.finish); !reflect.DeepEqual(a, b) {
			t.Errorf("%s at t=%g: a replay of the scenario diverges:\n%+v\n%+v", sc.name, v.Start, a.final, b.final)
		}
	}
	if !c.base || n > 4 {
		return
	}
	allDrop := fault.MustCompile(fault.FlakyLink(link.From, link.Dim, 1), n)
	_, err := ExecuteWith(c.pl, c.src(), ExecOptions{Backend: "livenet", Faults: allDrop, Retry: fabric.RetryPolicy{Attempts: 3, Backoff: 1}})
	var xe *ExecError
	if !errors.As(err, &xe) || !errors.Is(err, fabric.ErrRetryBudget) {
		t.Fatalf("livenet all-drop %v: %v, want a resumable ErrRetryBudget", link, err)
	}
	res, err := Resume(xe.Checkpoint, ExecOptions{Backend: "livenet", Faults: fault.MustCompile(fault.Spec{}, n)})
	if err != nil {
		t.Fatalf("livenet Resume: %v", err)
	}
	if diff := diffBits(res.Dist, c.clean.Dist); diff != "" {
		t.Errorf("livenet resume: %s", diff)
	}
	if res.Stats.Drops == 0 || res.Stats.FaultedSends == 0 {
		t.Errorf("livenet resume lost the fault history: %+v", res.Stats)
	}
}

// faultOutcome is everything a faulted run and its finish report.
type faultOutcome struct {
	sunk, final fabric.Stats
	at          float64
	dead        []uint64
	events      []fabric.TraceEvent
	dist        *matrix.Dist
}

// faulted runs the cell under fp, which must interrupt it, and loops finish
// on the checkpoint until the transpose completes.
func (c *contractCell) faulted(t *testing.T, name string, fp *fault.Plan, finish func(*Checkpoint, ExecOptions) (*Result, error)) faultOutcome {
	t.Helper()
	rec := trace.New()
	_, err := ExecuteWith(c.pl, c.src(), ExecOptions{Faults: fp, Tracer: rec})
	var xe *ExecError
	if !errors.As(err, &xe) {
		t.Fatalf("%s: run returned %v, want a resumable *ExecError", name, err)
	}
	if !reflect.DeepEqual(rec.Faults, fp.Describe()) {
		t.Errorf("%s: trace labels faults %q, want %q", name, rec.Faults, fp.Describe())
	}
	checkDelivered(t, name, xe.Checkpoint, c.clean.Dist)
	out := faultOutcome{sunk: xe.Checkpoint.Stats, at: xe.Checkpoint.At, events: rec.Events}
	finRec := trace.New()
	for attempt := 0; ; attempt++ {
		if attempt == 4 {
			t.Fatalf("%s: finish did not converge in 4 attempts", name)
		}
		res, err := finish(xe.Checkpoint, ExecOptions{Tracer: finRec})
		if err == nil {
			out.final, out.dist, out.dead = res.Stats, res.Dist, xe.Checkpoint.Dead
			break
		}
		if !errors.As(err, &xe) {
			t.Fatalf("%s: finish: %v (not a resumable *ExecError)", name, err)
		}
	}
	if got, want := out.final.Bytes-out.sunk.Bytes, tracedCost(finRec).Bytes; got != want {
		t.Errorf("%s: resume cost Bytes - cp.Stats.Bytes = %d, the finishing runs traced %d", name, got, want)
	}
	return out
}

// Contract 6, oracle parity: where the row's published program accepts the
// layouts, the row costs exactly what the program does.
func (c *contractCell) checkOracle(t *testing.T) {
	ref, err := oracles[c.alg](c.src(), c.pl.After(), c.pl.Config().Machine)
	if err != nil {
		return // the published program is written for other layouts
	}
	c.tally.oracleCells[c.alg]++
	if err := ref.Dist.Verify(plantest.Want(c.m, c.transposes)); err != nil {
		t.Fatalf("the published program is wrong here: %v", err)
	}
	if ref.Stats != c.clean.Stats {
		c.diverged(t, "oracle", "Stats diverge from the published program:\nrow     %+v\nprogram %+v", c.clean.Stats, ref.Stats)
	}
}

// Contract 7, direct flows: an exchange plan's memoized DirectFlows are
// exactly what a fresh checkpoint's ResidualSpans derives — pairs, ranges,
// routes, packet grain and order — and a second call returns the same slice.
func (c *contractCell) checkDirectFlows(t *testing.T) {
	got := c.pl.DirectFlows()
	want := NewCheckpoint(c.pl, c.src()).ResidualSpans()
	if len(want) == 0 {
		t.Fatal("fresh checkpoint owes no network span")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DirectFlows differs from a fresh checkpoint's residual spans:\n got %v\nwant %v", got, want)
	}
	if again := c.pl.DirectFlows(); &again[0] != &got[0] {
		t.Fatal("DirectFlows rebuilt its spans")
	}
}

// checkDelivered asserts that the checkpoint's delivery record is exact:
// each destination slot a span it claims marks holds the clean run's
// element, and each slot that holds one (every element is nonzero, the
// arrays start zeroed) is claimed, so Resume neither skips nor resends.
func checkDelivered(t *testing.T, name string, cp *Checkpoint, clean *matrix.Dist) {
	t.Helper()
	mv := cp.Plan.Moves()
	for dst, loc := range cp.Loc {
		if loc == nil {
			continue
		}
		marks := make([]float64, len(loc))
		for src := range cp.Src.Local {
			for _, s := range cp.Delivered.Spans(uint64(src), uint64(dst)) {
				ones := make([]float64, s.Len)
				for i := range ones {
					ones[i] = 1
				}
				mv.ScatterRange(uint64(dst), marks, uint64(src), s.Off, ones)
			}
		}
		for i, mark := range marks {
			if held := math.Float64bits(loc[i]) == math.Float64bits(clean.Local[dst][i]); held != (mark == 1) {
				t.Fatalf("%s: Loc[%d][%d] = %v (clean run %v), but the checkpoint claims it delivered = %v",
					name, dst, i, loc[i], clean.Local[dst][i], mark == 1)
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
