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

// oracles maps a registry row to the published program (Sections 5, 6.3 and
// 7) whose Stats it must reproduce wherever that program accepts the layouts.
var oracles = map[plan.Algorithm]func(*matrix.Dist, field.Layout, machine.Params) (*Result, error){
	plan.Exchange:        TransposeExchangePseudocode,
	plan.SBnT:            TransposeSBnTPseudocode,
	plan.MixedCombined:   mixedProgramOracle,
	plan.Permute:         lemma15Oracle,
	plan.PermuteTwoPhase: twoPhaseOracle,
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
		"the row sends one flow per (source, destination) pair, a start-up per destination per hop; the published program sends one bundle per port per round for n rounds, a bundling no executor does yet"},
	{"oracle", func(c *contractCell) bool {
		return c.alg == plan.MixedCombined && c.pl.Config().Machine.Ports == machine.OnePort
	}, "on one port the row takes longer than the published program with the same sends and bytes (n-port and CM match); the cause is not yet traced"},
}

// TestContract is the registry's contract suite: every contract a transpose
// makes, asserted once, over every plan.Algorithms() row — so a new row is
// covered by being registered. The rows run on the one-port iPSC, the n-port
// iPSC and the Connection Machine, in three families of layout pairs: their
// plantest.Pair layouts and one-dimensional consecutive rows, at n = 2, 3, 4
// (and 6, pairs only, outside -short), each at the zero options and, up to
// n = 4, at one seeded draw of Strategy × Packets × LocalCopies (see
// contractCells); and the layout family, the paper's storage forms and
// communication patterns, each on the rows it names and at the options it
// is pinned to (layoutPairs). Outside -short the scale leg runs every row
// on 2,048 nodes (checkScale).
func TestContract(t *testing.T) {
	sizes := []int{2, 3, 4}
	if !testing.Short() {
		sizes = append(sizes, 6)
	}
	machines := []machine.Params{machine.IPSC(), machine.IPSCNPort(), machine.ConnectionMachine()}
	rng := rand.New(rand.NewSource(20260808))
	tally := &contractTally{oracleCells: map[plan.Algorithm]int{}, known: make([]int, len(knownDivergences)),
		forms: map[string]int{}, patterns: map[field.Pattern]int{}}
	for _, n := range sizes {
		for _, mach := range machines {
			for _, alg := range plan.Algorithms() {
				for _, c := range contractCells(t, rng, alg, n, mach) {
					c.tally = tally
					t.Run(c.name, c.check)
				}
			}
		}
	}
	lps := layoutPairs()
	for _, mach := range machines {
		for _, alg := range plan.Algorithms() {
			for _, c := range layoutCells(t, lps, alg, mach) {
				c.tally = tally
				t.Run(c.name, c.check)
			}
		}
	}
	if !testing.Short() {
		t.Run("scale", checkScale)
	}
	t.Logf("%d deadlines, %d aborts; oracle cells %v; known divergences shown %v; patterns %v",
		tally.deadlines, tally.aborts, tally.oracleCells, tally.known, tally.patterns)
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
	for _, fp := range storageFormPairs() {
		if k := fp[0].Name + " → " + fp[1].Name; tally.forms[k] == 0 && !testing.Short() { // -short runs no forms sweep
			t.Errorf("no row transposed %s", k)
		}
	}
	for pat := field.LocalOnly; pat <= field.General; pat++ {
		if tally.patterns[pat] == 0 {
			t.Errorf("no transposing cell has the %v pattern", pat)
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
	known             []int                 // per knownDivergences entry, the cells that showed it
	forms             map[string]int        // per "before → after" layout name, the transposing cells that ran it
	patterns          map[field.Pattern]int // per Classify pattern, the transposing cells that ran it
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
			opt.LocalCopies = rng.Intn(2) == 1 || n == 4 // every row, both port models, copies on
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
		if alg == plan.Permute || alg == plan.PermuteTwoPhase { // the pair is an involution; rotate for Lemma 15's several steps
			rot := make([]int, n)
			for i := range rot {
				rot[i] = (i + 1) % n
			}
			oneDim, _ = field.PermutedDims(field.OneDimConsecutiveRows(p, q, n, field.Binary), rot) // binary rows always permute
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
			c := newCell(name, alg, opt, pl, base)
			if nd := pl.NDims(); flaky {
				c.flaky = fault.MustCompile(fault.FlakyLink(uint64(flakyFrom%(1<<nd)), flakyDim%nd, 0.4), nd)
			}
			cells = append(cells, c)
		}
	}
	return cells
}

// layoutPair is one entry of the layout family: a before → after pair of
// the paper's storage forms or communication patterns, the options it runs
// at beside the machine (zero: a base cell), and the rows it runs on, each
// of which must compile it.
type layoutPair struct {
	name          string
	before, after field.Layout
	opt           Options
	rows          []plan.Algorithm
}

// storageFormPairs are Corollary 6's storage-form pairs: a 4×4 matrix over a
// 3-cube in every one-dimensional form (consecutive/cyclic × rows/columns ×
// binary/Gray) before, and every one after.
func storageFormPairs() [][2]field.Layout {
	forms := []func(p, q, n int, e field.Encoding) field.Layout{
		field.OneDimConsecutiveRows, field.OneDimCyclicRows, field.OneDimConsecutiveCols, field.OneDimCyclicCols,
	}
	var pairs [][2]field.Layout
	for _, fb := range forms {
		for _, fa := range forms {
			for _, eb := range []field.Encoding{field.Binary, field.Gray} {
				for _, ea := range []field.Encoding{field.Binary, field.Gray} {
					pairs = append(pairs, [2]field.Layout{fb(4, 4, 3, eb), fa(4, 4, 3, ea)})
				}
			}
		}
	}
	return pairs
}

// layoutPairs is the layout family: every storage-form pair of Corollary 6
// (consecutive/cyclic × rows/columns × binary/Gray, before and after) on a
// 4×4 matrix over a 3-cube, outside -short, and rectangular ones; the
// two-dimensional forms at the buffering strategies and packet counts the
// exchange and path rows take; Section 6.2's consecutive → cyclic
// conversions; Table 2's combined and banded layouts; the some-to-all,
// all-to-some, vector, general and one-node patterns; one element per
// processor (Corollary 4); one seeded pair of random fields; and the
// mixed rows' other encoding pairs of §6.3 and the non-transposing rows'
// encoding changes and zero-traffic identities.
func layoutPairs() []layoutPair {
	var lps []layoutPair
	add := func(name string, before, after field.Layout, opt Options, rows ...plan.Algorithm) {
		lps = append(lps, layoutPair{name, before, after, opt, rows})
	}
	if !testing.Short() { // the forms sweep's 192 cells per row run in the long suite
		for _, fp := range storageFormPairs() {
			add("4x4/"+fp[0].Name+"/"+fp[1].Name, fp[0], fp[1], Options{}, plan.Exchange, plan.SBnT)
		}
	}
	flowRows := []plan.Algorithm{plan.SPT, plan.DPT, plan.MPT, plan.SBnT, plan.RoutingLogic}
	for _, e := range []field.Encoding{field.Binary, field.Gray} {
		add(fmt.Sprintf("5x3/cons-rows-%v", e), field.OneDimConsecutiveRows(5, 3, 2, e), field.OneDimConsecutiveRows(3, 5, 2, e), Options{}, plan.Exchange)
		add(fmt.Sprintf("3x5/cyc-cols-%v", e), field.OneDimCyclicCols(3, 5, 3, e), field.OneDimCyclicCols(5, 3, 3, e), Options{}, plan.Exchange)
		two := field.TwoDimConsecutive(4, 4, 2, 2, e)
		if e == field.Gray { // the binary pair at the zero options is every row's plantest.Pair
			add("4x4/2d-cons-gray", two, two, Options{}, plan.Exchange)
		}
		for _, s := range []comm.Strategy{comm.Unbuffered, comm.Buffered} {
			add(fmt.Sprintf("4x4/2d-cons-%v/%v", e, s), two, two, Options{Strategy: s}, plan.Exchange)
		}
		add(fmt.Sprintf("4x4/2d-cons-%v/packets2", e), two, two, Options{Packets: 2}, flowRows...)
	}
	add("4x4/2d-cons-binary/nr1/2d-cyc", field.TwoDimConsecutive(4, 4, 1, 1, field.Binary), field.TwoDimCyclic(4, 4, 1, 1, field.Binary), Options{}, convertRows...)
	add("5x4/2d-cons-binary/2d-cyc", field.TwoDimConsecutive(5, 4, 2, 2, field.Binary), field.TwoDimCyclic(4, 5, 2, 2, field.Binary), Options{}, convertRows...)
	add("4x4/2d-cons-gray/2d-cyc", field.TwoDimConsecutive(4, 4, 2, 2, field.Gray), field.TwoDimCyclic(4, 4, 2, 2, field.Gray), Options{}, convertRows...)
	add("3x3/2d-cyc", field.TwoDimCyclic(3, 3, 2, 2, field.Binary), field.TwoDimCyclic(3, 3, 2, 2, field.Binary), Options{}, plan.ExchangeSPTOrder)
	add("3x3/one-per-node", field.TwoDimConsecutive(3, 3, 3, 3, field.Binary), field.TwoDimConsecutive(3, 3, 3, 3, field.Binary), Options{}, plan.ExchangeSPTOrder)
	add("4x4/2d-mixed-binary/2d-mixed-gray", field.TwoDimMixed(4, 4, 2, 2, field.Binary), field.TwoDimMixed(4, 4, 2, 2, field.Gray), Options{}, plan.Exchange)
	add("2x4/some-to-all", field.OneDimConsecutiveRows(2, 4, 2, field.Binary), field.OneDimConsecutiveRows(4, 2, 4, field.Binary), Options{}, plan.Exchange)
	add("4x2/all-to-some", field.OneDimConsecutiveRows(4, 2, 4, field.Binary), field.OneDimConsecutiveRows(2, 4, 2, field.Binary), Options{}, plan.Exchange)
	add("4x0/vector", field.OneDimConsecutiveRows(4, 0, 2, field.Binary), field.OneDimConsecutiveCols(0, 4, 2, field.Binary), Options{}, plan.Exchange)
	add("6x4/banded", field.BandedCombined(6, 4, 2, 1, field.Binary), field.Layout{P: 4, Q: 6, Name: "banded-target",
		Fields: []field.Field{{Lo: 9, Hi: 10}, {Lo: 4, Hi: 6}, {Lo: 6, Hi: 8}}}, Options{}, plan.Exchange)
	add("4x4/combined-contiguous", field.CombinedContiguous(4, 4, 2, 1, true, field.Binary), field.CombinedContiguous(4, 4, 2, 1, false, field.Gray), Options{}, plan.Exchange)
	add("4x4/combined-split", field.CombinedSplit(4, 4, 3, 1, true, field.Gray), field.CombinedSplit(4, 4, 3, 2, false, field.Binary), Options{}, plan.Exchange)
	rng := rand.New(rand.NewSource(2024))
	p, q := 2+rng.Intn(3), 2+rng.Intn(3)
	n := 1 + rng.Intn(min(p+q, 4))
	add("random-fields", randomLayout(rng, p, q, n), randomLayout(rng, q, p, n), Options{}, plan.Exchange)
	for _, pq := range [][2]int{{1, 7}, {7, 1}, {2, 6}, {6, 2}} {
		p, q, n := pq[0], pq[1], min(pq[0], pq[1], 2)
		add(fmt.Sprintf("%dx%d/cons-rows", p, q), field.OneDimConsecutiveRows(p, q, n, field.Binary),
			field.OneDimConsecutiveRows(q, p, n, field.Binary), Options{}, plan.Exchange, plan.SBnT, plan.RoutingLogic)
	}
	add("3x3/one-node", field.OneDimConsecutiveRows(3, 3, 0, field.Binary), field.OneDimConsecutiveRows(3, 3, 0, field.Binary), Options{}, plan.Exchange)
	add("0x4/vector-in-place", field.OneDimCyclicCols(0, 4, 2, field.Binary), field.OneDimCyclicRows(4, 0, 2, field.Binary), Options{}, plan.Exchange)
	// §6.3's other (row, column) encoding pairs; binary/Gray → binary/Gray is
	// the mixed rows' plantest.Pair.
	for _, ec := range [][4]field.Encoding{
		{field.Gray, field.Binary, field.Gray, field.Binary},
		{field.Binary, field.Binary, field.Gray, field.Gray},
		{field.Gray, field.Gray, field.Binary, field.Binary},
		{field.Binary, field.Binary, field.Binary, field.Binary},
	} {
		add(fmt.Sprintf("4x4/2d-enc-%v-%v/2d-enc-%v-%v", ec[0], ec[1], ec[2], ec[3]), field.TwoDimEncoded(4, 4, 2, 2, ec[0], ec[1]),
			field.TwoDimEncoded(4, 4, 2, 2, ec[2], ec[3]), Options{}, plan.MixedNaive, plan.MixedCombined)
	}
	add("4x4/2d-enc-binary-gray/2d-enc-gray-gray", field.TwoDimEncoded(4, 4, 2, 2, field.Binary, field.Gray),
		field.TwoDimEncoded(4, 4, 2, 2, field.Gray, field.Gray), Options{}, plan.ConvertEncoding)
	identity := field.TwoDimCyclic(4, 4, 2, 2, field.Gray)
	add("4x4/2d-cyc-gray-identity", identity, identity, Options{}, plan.ConvertEncoding)
	identity = field.OneDimConsecutiveRows(4, 4, 3, field.Gray)
	add("4x4/cons-rows-gray-identity", identity, identity, Options{}, plan.Permute)
	return lps
}

// randomLayout draws a valid layout of a 2^p × 2^q matrix on an n-cube:
// n distinct element-address bits, grouped by consecutive runs into fields
// of random encodings, in random order of significance.
func randomLayout(rng *rand.Rand, p, q, n int) field.Layout {
	for {
		used := make([]bool, p+q)
		for _, b := range rng.Perm(p + q)[:n] {
			used[b] = true
		}
		var fields []field.Field
		for i := 0; i < p+q; i++ {
			if !used[i] {
				continue
			}
			j := i
			for j < p+q && used[j] {
				j++
			}
			fields = append(fields, field.Field{Lo: i, Hi: j, Enc: field.Encoding(rng.Intn(2))})
			i = j
		}
		rng.Shuffle(len(fields), func(a, b int) { fields[a], fields[b] = fields[b], fields[a] })
		if l := (field.Layout{P: p, Q: q, Name: "random", Fields: fields}); l.Validate() == nil {
			return l
		}
	}
}

// layoutCells compiles the layout-family cells of the row on mach: one per
// pair that names the row, which must compile it.
func layoutCells(t *testing.T, lps []layoutPair, alg plan.Algorithm, mach machine.Params) []*contractCell {
	t.Helper()
	var cells []*contractCell
	for _, lp := range lps {
		if !slices.Contains(lp.rows, alg) {
			continue
		}
		opt := lp.opt
		opt.Machine = mach
		pl, err := plan.Default.Compile(alg, lp.before, lp.after, opt.PlanConfig())
		if err != nil {
			t.Fatalf("%s/%s/layouts/%s: %v", mach.Name, alg, lp.name, err)
		}
		name := fmt.Sprintf("n%d/%s/%s/layouts/%s", pl.NDims(), mach.Name, alg, lp.name)
		cells = append(cells, newCell(name, alg, opt, pl, opt == Options{Machine: mach}))
	}
	return cells
}

// newCell is a cell on the compiled plan over a shifted iota matrix: every
// element is nonzero and distinct, so a span claimed over still-zero
// destination slots cannot pass.
func newCell(name string, alg plan.Algorithm, opt Options, pl *plan.Plan, base bool) *contractCell {
	m := matrix.NewIota(pl.Before().P, pl.Before().Q)
	for i := range m.Data {
		m.Data[i]++
	}
	return &contractCell{name: name, alg: alg, opt: opt, pl: pl, m: m, transposes: alg.Transposes(), base: base}
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
	if before, after := c.pl.Before(), c.pl.After(); c.transposes {
		cls, err := field.Classify(before, after)
		if err != nil {
			t.Fatal(err)
		}
		c.tally.patterns[cls.Pattern]++
		c.tally.forms[before.Name+" → "+after.Name]++
	}
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
	t.Run("price", c.checkPrice)
}

// Contract 1, exact: the Dist is stored in the plan's after layout and
// equals plantest.Want on simnet and on livenet, Stats.Logical() agrees
// across the two, a plan that moves anything reports time and start-ups,
// and one that moves nothing off node puts no byte on a link (a flow plan
// not even a message). A drawn flaky link, which both backends drop on the
// same attempts, changes none of it.
func (c *contractCell) checkExact(t *testing.T) {
	want := plantest.Want(c.m, c.transposes)
	live := c.run(t, ExecOptions{Backend: "livenet"})
	if moves := c.movesOffNode(); moves && (c.clean.Stats.Time <= 0 || c.clean.Stats.Startups <= 0 || live.Stats.Time <= 0) ||
		!moves && (c.clean.Stats.Bytes != 0 || c.pl.Kind() == plan.KindFlow && c.clean.Stats.Sends != 0) {
		t.Errorf("implausible stats (data off node: %v): simnet %+v, livenet time %v", moves, c.clean.Stats, live.Stats.Time)
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
			if got := pr[i].Dist.Layout; !reflect.DeepEqual(got, c.pl.After()) {
				t.Fatalf("%s result is stored as %s, not as the plan's after layout %s", backend, got, c.pl.After())
			}
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
					case alg == plan.Permute || alg == plan.PermuteTwoPhase:
						before, after, _ = plantest.Pair(alg, p, q, n)
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

// Contract 4, deadline → Recover: the clean run is cut with a deadline at
// each distinct operation end inside (0, makespan). At each cut the
// checkpoint's delivery record must be true — every span it claims holds the
// clean run's elements in Loc — its sunk cost must be what the cut run
// traced, and Recover, looped on *ExecError, must finish bit-identical to the
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
				if res, err = Recover(xe.Checkpoint, ExecOptions{}); err != nil && !errors.As(err, &xe) {
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
// killed, and its sender crash-stops, at that send's start. Each failure is
// typed (ErrLinkDown, or ErrNodeDown naming just the sender) and stops the
// run between that instant and the clean run's end, with a checkpoint —
// dead set empty, or just the sender — that Recover finishes bit-identical
// to the clean run, at a resume cost of exactly what the finishing runs
// traced (Bytes - cp.Stats.Bytes). At the zero options each scenario also
// replays identically, and on each backend a link that drops every frame
// (livenet has no timed faults) fails the run on its retry budget, and
// Recover without faults lands the same Dist with the drops in its Stats. The 6-cube, where a conversion's coarse
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
		name  string
		spec  fault.Spec
		cause error
		dead  []uint64
	}{
		{"kill", fault.Spec{Rules: []fault.Rule{{Kind: fault.LinkDown, Link: link, Start: v.Start}}}, fabric.ErrLinkDown, nil},
		{"crash", fault.NodeCrash(v.Node, v.Start), fabric.ErrNodeDown, []uint64{v.Node}},
	} {
		if sc.name == "kill" && v.Start == 0 {
			t.Logf("every send starts at t=0: no mid-run instant to kill %v at", link)
			continue
		}
		if sc.name == "kill" && n > 4 {
			continue // the 6-cube takes the crash its recovery test took
		}
		fp := fault.MustCompile(sc.spec, n)
		a := c.faulted(t, sc.name, fp, sc.cause)
		if diff := diffBits(a.dist, c.clean.Dist); diff != "" {
			t.Errorf("%s at t=%g: %s", sc.name, v.Start, diff)
		}
		if a.at < v.Start || a.at > c.clean.Stats.Time || !slices.Equal(a.down, sc.dead) || !slices.Equal(a.dead, sc.dead) {
			t.Errorf("%s at t=%g: the run stopped at t=%g (the clean run ends at %g) naming nodes %v down, its checkpoint %v dead; want %v",
				sc.name, v.Start, a.at, c.clean.Stats.Time, a.down, a.dead, sc.dead)
		}
		if !c.base {
			continue
		}
		if b := c.faulted(t, sc.name, fp, sc.cause); !reflect.DeepEqual(a, b) {
			t.Errorf("%s at t=%g: a replay of the scenario diverges:\n%+v\n%+v", sc.name, v.Start, a.final, b.final)
		}
	}
	if !c.base || n > 4 {
		return
	}
	allDrop, none := fault.MustCompile(fault.FlakyLink(link.From, link.Dim, 1), n), fault.MustCompile(fault.Spec{}, n)
	for _, backend := range []string{"simnet", "livenet"} {
		_, err := ExecuteWith(c.pl, c.src(), ExecOptions{Backend: backend, Faults: allDrop, Retry: fabric.RetryPolicy{Attempts: 3, Backoff: 1}})
		var xe *ExecError
		if !errors.As(err, &xe) || !errors.Is(err, fabric.ErrRetryBudget) {
			t.Fatalf("%s all-drop %v: %v, want a resumable ErrRetryBudget", backend, link, err)
		}
		res, err := Recover(xe.Checkpoint, ExecOptions{Backend: backend, Faults: none})
		if err != nil {
			t.Fatalf("%s Recover: %v", backend, err)
		}
		if diff := diffBits(res.Dist, c.clean.Dist); diff != "" {
			t.Errorf("%s resume: %s", backend, diff)
		}
		if res.Stats.Drops == 0 || res.Stats.FaultedSends == 0 {
			t.Errorf("%s resume lost the fault history: %+v", backend, res.Stats)
		}
	}
}

// faultOutcome is everything a faulted run and its finish report.
type faultOutcome struct {
	sunk, final fabric.Stats
	at          float64
	dead, down  []uint64 // the finished checkpoint's dead set; the nodes the failure named
	events      []fabric.TraceEvent
	dist        *matrix.Dist
}

// faulted runs the cell under fp, which must interrupt it with cause, and
// loops Recover on the checkpoint until the transpose completes.
func (c *contractCell) faulted(t *testing.T, name string, fp *fault.Plan, cause error) faultOutcome {
	t.Helper()
	rec := trace.New()
	_, err := ExecuteWith(c.pl, c.src(), ExecOptions{Faults: fp, Tracer: rec})
	var xe *ExecError
	if !errors.As(err, &xe) || !errors.Is(err, cause) {
		t.Fatalf("%s: run returned %v, want a resumable *ExecError of %v", name, err, cause)
	}
	if !reflect.DeepEqual(rec.Faults, fp.Describe()) {
		t.Errorf("%s: trace labels faults %q, want %q", name, rec.Faults, fp.Describe())
	}
	checkDelivered(t, name, xe.Checkpoint, c.clean.Dist)
	out := faultOutcome{sunk: xe.Checkpoint.Stats, at: xe.Checkpoint.At, events: rec.Events}
	if nde := (*fabric.NodeDownError)(nil); errors.As(err, &nde) {
		out.down = nde.Nodes
	}
	finRec := trace.New()
	for attempt := 0; ; attempt++ {
		if attempt == 4 {
			t.Fatalf("%s: finish did not converge in 4 attempts", name)
		}
		res, err := Recover(xe.Checkpoint, ExecOptions{Tracer: finRec})
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
// routes, packet grain and order, none for a plan that moves nothing off
// node — and a second call returns the same slice.
func (c *contractCell) checkDirectFlows(t *testing.T) {
	got := c.pl.DirectFlows()
	want := NewCheckpoint(c.pl, c.src()).ResidualSpans()
	if len(want) == 0 && c.movesOffNode() {
		t.Fatal("fresh checkpoint owes no network span")
	}
	if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
		t.Fatalf("DirectFlows differs from a fresh checkpoint's residual spans:\n got %v\nwant %v", got, want)
	}
	if again := c.pl.DirectFlows(); len(got) > 0 && &again[0] != &got[0] {
		t.Fatal("DirectFlows rebuilt its spans")
	}
}

// Contract 8, the price is the traffic: the plan's price walks exactly the
// per-link loads the clean run reports, bytes and busy time, and the run
// takes at least its heaviest link's busy time — Theorem 3's bound.
func (c *contractCell) checkPrice(t *testing.T) {
	pr, st := c.pl.Price(), c.clean.Stats
	if pr.MaxLinkBytes != st.MaxLinkBytes || pr.MaxLinkBusy != st.MaxLinkBusy {
		t.Errorf("price walks a heaviest link of %d bytes, %g µs busy; the run's carries %d bytes, %g µs",
			pr.MaxLinkBytes, pr.MaxLinkBusy, st.MaxLinkBytes, st.MaxLinkBusy)
	}
	if st.Time < pr.MaxLinkBusy {
		t.Errorf("run took %g µs, under its heaviest link's %g µs busy time", st.Time, pr.MaxLinkBusy)
	}
}

// checkDelivered asserts that the checkpoint's delivery record is exact:
// each destination slot a span it claims marks holds the clean run's
// element, and each slot that holds one (every element is nonzero, the
// arrays start zeroed) is claimed, so Recover neither skips nor resends.
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
