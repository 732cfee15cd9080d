package core

import (
	"fmt"
	"runtime"
	"testing"

	"boolcube/internal/comm"
	"boolcube/internal/fabric"
	"boolcube/internal/field"
	"boolcube/internal/machine"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
)

func opts(mach machine.Params) Options {
	return Options{Machine: mach, Strategy: comm.SingleMessage}
}

// verifyTranspose runs the algorithm and checks the resulting distribution
// element-exactly against the dense transpose.
func verifyTranspose(t *testing.T, name string, m *matrix.Matrix, res *Result, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if verr := res.Dist.Verify(m.Transposed()); verr != nil {
		t.Fatalf("%s: %v", name, verr)
	}
	if res.Stats.Time <= 0 {
		t.Fatalf("%s: no simulated time elapsed", name)
	}
}

func TestTransposeExchangeOneDim(t *testing.T) {
	cases := []struct {
		p, q, n int
		mk      func(p, q, n int, e field.Encoding) field.Layout
	}{
		{4, 4, 3, field.OneDimConsecutiveRows},
		{4, 4, 3, field.OneDimCyclicRows},
		{4, 4, 3, field.OneDimConsecutiveCols},
		{4, 4, 3, field.OneDimCyclicCols},
		{5, 3, 2, field.OneDimConsecutiveRows},
		{3, 5, 3, field.OneDimCyclicCols},
	}
	for _, c := range cases {
		for _, enc := range []field.Encoding{field.Binary, field.Gray} {
			before := c.mk(c.p, c.q, c.n, enc)
			after := c.mk(c.q, c.p, c.n, enc)
			name := fmt.Sprintf("%s p=%d q=%d", before, c.p, c.q)
			m := matrix.NewIota(c.p, c.q)
			d := matrix.Scatter(m, before)
			res, err := Transpose(plan.Exchange, d, after, opts(machine.Ideal(machine.OnePort)))
			verifyTranspose(t, name, m, res, err)
		}
	}
}

// Transposing with a change of storage form (Corollary 6: consecutive <->
// cyclic, rows <-> columns) still works through the generic exchange.
func TestTransposeExchangeStorageConversion(t *testing.T) {
	p, q, n := 4, 4, 3
	forms := []func(p, q, n int, e field.Encoding) field.Layout{
		field.OneDimConsecutiveRows,
		field.OneDimCyclicRows,
		field.OneDimConsecutiveCols,
		field.OneDimCyclicCols,
	}
	m := matrix.NewIota(p, q)
	for i, fb := range forms {
		for j, fa := range forms {
			before := fb(p, q, n, field.Binary)
			after := fa(q, p, n, field.Gray)
			d := matrix.Scatter(m, before)
			res, err := Transpose(plan.Exchange, d, after, opts(machine.Ideal(machine.OnePort)))
			verifyTranspose(t, fmt.Sprintf("form %d -> %d", i, j), m, res, err)
		}
	}
}

func TestTransposeExchangeTwoDim(t *testing.T) {
	p, q, n := 4, 4, 4
	for _, enc := range []field.Encoding{field.Binary, field.Gray} {
		for _, strat := range []comm.Strategy{comm.SingleMessage, comm.Unbuffered, comm.Buffered} {
			before := field.TwoDimConsecutive(p, q, n/2, n/2, enc)
			after := field.TwoDimConsecutive(q, p, n/2, n/2, enc)
			m := matrix.NewIota(p, q)
			d := matrix.Scatter(m, before)
			o := opts(machine.IPSC())
			o.Strategy = strat
			res, err := Transpose(plan.Exchange, d, after, o)
			verifyTranspose(t, fmt.Sprintf("2d %v %v", enc, strat), m, res, err)
		}
	}
}

func TestTransposeExchangeSPTOrder(t *testing.T) {
	p, q, n := 3, 3, 4
	before := field.TwoDimCyclic(p, q, n/2, n/2, field.Binary)
	after := field.TwoDimCyclic(q, p, n/2, n/2, field.Binary)
	m := matrix.NewIota(p, q)
	d := matrix.Scatter(m, before)
	res, err := Transpose(plan.ExchangeSPTOrder, d, after, opts(machine.Ideal(machine.OnePort)))
	verifyTranspose(t, "spt-order", m, res, err)
}

func TestPathTransposes(t *testing.T) {
	algos := []struct {
		name string
		alg  plan.Algorithm
	}{
		{"SPT", plan.SPT},
		{"DPT", plan.DPT},
		{"MPT", plan.MPT},
		{"SBnT", plan.SBnT},
		{"RoutingLogic", plan.RoutingLogic},
	}
	p, q, n := 4, 4, 4
	for _, enc := range []field.Encoding{field.Binary, field.Gray} {
		for _, a := range algos {
			before := field.TwoDimConsecutive(p, q, n/2, n/2, enc)
			after := field.TwoDimConsecutive(q, p, n/2, n/2, enc)
			m := matrix.NewIota(p, q)
			d := matrix.Scatter(m, before)
			o := opts(machine.IPSCNPort())
			o.Packets = 2
			res, err := Transpose(a.alg, d, after, o)
			verifyTranspose(t, fmt.Sprintf("%s/%v", a.name, enc), m, res, err)
		}
	}
}

func TestPathTransposeRejectsNonPairwise(t *testing.T) {
	before := field.OneDimConsecutiveRows(4, 4, 2, field.Binary)
	after := field.OneDimConsecutiveRows(4, 4, 2, field.Binary)
	m := matrix.NewIota(4, 4)
	d := matrix.Scatter(m, before)
	if _, err := Transpose(plan.SPT, d, after, opts(machine.IPSC())); err == nil {
		t.Error("SPT accepted a non-pairwise transposition")
	}
}

// DPT should roughly halve the SPT transfer time for transfer-dominated
// problems (Section 6.1.2), and MPT should beat both with n-port comm.
func TestSPTDPTMPTOrdering(t *testing.T) {
	p, q, n := 6, 6, 4
	mach := machine.Ideal(machine.NPort)
	mach.Tau = 0.001
	before := field.TwoDimConsecutive(p, q, n/2, n/2, field.Binary)
	after := field.TwoDimConsecutive(q, p, n/2, n/2, field.Binary)
	m := matrix.NewIota(p, q)

	run := func(alg plan.Algorithm) float64 {
		d := matrix.Scatter(m, before)
		res, err := Transpose(alg, d, after, opts(mach))
		if err != nil {
			t.Fatal(err)
		}
		if verr := res.Dist.Verify(m.Transposed()); verr != nil {
			t.Fatal(verr)
		}
		return res.Stats.Time
	}
	spt, dpt, mpt := run(plan.SPT), run(plan.DPT), run(plan.MPT)
	if !(dpt < spt) {
		t.Errorf("DPT (%v) not faster than SPT (%v)", dpt, spt)
	}
	if !(mpt <= dpt) {
		t.Errorf("MPT (%v) not at least as fast as DPT (%v)", mpt, dpt)
	}
	if spt/dpt < 1.5 {
		t.Errorf("DPT speedup over SPT only %.2f, want ~2", spt/dpt)
	}
}

// convertRows are the Section 6.2 registry rows.
var convertRows = []plan.Algorithm{plan.Convert1, plan.Convert2, plan.Convert3}

// cyclicOf is the Section 6.2 conversions' after layout for a
// two-dimensional consecutive before layout: TwoDimCyclic storage of the
// transposed matrix, in the before layout's encoding.
func cyclicOf(b field.Layout) field.Layout {
	return field.TwoDimCyclic(b.Q, b.P, b.Fields[1].Width(), b.Fields[0].Width(), b.Fields[0].Enc)
}

func TestConvertAlgorithms(t *testing.T) {
	p, q, nr := 4, 4, 1
	for _, alg := range convertRows {
		before := field.TwoDimConsecutive(p, q, nr, nr, field.Binary)
		m := matrix.NewIota(p, q)
		d := matrix.Scatter(m, before)
		res, err := Transpose(alg, d, cyclicOf(d.Layout), opts(machine.IPSC()))
		verifyTranspose(t, alg.String(), m, res, err)
		want := field.TwoDimCyclic(q, p, nr, nr, field.Binary)
		if res.Dist.Layout.String() != want.String() {
			t.Errorf("%v: layout %s, want %s", alg, res.Dist.Layout, want)
		}
	}
}

func TestConvertAlgorithmsLarger(t *testing.T) {
	p, q, nr := 5, 4, 2
	for _, alg := range convertRows {
		before := field.TwoDimConsecutive(p, q, nr, nr, field.Binary)
		m := matrix.NewIota(p, q)
		d := matrix.Scatter(m, before)
		res, err := Transpose(alg, d, cyclicOf(d.Layout), opts(machine.Ideal(machine.OnePort)))
		verifyTranspose(t, alg.String()+"-large", m, res, err)
	}
}

// Section 6.2: algorithm 1 needs 2n communication steps, algorithms 2 and 3
// only n; with start-up dominated costs algorithm 1 must be slowest, and
// algorithm 3 must beat algorithm 2 on copy time.
func TestConvertAlgorithmCosts(t *testing.T) {
	p, q, nr := 5, 5, 2
	mach := machine.IPSC()
	before := field.TwoDimConsecutive(p, q, nr, nr, field.Binary)
	m := matrix.NewIota(p, q)

	times := map[plan.Algorithm]float64{}
	copies := map[plan.Algorithm]float64{}
	for _, alg := range convertRows {
		d := matrix.Scatter(m, before)
		res, err := Transpose(alg, d, cyclicOf(d.Layout), opts(mach))
		if err != nil {
			t.Fatal(err)
		}
		if verr := res.Dist.Verify(m.Transposed()); verr != nil {
			t.Fatal(verr)
		}
		times[alg] = res.Stats.Time
		copies[alg] = res.Stats.CopyTime
	}
	if times[plan.Convert1] <= times[plan.Convert3] {
		t.Errorf("algorithm 1 (%v) should be slower than algorithm 3 (%v) on a start-up bound machine",
			times[plan.Convert1], times[plan.Convert3])
	}
	if copies[plan.Convert2] <= copies[plan.Convert3] {
		t.Errorf("algorithm 2 copy time (%v) should exceed algorithm 3 (%v)",
			copies[plan.Convert2], copies[plan.Convert3])
	}
}

func TestConvertRejectsBadShapes(t *testing.T) {
	before := field.TwoDimConsecutive(4, 4, 2, 1, field.Binary) // nr != nc
	d := matrix.Scatter(matrix.NewIota(4, 4), before)
	if _, err := Transpose(plan.Convert1, d, cyclicOf(d.Layout), opts(machine.IPSC())); err == nil {
		t.Error("nr != nc accepted")
	}
	before = field.TwoDimConsecutive(2, 4, 2, 2, field.Binary) // p < 2nr
	d = matrix.Scatter(matrix.NewIota(2, 4), before)
	if _, err := Transpose(plan.Convert2, d, cyclicOf(d.Layout), opts(machine.IPSC())); err == nil {
		t.Error("p < 2nr accepted")
	}
}

// The exchange transpose with LocalCopies charges pack/unpack copies.
func TestLocalCopiesCharged(t *testing.T) {
	before := field.TwoDimConsecutive(3, 3, 1, 1, field.Binary)
	after := field.TwoDimConsecutive(3, 3, 1, 1, field.Binary)
	m := matrix.NewIota(3, 3)
	d := matrix.Scatter(m, before)
	o := opts(machine.IPSC())
	o.LocalCopies = true
	res, err := Transpose(plan.Exchange, d, after, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CopyTime == 0 {
		t.Error("LocalCopies did not charge copy time")
	}
}

// The Section 6.2 conversions are encoding-agnostic: Gray-coded layouts
// convert exactly like binary ones.
func TestConvertAlgorithmsGray(t *testing.T) {
	p, q, nr := 4, 4, 2
	for _, alg := range convertRows {
		before := field.TwoDimConsecutive(p, q, nr, nr, field.Gray)
		m := matrix.NewIota(p, q)
		d := matrix.Scatter(m, before)
		res, err := Transpose(alg, d, cyclicOf(d.Layout), opts(machine.IPSC()))
		verifyTranspose(t, alg.String()+"-gray", m, res, err)
		if res.Dist.Layout.Fields[0].Enc != field.Gray {
			t.Errorf("%v: result layout lost the Gray encoding", alg)
		}
	}
}

// Virtual time is a fixed point: the zero-option cost of every Section 6.2
// conversion is pinned bit-for-bit (the values predate the conversions
// becoming compiled plans, and must never move with host-side refactors).
func TestConversionStatsPinned(t *testing.T) {
	small := [3]fabric.Stats{
		{Time: 43784.312, Startups: 96, Sends: 128, Bytes: 4096, CopyBytes: 1024, CopyTime: 54404.99199999998, MaxLinkBytes: 96, MaxLinkBusy: 10096},
		{Time: 26928.623999999996, Startups: 64, Sends: 64, Bytes: 2048, CopyBytes: 2048, CopyTime: 108809.98399999995, MaxLinkBytes: 32, MaxLinkBusy: 5032},
		{Time: 20128, Startups: 64, Sends: 64, Bytes: 2048, MaxLinkBytes: 32, MaxLinkBusy: 5032},
	}
	large := [3]fabric.Stats{
		{Time: 60205.992, Startups: 96, Sends: 128, Bytes: 32768, CopyBytes: 16384, CopyTime: 274143.872, MaxLinkBytes: 768, MaxLinkBusy: 10768},
		{Time: 45291.488, Startups: 64, Sends: 64, Bytes: 16384, CopyBytes: 24576, CopyTime: 388279.8080000001, MaxLinkBytes: 256, MaxLinkBusy: 5256},
		{Time: 38157.992, Startups: 64, Sends: 64, Bytes: 16384, CopyBytes: 16384, CopyTime: 274143.872, MaxLinkBytes: 256, MaxLinkBusy: 5256},
	}
	cases := []struct {
		name   string
		p, q   int
		enc    field.Encoding
		opt    Options
		pinned [3]fabric.Stats
	}{
		{"4x4 binary ipsc", 4, 4, field.Binary, Options{Machine: machine.IPSC()}, small},
		{"4x4 binary ipsc-nport", 4, 4, field.Binary, Options{Machine: machine.IPSCNPort()}, small},
		{"6x5 gray buffered ipsc", 6, 5, field.Gray, Options{Machine: machine.IPSC(), Strategy: comm.Buffered}, large},
	}
	for _, c := range cases {
		m := matrix.NewIota(c.p, c.q)
		for i, alg := range convertRows {
			d := matrix.Scatter(m, field.TwoDimConsecutive(c.p, c.q, 2, 2, c.enc))
			res, err := Transpose(alg, d, cyclicOf(d.Layout), c.opt)
			verifyTranspose(t, c.name+" "+alg.String(), m, res, err)
			if err == nil && res.Stats != c.pinned[i] {
				t.Errorf("%s %v: Stats moved:\ngot  %+v\nwant %+v", c.name, alg, res.Stats, c.pinned[i])
			}
		}
	}
}

// The exchange's storage grows with the blocks a node holds, not with the
// 2^l slots of the array it models: a 512x512 two-dimensional consecutive
// transpose on the 12-cube Connection Machine (4,096 nodes, one block each,
// twelve steps) allocates under 128 MB in all, where a per-node table of the
// 2^12 slots came to ~1.9 GB.
func TestExchangeAllocGrowsWithBlocks(t *testing.T) {
	const p, n = 9, 12
	layout := field.TwoDimConsecutive(p, p, n/2, n/2, field.Binary)
	pl, err := plan.Compile(plan.Exchange, layout, layout, plan.Config{Machine: machine.ConnectionMachine()})
	if err != nil {
		t.Fatal(err)
	}
	m := matrix.NewIota(p, p)
	d := matrix.Scatter(m, layout)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Execute(pl, d, nil)
	runtime.ReadMemStats(&after)
	verifyTranspose(t, "2d exchange on the 12-cube", m, res, err)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 128<<20 {
		t.Errorf("exchange allocated %d MB, want under 128 MB", got>>20)
	}
}
