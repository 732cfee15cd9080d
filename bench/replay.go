package main

import (
	"fmt"
	"reflect"

	"boolcube"
	"boolcube/internal/fabric"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
	"boolcube/internal/router"
)

const (
	// setupReps is how many times a run repeats a workload's set-up; the
	// median is reported as setup_s.
	setupReps = 5
	// warmRounds is how many untimed rounds follow set-up before timing.
	warmRounds = 2
)

// runReplay is the closed loop of replay_flow and replay_exch: one client,
// one op = one round of Execute + Verify over every shape. Set-up (matrix
// build, Scatter, cold Compile through the public API, first round) runs
// setupReps times (measured.setUps).
func runReplay(e *env, wname string, shapes []shape) (*measured, error) {
	m := newMeasured()
	var prep []prepared
	err := m.setUps(func() { prep = nil }, func() (err error) {
		if prep, err = prepare(shapes, e.seed); err == nil {
			m.attempt(func() error { return replayRound(e, m, wname, prep) })
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, p := range prep {
		if e.traced() && p.plan.Kind() == plan.KindFlow {
			// The decomposition is only worth reporting if it is the same
			// computation: same Dist, same Stats as core.Execute.
			if err := checkRecomposed(p); err != nil {
				return nil, err
			}
		}
	}
	for i := 0; i < warmRounds; i++ {
		m.attempt(func() error { return replayRound(e, m, wname, prep) })
	}
	plain := func() error { return replayRound(e, m, wname, prep) }
	if !e.traced() {
		m.timed(e.seconds, 2, plain)
	} else {
		m.alternated(e.seconds/2, 4, plain, func() error { return tracedRound(e, prep) })
	}
	return m, nil
}

// replayRound is the untraced op: the public Execute, Verify, and the golden
// comparison of the simulated statistics, over every shape.
func replayRound(e *env, m *measured, wname string, prep []prepared) error {
	var sends, startups int64
	var simTime float64
	for _, p := range prep {
		res, err := p.ct.Execute(p.src)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		if err := res.Dist.Verify(p.want); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		if err := e.gold.check(wname+"/"+p.name, res.Stats); err != nil {
			return err
		}
		sends += res.Stats.Sends
		startups += res.Stats.Startups
		simTime += res.Stats.Time
	}
	m.simSends, m.simStartups, m.simTimeUs = sends, startups, simTime
	return nil
}

// tracedRound is the traced op. Flow plans run as the pipeline recomposed
// from the layers' exported functions, one span per call; exchange plans
// cannot be taken apart cheaply from outside, so the whole core.Execute is
// one span and its separately callable children are timed by the probes.
func tracedRound(e *env, prep []prepared) error {
	tr := e.tr
	tr.beginOp("round")
	defer tr.end()
	for _, p := range prep {
		var dist *boolcube.Dist
		if p.plan.Kind() == plan.KindFlow {
			d, _, err := flowPipeline(tr, p)
			if err != nil {
				return fmt.Errorf("%s: %w", p.name, err)
			}
			dist = d
		} else {
			tr.begin("plan.cache_hit")
			ct, err := boolcube.Compile(p.before, p.after, p.opt)
			tr.end()
			if err != nil {
				return fmt.Errorf("%s: %w", p.name, err)
			}
			tr.begin("core.Execute")
			res, err := ct.Execute(p.src)
			tr.end()
			if err != nil {
				return fmt.Errorf("%s: %w", p.name, err)
			}
			dist = res.Dist
		}
		tr.begin("matrix.Verify")
		err := dist.Verify(p.want)
		tr.end()
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return nil
}

// flowPipeline replays a flow plan exactly as core.Execute does on a
// fault-free run, but from outside core: plan.Default.Compile (a cache hit)
// -> Moves.GatherRangeInto -> fabric.New -> router.RunRecover ->
// Moves.ScatterRange. checkRecomposed holds it to the same Dist and Stats.
func flowPipeline(tr *tracer, p prepared) (*boolcube.Dist, boolcube.Stats, error) {
	var zero boolcube.Stats
	tr.begin("plan.cache_hit")
	pl, err := plan.Default.Compile(p.opt.Algorithm, p.before, p.after, p.planConfig())
	tr.end()
	if err != nil {
		return nil, zero, err
	}
	mv, pf, after := pl.Moves(), pl.Flows(), pl.After()
	nodes := 1 << uint(pl.NDims())

	tr.begin("core.gather")
	total := 0
	for _, f := range pf {
		total += f.Len
	}
	arena := make([]float64, total)
	flows := make([]router.Flow, len(pf))
	off := 0
	for i, f := range pf {
		buf := arena[off : off+f.Len : off+f.Len]
		off += f.Len
		mv.GatherRangeInto(f.Src, p.src.Local[f.Src], f.Dst, f.Off, f.Len, buf)
		flows[i] = router.Flow{Src: f.Src, Dst: f.Dst, Dims: f.Dims, Packets: f.Packets, Data: buf}
	}
	loc := make([][]float64, nodes)
	sz := after.LocalSize()
	slab := make([]float64, after.N()*sz)
	for i := 0; i < after.N(); i++ {
		loc[i] = slab[i*sz : (i+1)*sz : (i+1)*sz]
	}
	for dp := 0; dp < after.N() && dp < p.before.N(); dp++ {
		id := uint64(dp)
		mv.Scatter(id, loc[dp], id, mv.Gather(id, p.src.Local[dp], id))
	}
	tr.end()

	tr.begin("simnet.New")
	eng, err := fabric.New("", pl.NDims(), pl.Config().Machine)
	tr.end()
	if err != nil {
		return nil, zero, err
	}

	tr.begin("router.RunRecover")
	deliveries, _, err := router.RunRecover(eng, flows)
	tr.end()
	if err != nil {
		return nil, zero, err
	}

	tr.begin("core.scatter")
	// As in core: deliveries from one source reach a destination in
	// injection order, so zipping them with the flows' canonical offsets
	// places every chunk.
	offs := make(map[uint64]map[uint64][]int)
	for _, f := range pf {
		m := offs[f.Dst]
		if m == nil {
			m = make(map[uint64][]int)
			offs[f.Dst] = m
		}
		m[f.Src] = append(m[f.Src], f.Off)
	}
	for dp := 0; dp < after.N(); dp++ {
		next := make(map[uint64]int)
		for _, dl := range deliveries[uint64(dp)] {
			o := offs[uint64(dp)][dl.Src][next[dl.Src]]
			next[dl.Src]++
			mv.ScatterRange(uint64(dp), loc[dp], dl.Src, o, dl.Data)
		}
	}
	tr.end()
	return &matrix.Dist{Layout: after, Local: loc[:after.N()]}, eng.Stats(), nil
}

// checkRecomposed fails unless the recomposed pipeline and core.Execute
// agree on the resulting distribution and on every statistic.
func checkRecomposed(p prepared) error {
	ref, err := p.ct.Execute(p.src)
	if err != nil {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	dist, st, err := flowPipeline(nil, p)
	if err != nil {
		return fmt.Errorf("%s: recomposed pipeline: %w", p.name, err)
	}
	if st != ref.Stats {
		return fmt.Errorf("%s: recomposed pipeline stats %+v differ from core.Execute %+v", p.name, st, ref.Stats)
	}
	if dist.Layout.String() != ref.Dist.Layout.String() || !reflect.DeepEqual(dist.Local, ref.Dist.Local) {
		return fmt.Errorf("%s: recomposed pipeline distribution differs from core.Execute", p.name)
	}
	return nil
}
