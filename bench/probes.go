package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"boolcube"
	"boolcube/internal/comm"
	"boolcube/internal/core"
	"boolcube/internal/fabric"
	"boolcube/internal/machine"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
	"boolcube/internal/router"
	"boolcube/internal/simnet"
)

// The layer probes time calls into one layer's exported functions on fixed
// shapes (the five of the replay workloads unless stated). They run in the
// traced pass of every workload, so each per-layer metric is a measurement
// on every run; what differs between workloads is the state of the process
// they run in (heap size, plan cache) and the span-derived share.* metrics.

// probes collects the probe readings by metric name.
type probes map[string]float64

// timeMs runs f once and returns its wall time in ms.
func timeMs(f func()) float64 {
	t0 := now()
	f()
	return ms(now() - t0)
}

// medianMs runs f reps times and returns the median wall time in ms.
func medianMs(reps int, f func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		ts[i] = timeMs(f)
	}
	return median(ts)
}

// runProbes measures every layer probe.
func runProbes(seed int64) (probes, error) {
	pr := make(probes)
	shapes := append(flowShapes(), exchShapes()...)
	prep, err := prepare(shapes, seed)
	if err != nil {
		return nil, err
	}
	steps := []func(probes, []prepared) error{
		probePlan, probeField, probeMatrix, probeCore, probeRecover,
		probeRouter, probeComm, probeSimnet, probeFabric, probeLivenet,
	}
	for _, step := range steps {
		runtime.GC()
		if err := step(pr, prep); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	if err := probeService(pr, seed); err != nil {
		return nil, err
	}
	return pr, nil
}

// probePlan: uncached compile and the move-set construction inside it, summed
// over the shapes, and a hit on the process-wide cache (Service.Submit pays
// one per job).
func probePlan(pr probes, prep []prepared) error {
	var err error
	pr["plan.compile_ms"] = timeMs(func() {
		for _, p := range prep {
			if _, e := plan.Compile(p.opt.Algorithm, p.before, p.after, p.planConfig()); e != nil {
				err = e
			}
		}
	})
	pr["plan.newmoves_ms"] = timeMs(func() {
		for _, p := range prep {
			if _, e := plan.NewMoves(p.before, p.after, true); e != nil {
				err = e
			}
		}
	})
	hits := sized(2000, 20)
	p := prep[0]
	cfg := p.planConfig()
	pr["plan.cache_hit_us"] = 1000 * timeMs(func() {
		for i := 0; i < hits; i++ {
			if _, e := plan.Default.Compile(p.opt.Algorithm, p.before, p.after, cfg); e != nil {
				err = e
			}
		}
	}) / float64(hits)
	return err
}

// probeField: the address arithmetic under compile, Scatter and Verify, per
// call, on the 512x512 two-dimensional layout.
func probeField(pr probes, prep []prepared) error {
	bits := sized(9, 5)
	l := boolcube.TwoDimConsecutive(bits, bits, sized(4, 2), sized(4, 2), boolcube.Gray)
	side := uint64(1) << uint(bits)
	calls := float64(side * side)
	var sink uint64
	pr["field.procof_ns"] = 1e6 * timeMs(func() {
		for u := uint64(0); u < side; u++ {
			for v := uint64(0); v < side; v++ {
				sink += l.ProcOf(u, v)
			}
		}
	}) / calls
	pr["field.localof_ns"] = 1e6 * timeMs(func() {
		for u := uint64(0); u < side; u++ {
			for v := uint64(0); v < side; v++ {
				sink += l.LocalOf(u, v)
			}
		}
	}) / calls
	procs, slots := uint64(l.N()), uint64(l.LocalSize())
	pr["field.elementof_ns"] = 1e6 * timeMs(func() {
		for p := uint64(0); p < procs; p++ {
			for s := uint64(0); s < slots; s++ {
				u, v := l.ElementOf(p, s)
				sink += u ^ v
			}
		}
	}) / calls
	if sink == 1 {
		return errors.New("field probe: impossible checksum") // keeps sink live
	}
	return nil
}

// probeMatrix: distributing and verifying one 512x512 matrix.
func probeMatrix(pr probes, prep []prepared) error {
	bits := sized(9, 5)
	l := boolcube.TwoDimConsecutive(bits, bits, sized(4, 2), sized(4, 2), boolcube.Binary)
	m := seededMatrix(bits, bits, rand.New(rand.NewSource(1)))
	var d *matrix.Dist
	pr["matrix.scatter_ms"] = medianMs(3, func() { d = matrix.Scatter(m, l) })
	var err error
	pr["matrix.verify_ms"] = medianMs(3, func() { err = d.Verify(m) })
	return err
}

// probeCore: the executor as a whole and its separately callable children,
// each summed over the five shapes. There is no "execute minus children"
// reading: the difference of two 300 ms timings measured apart came out
// anywhere between -17 and +24 ms. What core itself adds is gather_ms +
// scatter_ms, and share.core_pct of replay_flow's traced ops.
func probeCore(pr probes, prep []prepared) error {
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	execute := func() {
		for _, p := range prep {
			_, err := core.ExecuteWith(p.plan, p.src, core.ExecOptions{})
			note(err)
		}
	}
	execute() // warm
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pr["core.execute_ms"] = timeMs(execute)
	runtime.ReadMemStats(&after)
	pr["core.alloc_mb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	pr["core.mallocs_per_op"] = float64(after.Mallocs - before.Mallocs)

	for _, p := range prep {
		g, s, _ := gatherScatter(p)
		pr["core.gather_ms"] += g
		pr["core.scatter_ms"] += s
	}
	pr["core.oneshot_ms"] = timeMs(func() {
		for _, p := range prep {
			res, err := boolcube.Transpose(p.src, p.after, p.opt)
			if err == nil {
				err = res.Dist.Verify(p.want)
			}
			note(err)
		}
	})
	return firstErr
}

// gatherScatter times the plan's Moves over one shape: gathering every
// payload the executor would send (per flow for flow plans, per destination
// otherwise) and scattering each at its destination. It returns both times
// and the payloads in flow order.
func gatherScatter(p prepared) (gatherMs, scatterMs float64, payloads [][]float64) {
	mv, after := p.plan.Moves(), p.plan.After()
	type xfer struct {
		src, dst uint64
		off      int
	}
	var xs []xfer
	if p.plan.Kind() == plan.KindFlow {
		for _, f := range p.plan.Flows() {
			xs = append(xs, xfer{f.Src, f.Dst, f.Off})
			payloads = append(payloads, make([]float64, f.Len))
		}
	} else {
		for src := 0; src < p.before.N(); src++ {
			for _, dst := range mv.Destinations(uint64(src)) {
				xs = append(xs, xfer{uint64(src), dst, 0})
				payloads = append(payloads, make([]float64, mv.PayloadLen(uint64(src), dst)))
			}
		}
	}
	gatherMs = medianMs(3, func() {
		for i, x := range xs {
			mv.GatherRangeInto(x.src, p.src.Local[x.src], x.dst, x.off, len(payloads[i]), payloads[i])
		}
	})
	loc := make([][]float64, after.N())
	for i := range loc {
		loc[i] = make([]float64, after.LocalSize())
	}
	scatterMs = medianMs(3, func() {
		for i, x := range xs {
			mv.ScatterRange(x.dst, loc[x.dst], x.src, x.off, payloads[i])
		}
	})
	return gatherMs, scatterMs, payloads
}

// routerRun times router.RunRecover for one flow shape on a fresh engine
// with the flows already materialised.
func routerRun(p prepared, payloads [][]float64) (runMs float64, err error) {
	pf := p.plan.Flows()
	flows := make([]router.Flow, len(pf))
	for i, f := range pf {
		// RunRecover hands the payloads to the receiving nodes, so each run
		// gets its own copy.
		flows[i] = router.Flow{Src: f.Src, Dst: f.Dst, Dims: f.Dims, Packets: f.Packets, Data: append([]float64(nil), payloads[i]...)}
	}
	eng, err := fabric.New("", p.plan.NDims(), p.plan.Config().Machine)
	if err != nil {
		return 0, err
	}
	runMs = timeMs(func() { _, _, err = router.RunRecover(eng, flows) })
	return runMs, err
}

// probeRouter: RunRecover over the two flow shapes' materialised flows, the
// flow count, and a failover pass that reroutes mpt8 around two dead links.
func probeRouter(pr probes, prep []prepared) error {
	total, flows := 0.0, 0
	for _, p := range prep[:len(flowShapes())] {
		_, _, payloads := gatherScatter(p)
		r, err := routerRun(p, payloads)
		if err != nil {
			return err
		}
		total += r
		flows += len(payloads)
	}
	pr["router.run_ms"] = total
	pr["router.flows"] = float64(flows)
	pr["router.ns_per_flow"] = 1e6 * total / float64(flows)

	mpt := prep[1]
	pf := mpt.plan.Flows()
	rf := make([]router.Flow, len(pf))
	for i, f := range pf {
		rf[i] = router.Flow{Src: f.Src, Dst: f.Dst, Dims: f.Dims, Packets: f.Packets}
	}
	down := func(from uint64, dim int) bool { return (from == 3 && dim == 1) || (from == 200 && dim == 6) }
	var err error
	var rep router.FailoverReport
	pr["router.failover_ms"] = medianMs(3, func() { _, _, rep, err = router.Failover(rf, mpt.plan.NDims(), down, false) })
	if err == nil && rep.Rerouted == 0 {
		err = errors.New("router probe: the dead links rerouted nothing")
	}
	return err
}

// probeComm: the exchange node programs alone — comm.AllToAllExchange on an
// 8-cube with the Buffered strategy and exbuf8's block size (512x512 over
// 256 nodes in consecutive rows: 4 elements per source/destination pair).
func probeComm(pr probes, prep []prepared) error {
	var err error
	slab := make([]float64, 4)
	pr["comm.exchange_ms"] = medianMs(3, func() {
		var eng fabric.Fabric
		n := sized(8, 4)
		if eng, err = fabric.New("", n, machine.IPSC()); err != nil {
			return
		}
		_, err = comm.AllToAllExchange(eng, comm.DescendingDims(n), comm.Buffered,
			func(src, dst uint64) []float64 { return slab })
	})
	return err
}

// probeSimnet: engine construction and node start-up (New, then Run of an
// empty program) at the service's, the replay workloads' and cube16's size; the dimension scan below the headline size; the serial
// against the sharded scheduler on a 10-cube.
func probeSimnet(pr probes, prep []prepared) error {
	var err error
	for _, n := range []int{6, 8, 16} {
		params := machine.IPSCNPort()
		if n == 16 {
			params = machine.ConnectionMachine()
		}
		pr[fmt.Sprintf("simnet.new_ms.n%d", n)] = medianMs(3, func() {
			eng, e := simnet.New(sized(n, n/2), params)
			if e == nil {
				e = eng.Run(func(fabric.Node) {})
			}
			if e != nil {
				err = e
			}
		})
	}
	scanMs := func(n, shards int) (float64, *scan, boolcube.Stats) {
		s := &scan{n: n, elems: 4, shards: shards}
		var st boolcube.Stats
		d := timeMs(func() {
			e := s.build()
			if e == nil {
				st, e = s.run()
			}
			if e != nil {
				err = e
			}
		})
		return d, s, st
	}
	pr["simnet.scan_ms.n12"], _, _ = scanMs(sized(12, 5), 0)
	base := heapAlloc()
	d14, held, st := scanMs(sized(14, 6), 0)
	if err != nil {
		return err
	}
	pr["simnet.scan_ms.n14"] = d14
	pr["simnet.host_ns_per_send"] = 1e6 * d14 / float64(st.Sends)
	pr["simnet.bytes_per_node"] = (float64(heapAlloc()) - float64(base)) / float64(held.eng.Nodes())
	shards := runtime.GOMAXPROCS(0)
	pr["simnet.shards"] = float64(shards)
	pr["simnet.serial_ms.n10"] = medianMs(3, func() { scanMs(sized(10, 5), -1) })
	pr["simnet.sharded_ms.n10"] = medianMs(3, func() { scanMs(sized(10, 5), shards) })
	return err
}

// probeFabric: the always-on delivery-audit checksum over 8 KB blocks.
func probeFabric(pr probes, prep []prepared) error {
	data := make([]float64, 1024)
	for i := range data {
		data[i] = float64(i)
	}
	reps := sized(20000, 20)
	var sink uint64
	d := timeMs(func() {
		for i := 0; i < reps; i++ {
			sink += fabric.Checksum(data)
		}
	})
	if sink == 0 {
		return errors.New("fabric probe: zero checksum")
	}
	pr["fabric.checksum_gbps"] = float64(reps*len(data)*8) / (d / 1000) / 1e9
	return nil
}

// probeLivenet: a2a7 replayed on the goroutine-per-node backend. It moves no
// gated metric; it is the wall-clock a real transport would show.
func probeLivenet(pr probes, prep []prepared) error {
	p := prep[0]
	var err error
	pr["livenet.replay_ms"] = medianMs(3, func() {
		var res *core.Result
		if res, err = core.ExecuteWith(p.plan, p.src, core.ExecOptions{Backend: "livenet"}); err == nil {
			err = res.Dist.Verify(p.want)
		}
	})
	return err
}

// probeRecover: a 6-cube MPT whose run is cut by two seeded mid-run link
// kills; the probe times the failed run, Recover and Verify.
func probeRecover(pr probes, prep []prepared) error {
	const p, n = 6, 6
	lay := boolcube.TwoDimConsecutive(p, p, n/2, n/2, boolcube.Binary)
	ct, err := boolcube.Compile(lay, lay, boolcube.Options{Algorithm: boolcube.MPT, Machine: boolcube.IPSCNPort()})
	if err != nil {
		return err
	}
	m := seededMatrix(p, p, rand.New(rand.NewSource(1)))
	src, want := boolcube.Scatter(m, lay), m.Transposed()
	base, err := ct.Execute(src)
	if err != nil {
		return err
	}
	for seed := int64(1); seed <= 32; seed++ {
		fp, err := boolcube.CompileFaults(boolcube.FaultSpec{Seed: seed, Rules: []boolcube.FaultRule{
			{Kind: boolcube.FaultRandomLinks, Count: 2, Start: 0.4 * base.Stats.Time},
		}}, n)
		if err != nil {
			return err
		}
		var xe *boolcube.ExecError
		if _, err := ct.ExecuteWith(src, boolcube.ExecOptions{Faults: fp}); !errors.As(err, &xe) {
			continue // these two links carried nothing after the kill
		}
		var rerr error
		pr["core.recover_ms"] = medianMs(3, func() {
			_, err := ct.ExecuteWith(src, boolcube.ExecOptions{Faults: fp})
			if !errors.As(err, &xe) {
				rerr = fmt.Errorf("recover probe: faulted run did not checkpoint: %v", err)
				return
			}
			res, err := boolcube.Recover(xe.Checkpoint, boolcube.ExecOptions{})
			if err == nil {
				err = res.Dist.Verify(want)
			}
			if err != nil {
				rerr = fmt.Errorf("recover probe: %w", err)
			}
		})
		return rerr
	}
	return errors.New("recover probe: no seed in 1..32 made the link kills bite")
}

// probeService: a fresh 6-cube service saturated for a second and a half by
// the closed-loop client, then the same drawn jobs run one after the other
// through core.Execute on private engines. overhead_x is the service's time
// per job over the private time per job: below 1 the shared rounds and the
// batching pay for the scheduler, above 1 they do not.
func probeService(pr probes, seed int64) error {
	jobs := catalogue(seed)
	svc, err := newTenantService(jobs)
	if err != nil {
		return err
	}
	defer svc.Close()
	c := &client{svc: svc, jobs: jobs, rng: rand.New(rand.NewSource(seed)), done: make(chan finished)}
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	win := openWindow(svc)
	completed, elapsed := c.closedLoop(time.Duration(sized(1500, 50))*time.Millisecond, func(f finished) { note(f.err) })
	win.readings(elapsed, func(name string, v float64, _ string) { pr[name] = v })
	pr["service.submit_us"] = median(c.submitUs)

	// The client's draws are the rng's only use, so a second generator from
	// the same seed replays them.
	rng := rand.New(rand.NewSource(seed))
	private := timeMs(func() {
		for i := 0; i < c.next; i++ {
			tj := jobs[rng.Intn(len(jobs))]
			pl, err := plan.Default.Compile(tj.spec.Alg, tj.spec.Before, tj.spec.After, plan.Config{Machine: machine.IPSCNPort()})
			if err == nil {
				_, err = core.Execute(pl, tj.spec.Src, nil)
			}
			note(err)
		}
	}) / float64(c.next)
	pr["service.private_exec_ms"] = private
	pr["service.overhead_x"] = ms(elapsed) / float64(completed) / private
	return firstErr
}
