// Package core executes the paper's matrix transposition algorithms on the
// simulated cube: the one-dimensional exchange transpose with the buffering
// strategies of Section 8.1, the SBnT transpose for n-port communication
// (Section 5), the two-dimensional Single/Dual/Multiple Path Transposes
// (Section 6.1), transposition with change of assignment scheme
// (Section 6.2, algorithms 1-3), the combined transpose + Gray/binary
// conversion (Section 6.3), transposition through the machine routing
// logic, and the bit-reversal and dimension permutations of Section 7.
//
// Since the compile/execute split, the planning half of every algorithm —
// element move-sets, routes, dimension orders, packetization — lives in
// internal/plan as an immutable IR; this package replays a compiled plan
// against distributed data (Execute) and keeps the one-shot entry points
// (Transpose, TransposeXxx) as compile-then-execute conveniences.
//
// Every algorithm moves real matrix elements between real per-processor
// arrays; results are returned as a matrix.Dist that callers verify
// element-exactly against the expected transpose.
package core

import (
	"fmt"

	"boolcube/internal/comm"
	"boolcube/internal/fabric"
	"boolcube/internal/fault"
	"boolcube/internal/field"
	"boolcube/internal/machine"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
	"boolcube/internal/router"

	// Link both shipped backends so fabric.New resolves "simnet" (the
	// default) and "livenet" for any core user.
	_ "boolcube/internal/livenet"
	_ "boolcube/internal/simnet"
)

// Result carries a transposed distribution together with the simulated cost
// of producing it.
type Result struct {
	Dist  *matrix.Dist
	Stats fabric.Stats
}

// Options configures a transpose run.
type Options struct {
	Machine  machine.Params
	Strategy comm.Strategy // exchange-based algorithms (Section 8.1)
	Packets  int           // packet count for path-based algorithms (0 = one per path)
	// LocalCopies charges the local rearrangement cost (pack/unpack of the
	// two-dimensional local arrays, Section 8.2.1) at the start and end.
	LocalCopies bool
	// Tracer, when non-nil, receives every timed operation of the run.
	Tracer fabric.Tracer
	// Faults, when non-nil, injects the compiled fault schedule into the
	// run; Failover and Retry then select the response policy (see
	// ExecOptions).
	Faults   *fault.Plan
	Failover FailoverPolicy
	Retry    fabric.RetryPolicy
	// Deadline, when positive, aborts the run past this virtual time (µs)
	// with a resumable checkpoint (see ExecOptions.Deadline).
	Deadline float64
	// Backend selects the fabric backend to execute on (empty =
	// fabric.DefaultBackend, the deterministic simulation).
	Backend string
}

// ExecConfig extracts the per-run half of the options (the complement of
// PlanConfig).
func (o Options) ExecConfig() ExecOptions {
	return ExecOptions{Tracer: o.Tracer, Faults: o.Faults, Failover: o.Failover, Retry: o.Retry, Deadline: o.Deadline, Backend: o.Backend}
}

// PlanConfig extracts the part of the options that shapes a compiled plan
// (everything but the tracer, which is per-run).
func (o Options) PlanConfig() plan.Config {
	return plan.Config{
		Machine:     o.Machine,
		Strategy:    o.Strategy,
		Packets:     o.Packets,
		LocalCopies: o.LocalCopies,
	}
}

// Transpose compiles the transposition (uncached) and executes it once —
// the seed one-shot path. Callers replaying the same shape repeatedly
// should compile once (plan.Compile or a plan.Cache) and call Execute per
// run.
func Transpose(alg plan.Algorithm, d *matrix.Dist, after field.Layout, opt Options) (*Result, error) {
	p, err := plan.Compile(alg, d.Layout, after, opt.PlanConfig())
	if err != nil {
		return nil, err
	}
	return ExecuteWith(p, d, opt.ExecConfig())
}

// TransposeCached is Transpose through the process-wide plan cache: sweeps
// that re-run the same (layout, algorithm, machine) shape pay the O(P·Q)
// planning cost once.
func TransposeCached(alg plan.Algorithm, d *matrix.Dist, after field.Layout, opt Options) (*Result, error) {
	p, err := plan.Default.Compile(alg, d.Layout, after, opt.PlanConfig())
	if err != nil {
		return nil, err
	}
	return ExecuteWith(p, d, opt.ExecConfig())
}

// Execute replays a compiled plan against the distributed matrix d. The
// plan is read-only here and inside every node program — the simnet
// concurrency contract — so one plan may serve concurrent executions.
func Execute(p *plan.Plan, d *matrix.Dist, tracer fabric.Tracer) (*Result, error) {
	return ExecuteWith(p, d, ExecOptions{Tracer: tracer})
}

// ExecuteWith is Execute with the full per-run option set: tracing, fault
// injection, failover and retry policy. The plan stays read-only — fault
// failover never mutates a plan's routes; rerouted flows get fresh ones.
func ExecuteWith(p *plan.Plan, d *matrix.Dist, xo ExecOptions) (*Result, error) {
	if got, want := d.Layout.String(), p.Before().String(); got != want {
		return nil, fmt.Errorf("core: distribution layout %s does not match plan layout %s", got, want)
	}
	if err := xo.checkFaults(p); err != nil {
		return nil, err
	}
	if err := xo.checkFeasible(p); err != nil {
		return nil, err
	}
	switch p.Kind() {
	case plan.KindExchange:
		return execExchange(p, d, xo)
	case plan.KindFlow:
		return execFlow(p, d, xo)
	case plan.KindMixedProgram:
		return execMixedProgram(p, d, xo)
	}
	return nil, fmt.Errorf("core: unknown plan kind %v", p.Kind())
}

// engineFor builds an engine big enough for both layouts on the backend
// the options select.
func engineFor(before, after field.Layout, opt Options) (fabric.Fabric, int, error) {
	n := before.NBits()
	if a := after.NBits(); a > n {
		n = a
	}
	e, err := fabric.New(opt.Backend, n, opt.Machine)
	if err != nil {
		return nil, 0, err
	}
	return e, n, nil
}

// applyTracer installs the optional tracer on a fresh engine.
func applyTracer(e fabric.Fabric, opt Options) {
	if opt.Tracer != nil {
		e.SetTracer(opt.Tracer)
	}
}

// planEngine builds the engine a plan executes on, installs the tracer
// (labeling it with the plan's description when the tracer supports
// labels), and arms fault injection when the run carries a fault plan.
func planEngine(p *plan.Plan, xo ExecOptions) (fabric.Fabric, error) {
	e, err := fabric.New(xo.Backend, p.NDims(), p.Config().Machine)
	if err != nil {
		return nil, err
	}
	if xo.Tracer != nil {
		if l, ok := xo.Tracer.(interface{ SetLabel(string) }); ok {
			l.SetLabel(p.Describe())
		}
		if xo.Faults != nil {
			if f, ok := xo.Tracer.(interface{ SetFaults([]string) }); ok {
				f.SetFaults(xo.Faults.Describe())
			}
		}
		e.SetTracer(xo.Tracer)
	}
	if xo.Faults != nil {
		e.SetFaults(xo.Faults, xo.Retry)
	}
	if xo.Deadline > 0 {
		e.SetDeadline(xo.Deadline)
	}
	return e, nil
}

// newLocal allocates the after-side local arrays: one slab sliced per node
// (capped slices, so a stray append cannot bleed into a neighbor), keeping
// the destination arrays cache-adjacent and the allocation count flat in
// the node count. Nodes beyond the after-layout's range stay nil.
func newLocal(after field.Layout, nodes int) [][]float64 {
	loc := make([][]float64, nodes)
	sz := after.LocalSize()
	slab := make([]float64, after.N()*sz)
	for i := 0; i < after.N(); i++ {
		loc[i] = slab[i*sz : (i+1)*sz : (i+1)*sz]
	}
	return loc
}

// srcLocal returns the before-side local array of a node (empty for nodes
// outside the before-layout's processor range).
func srcLocal(d *matrix.Dist, id uint64) []float64 {
	if id < uint64(len(d.Local)) {
		return d.Local[id]
	}
	return nil
}

// finishDist wraps freshly filled local arrays as a Dist on the after
// layout, trimming nodes beyond the after-layout's processor count.
func finishDist(after field.Layout, loc [][]float64) *matrix.Dist {
	return &matrix.Dist{Layout: after, Local: loc[:after.N()]}
}

// execExchange replays a KindExchange plan: every node gathers its
// per-destination blocks, runs the dimension-scan exchange over the plan's
// dimension order with the configured strategy, and scatters each block into
// the destination array the moment it arrives (the exchange delivery hook).
// Early scattering is what makes the execution checkpointable: when the run
// fails mid-flight, everything already scattered is durable, the per-node
// delivery records turn into a plan.Delivered span-set, and the typed
// *ExecError hands the Checkpoint to Resume. The hook changes no timed
// operation.
func execExchange(p *plan.Plan, d *matrix.Dist, xo ExecOptions) (*Result, error) {
	e, err := planEngine(p, xo)
	if err != nil {
		return nil, err
	}
	mv := p.Moves()
	cfg := p.Config()
	dims := p.Dims()
	after := p.After()
	loc := newLocal(after, e.Nodes())
	hint := p.MsgElemsHint()
	debug := e.DebugChecks()

	// Per-node delivery records: each cell is written only by its owning
	// node's program (partitioned state under the simnet concurrency
	// contract) and read host-side only after the run has fully unwound.
	type exchProgress struct {
		srcs     []uint64
		selfDone bool
	}
	prog := make([]exchProgress, e.Nodes())

	err = e.Run(func(nd fabric.Node) {
		id := nd.ID()
		local := srcLocal(d, id)
		if cfg.LocalCopies && len(local) > 0 {
			nd.Copy(len(local) * cfg.Machine.ElemBytes)
		}
		out := loc[id]
		if local != nil && out != nil {
			// The self payload never crosses a link: place it up front so it
			// is durable from the run's first instant.
			mv.Scatter(id, out, id, mv.Gather(id, local, id))
			prog[id].selfDone = true
		}
		var blocks []comm.Block
		if local != nil {
			// Gather every destination's payload into one pooled arena sized
			// by the plan's hint, instead of one allocation per destination.
			// The arena is handed off to the exchange (which copies blocks
			// into outgoing messages), never recycled here.
			dests := mv.Destinations(id)
			arena := nd.AllocData(hint)
			blocks = make([]comm.Block, 0, len(dests))
			off := 0
			for _, dp := range dests {
				n := mv.PayloadLen(id, dp)
				buf := arena[off : off+n : off+n]
				off += n
				mv.GatherInto(id, local, dp, buf)
				b := comm.Block{Src: id, Dst: dp, Data: buf, Sum: fabric.Checksum(buf)}
				if debug {
					b.Tags = addrTags(id, 0, n)
				}
				blocks = append(blocks, b)
			}
		}
		comm.ExchangeBlocksHooked(nd, dims, cfg.Strategy, blocks, comm.ExchangeHooks{
			OnFinal: func(step int, b comm.Block) {
				if out == nil {
					return
				}
				if b.Tags != nil {
					verifyTags(nd, b.Src, b.Dst, 0, b.Tags)
				}
				mv.Scatter(id, out, b.Src, b.Data)
				prog[id].srcs = append(prog[id].srcs, b.Src)
			},
		})
		if out != nil && cfg.LocalCopies {
			nd.Copy(len(out) * cfg.Machine.ElemBytes)
		}
	})
	if err != nil {
		del := plan.NewDelivered()
		for i := range prog {
			id := uint64(i)
			if prog[i].selfDone {
				del.Add(id, id, 0, mv.PayloadLen(id, id))
			}
			for _, src := range prog[i].srcs {
				del.Add(src, id, 0, mv.PayloadLen(src, id))
			}
		}
		st := e.Stats()
		return nil, &ExecError{
			Checkpoint: &Checkpoint{Plan: p, Src: d, Loc: loc, Delivered: del, Stats: st, At: st.Time, Opts: xo},
			Err:        err,
		}
	}
	return &Result{Dist: finishDist(after, loc), Stats: e.Stats()}, nil
}

// execFlow replays a KindFlow plan: materialize each precompiled flow's
// payload from the fresh data, inject all flows through the router, and
// reassemble the deliveries into the after-side distribution. Under fault
// injection with failover enabled, blocked flows are first rerouted (or
// abandoned) against the permanently-down links; the plan's own route
// slices are never touched.
func execFlow(p *plan.Plan, d *matrix.Dist, xo ExecOptions) (*Result, error) {
	e, err := planEngine(p, xo)
	if err != nil {
		return nil, err
	}
	mv := p.Moves()
	cfg := p.Config()
	after := p.After()
	pf := p.Flows()
	debug := e.DebugChecks()
	// Materialize every flow payload into one arena (capped slices) instead
	// of one allocation per flow; the router chunks each region in place and
	// ownership passes to the receiving nodes with the messages.
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
		mv.GatherRangeInto(f.Src, d.Local[f.Src], f.Dst, f.Off, f.Len, buf)
		flows[i] = router.Flow{
			Src: f.Src, Dst: f.Dst, Dims: f.Dims, Packets: f.Packets,
			Data: buf,
		}
		if debug {
			flows[i].Tags = addrTags(f.Src, f.Off, f.Len)
		}
	}
	// keptIdx maps the flows actually injected back to plan flow indices,
	// so deliveries can be scattered at each flow's canonical offset even
	// when failover dropped or reordered routes.
	keptIdx := make([]int, len(flows))
	for i := range keptIdx {
		keptIdx[i] = i
	}
	var rep router.FailoverReport
	if xo.Faults != nil && xo.Failover != FailoverNone {
		flows, keptIdx, rep, err = router.Failover(
			flows, p.NDims(), xo.Faults.PermanentlyDown, xo.Failover == FailoverAbandon)
		if err != nil {
			return nil, err
		}
	}
	// Self pairs never cross a link: place them before the run, so even a
	// failed run checkpoints with them durable.
	loc := newLocal(after, e.Nodes())
	del := plan.NewDelivered()
	for dp := 0; dp < after.N(); dp++ {
		if uint64(dp) < uint64(d.Layout.N()) {
			self := mv.Gather(uint64(dp), d.Local[dp], uint64(dp))
			mv.Scatter(uint64(dp), loc[dp], uint64(dp), self)
			del.Add(uint64(dp), uint64(dp), 0, len(self))
		}
	}
	deliveries, part, err := router.RunRecover(e, flows)
	if err != nil {
		// Salvage: every completely delivered flow is scattered at its
		// canonical offset and recorded, so the checkpoint resumes with only
		// the flows that were still in flight.
		for k, fi := range part.FlowIdx {
			f := flows[fi]
			o := pf[keptIdx[fi]].Off
			if debug && part.Tags[k] != nil {
				verifyTagsHost(f.Src, f.Dst, o, part.Tags[k])
			}
			mv.ScatterRange(f.Dst, loc[f.Dst], f.Src, o, part.Data[k])
			del.Add(f.Src, f.Dst, o, len(part.Data[k]))
		}
		st := e.Stats()
		st.Rerouted = rep.Rerouted
		st.ExtraHops = rep.ExtraHops
		st.Abandoned = rep.Abandoned
		return nil, &ExecError{
			Checkpoint: &Checkpoint{Plan: p, Src: d, Loc: loc, Delivered: del, Stats: st, At: st.Time, Opts: xo},
			Err:        err,
		}
	}
	// offs[dst][src] lists each kept flow's canonical payload offset, in
	// injection order. Deliveries from one source arrive at a destination in
	// that same order (router.Run sorts stably by source), so zipping the
	// two scatters every chunk into its own slot range.
	offs := make(map[uint64]map[uint64][]int)
	for k, f := range flows {
		m := offs[f.Dst]
		if m == nil {
			m = make(map[uint64][]int)
			offs[f.Dst] = m
		}
		m[f.Src] = append(m[f.Src], pf[keptIdx[k]].Off)
	}
	for dp := 0; dp < after.N(); dp++ {
		out := loc[dp]
		next := make(map[uint64]int)
		for _, dl := range deliveries[uint64(dp)] {
			o := offs[uint64(dp)][dl.Src][next[dl.Src]]
			next[dl.Src]++
			if debug && dl.Tags != nil {
				verifyTagsHost(dl.Src, uint64(dp), o, dl.Tags)
			}
			mv.ScatterRange(uint64(dp), out, dl.Src, o, dl.Data)
		}
	}
	st := e.Stats()
	st.Rerouted = rep.Rerouted
	st.ExtraHops = rep.ExtraHops
	st.Abandoned = rep.Abandoned
	if cfg.LocalCopies {
		// Pack before sending and unpack after receiving: 2 * PQ/N copies
		// per processor (Section 8.2.1); charged analytically since flows
		// were materialized outside node programs.
		per := float64(d.Layout.LocalSize() * cfg.Machine.ElemBytes)
		st.CopyTime += 2 * cfg.Machine.CopyTime(int(per)) * float64(d.Layout.N())
		st.Time += 2 * cfg.Machine.CopyTime(int(per))
	}
	return &Result{Dist: finishDist(after, loc), Stats: st}, nil
}

// TransposeExchange transposes d into the after layout with the standard
// exchange algorithm (Section 5), scanning the cube dimensions from highest
// to lowest — for square two-dimensional layouts this is exactly the Single
// Path Transpose as a special case of the standard exchange algorithm
// (Section 6.1.1), and for one-dimensional layouts it is the all-to-all
// personalized transpose of Section 5 with the chosen buffering Strategy.
func TransposeExchange(d *matrix.Dist, after field.Layout, opt Options) (*Result, error) {
	return Transpose(plan.Exchange, d, after, opt)
}

// TransposeExchangeSPTOrder uses the SPT dimension order (row dimension
// then paired column dimension, highest pairs first), which for pairwise
// two-dimensional transposes produces the SPT path for every node.
func TransposeExchangeSPTOrder(d *matrix.Dist, after field.Layout, opt Options) (*Result, error) {
	return Transpose(plan.ExchangeSPTOrder, d, after, opt)
}

// TransposeSPT transposes a square two-dimensionally partitioned matrix
// with the Single Path Transpose (Section 6.1.1): one edge-disjoint path
// from every node x to tr(x), packetized for pipelining.
func TransposeSPT(d *matrix.Dist, after field.Layout, opt Options) (*Result, error) {
	return Transpose(plan.SPT, d, after, opt)
}

// TransposeDPT uses the Dual Paths Transpose (Section 6.1.2): two directed
// edge-disjoint paths per node, halving the transfer time.
func TransposeDPT(d *matrix.Dist, after field.Layout, opt Options) (*Result, error) {
	return Transpose(plan.DPT, d, after, opt)
}

// TransposeMPT uses the Multiple Paths Transpose (Section 6.1.3): 2H(x)
// edge-disjoint paths per node with the (2, 2H)-disjoint schedule, which is
// within a factor of two of the lower bound for n-port communication
// (Theorem 2).
func TransposeMPT(d *matrix.Dist, after field.Layout, opt Options) (*Result, error) {
	return Transpose(plan.MPT, d, after, opt)
}

// TransposeParallelPaths splits every node's payload over the n
// node-disjoint paths to its transpose partner (the Saad & Schultz
// parallel-paths property quoted in Section 2). Unlike the MPT path
// system, these paths are disjoint only per pair — different pairs'
// paths collide — so this serves as the ablation showing why the paper
// builds the globally edge-disjoint MPT schedule instead.
func TransposeParallelPaths(d *matrix.Dist, after field.Layout, opt Options) (*Result, error) {
	return Transpose(plan.ParallelPaths, d, after, opt)
}

// TransposeSBnT transposes with one spanning-balanced-n-tree route per
// (source, destination) pair (the SBnT algorithm of Section 5), optimal
// within a factor of two for n-port all-to-all personalized communication.
func TransposeSBnT(d *matrix.Dist, after field.Layout, opt Options) (*Result, error) {
	return Transpose(plan.SBnT, d, after, opt)
}

// TransposeRoutingLogic sends every (source, destination) payload directly
// through the machine's dimension-order routing logic, as in the iPSC
// "routing logic" and Connection Machine measurements (Sections 8.2.1-2).
func TransposeRoutingLogic(d *matrix.Dist, after field.Layout, opt Options) (*Result, error) {
	return Transpose(plan.RoutingLogic, d, after, opt)
}

// TransposeMixedNaive transposes a mixed-encoding matrix by separate code
// conversions followed by the transpose: up to 2n-2 routing steps
// (Section 6.3).
func TransposeMixedNaive(d *matrix.Dist, after field.Layout, opt Options) (*Result, error) {
	return Transpose(plan.MixedNaive, d, after, opt)
}

// TransposeMixedCombined transposes a mixed-encoding matrix with the
// combined conversion-transpose algorithm: n routing steps (Section 6.3).
func TransposeMixedCombined(d *matrix.Dist, after field.Layout, opt Options) (*Result, error) {
	return Transpose(plan.MixedCombined, d, after, opt)
}

// TransposeMixedPseudocode transposes a matrix between the Section 6.3
// encoding combinations by running the published per-node program: rows
// binary / columns Gray (unchanged), pure binary to transposed pure Gray,
// or pure Gray to transposed pure binary.
func TransposeMixedPseudocode(d *matrix.Dist, after field.Layout, opt Options) (*Result, error) {
	return Transpose(plan.MixedPseudocode, d, after, opt)
}
