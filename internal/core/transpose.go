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
// against distributed data (Execute) and keeps Transpose as the
// compile-then-execute convenience over the process-wide plan cache.
//
// Flow-kind plans have one executor, RunTransfers: gather → failover → one
// engine run → scatter by flow index → fold the failover report, over a list
// of checkpointed transfers. A first execution (execFlow), a Recover (after
// a link fault, a deadline or a crash) and a shared service round are that
// kernel over different transfer lists, so every mid-run failure leaves a
// Checkpoint the same kernel can finish.
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
	// run; Retry then bounds the per-transmission retries (see ExecOptions).
	Faults *fault.Plan
	Retry  fabric.RetryPolicy
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
	return ExecOptions{Tracer: o.Tracer, Faults: o.Faults, Retry: o.Retry, Deadline: o.Deadline, Backend: o.Backend}
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

// Transpose is compile-then-execute through the process-wide plan cache
// (plan.Default): the first call for a (layouts, algorithm, machine) shape
// pays the O(P·Q) planning cost, every later one is a cache hit plus
// ExecuteWith.
func Transpose(alg plan.Algorithm, d *matrix.Dist, after field.Layout, opt Options) (*Result, error) {
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
// injection with its failover, and retry policy. The plan stays read-only —
// fault failover never mutates a plan's routes; rerouted flows get fresh ones.
func ExecuteWith(p *plan.Plan, d *matrix.Dist, xo ExecOptions) (*Result, error) {
	if got, want := d.Layout.String(), p.Before().String(); got != want {
		return nil, fmt.Errorf("core: distribution layout %s does not match plan layout %s", got, want)
	}
	// Checked here as well as in newEngine: the feasibility analysis below
	// must not read a schedule compiled for another cube.
	if err := xo.checkFaults(p.NDims()); err != nil {
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
	}
	return nil, fmt.Errorf("core: unknown plan kind %v", p.Kind())
}

// newEngine is the one way core builds an engine: the plan's cube under its
// machine on the backend xo selects, armed with everything a run's options
// carry — the tracer (labeled with the plan's description, when it takes
// labels, and told the injected fault list), fault injection with its retry
// policy, and the deadline — so no execution path can drop an option.
func newEngine(p *plan.Plan, xo ExecOptions) (fabric.Fabric, error) {
	if err := xo.checkFaults(p.NDims()); err != nil {
		return nil, err
	}
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

// execExchange replays a KindExchange plan: inside one node program, phase
// after phase, every node gathers its per-destination blocks from the
// phase's input array into one pooled buffer, plays its part of the phase's
// lowered schedule (plan.Plan.Schedules: the Strategy's messages as span copies,
// fixed once per plan) and scatters each block into the phase's output
// array — the next phase's input, or the destination array for the last
// one — the moment it arrives. Early scattering is what makes a one-phase
// execution checkpointable: when the run fails mid-flight, everything
// already scattered is durable, the per-node delivery records turn into a
// plan.Delivered span-set, and the typed *ExecError hands the Checkpoint to
// Recover. A block of a multi-phase plan's last phase is not a span of the
// composed move-set the checkpoint addresses, so such a plan fails with the
// coarse checkpoint (self pairs placed, nothing else delivered).
func execExchange(p *plan.Plan, d *matrix.Dist, xo ExecOptions) (*Result, error) {
	e, err := newEngine(p, xo)
	if err != nil {
		return nil, err
	}
	cfg := p.Config()
	phases, scheds := p.Phases(), p.Schedules()
	last := len(phases) - 1
	fine := last == 0 // only a one-phase plan's deliveries are spans of p.Moves()
	after := p.After()
	loc := newLocal(after, e.Nodes())
	debug := e.DebugChecks()

	// Per-node delivery records (fine tracking only): each cell is written only
	// by its owning node's program (partitioned state under the simnet
	// concurrency contract) and read host-side only after the run has fully
	// unwound.
	type exchProgress struct {
		srcs     []uint64
		selfDone bool
	}
	prog := make([]exchProgress, e.Nodes())

	err = e.Run(func(nd fabric.Node) {
		id := nd.ID()
		local := srcLocal(d, id)
		for k, ph := range phases {
			mv := ph.Moves
			out := loc[id]
			if k < last {
				out = nil
				if id < uint64(mv.After().N()) {
					out = make([]float64, mv.After().LocalSize())
				}
			}
			if ph.CopyBefore && len(local) > 0 {
				nd.Copy(len(local) * cfg.Machine.ElemBytes)
			}
			if local != nil && out != nil {
				// The self payload never crosses a link: place it up front so
				// it is durable from the phase's first instant.
				mv.Scatter(id, out, id, mv.Gather(id, local, id))
				prog[id].selfDone = fine
			}
			var in fabric.Msg
			if local != nil {
				// Gather every destination's payload into one pooled buffer —
				// a node sends at most its whole local array — with one
				// checksummed part per destination. The schedule recycles it
				// once no send reads it.
				dests := mv.Destinations(id)
				in = fabric.Msg{Parts: nd.AllocParts(len(dests)), Data: nd.AllocData(len(local))}
				if debug {
					in.Tags = make([]uint64, len(local))
				}
				off := 0
				for i, dp := range dests {
					n := mv.PayloadLen(id, dp)
					buf := in.Data[off : off+n : off+n]
					mv.GatherInto(id, local, dp, buf)
					in.Parts[i] = fabric.Part{Src: id, Dst: dp, N: n, Sum: fabric.Checksum(buf)}
					if debug {
						for t := range n {
							in.Tags[off+t] = id<<32 | uint64(t)
						}
					}
					off += n
				}
			}
			if fine && out != nil {
				prog[id].srcs = make([]uint64, 0, mv.NumSources(id))
			}
			scheds[k].Run(nd, in, func(_ int, pt fabric.Part, data []float64, tags []uint64) {
				if out == nil {
					return
				}
				if tags != nil {
					verifyTags(nd, pt.Src, pt.Dst, 0, tags)
				}
				mv.Scatter(id, out, pt.Src, data)
				if fine {
					prog[id].srcs = append(prog[id].srcs, pt.Src)
				}
			})
			if out != nil && ph.CopyAfter {
				nd.Copy(len(out) * cfg.Machine.ElemBytes)
			}
			local = out
		}
	})
	if err != nil {
		var cp *Checkpoint
		if fine {
			cp = &Checkpoint{Plan: p, Src: d, Loc: loc, Delivered: plan.NewDelivered()}
			mv := p.Moves()
			for i := range prog {
				id := uint64(i)
				if prog[i].selfDone {
					cp.Delivered.Add(id, id, 0, mv.PayloadLen(id, id))
				}
				for _, src := range prog[i].srcs {
					cp.Delivered.Add(src, id, 0, mv.PayloadLen(src, id))
				}
			}
		} else {
			cp = NewCheckpoint(p, d)
		}
		cp.Stats, cp.Opts = e.Stats(), xo
		cp.At = cp.Stats.Time
		return nil, &ExecError{Checkpoint: cp, Err: err}
	}
	return &Result{Dist: finishDist(after, loc), Stats: e.Stats()}, nil
}

// execFlow replays a KindFlow plan: the plan's compiled flows are the spans
// of one fresh transfer, run through RunTransfers. Under fault injection,
// blocked flows are first rerouted around the permanently-down links; the
// plan's own route slices are never touched. Every failure — a refused
// reroute included — carries the checkpoint, whose self pairs are durable
// even when nothing else moved.
func execFlow(p *plan.Plan, d *matrix.Dist, xo ExecOptions) (*Result, error) {
	e, err := newEngine(p, xo)
	if err != nil {
		return nil, err
	}
	cp := NewCheckpoint(p, d)
	cp.Opts = xo
	st, err := RunTransfers(e, []Transfer{{Checkpoint: cp, Spans: p.Flows()}}, xo.failoverDown())
	if err != nil {
		cp.Stats, cp.At = st, st.Time
		return nil, &ExecError{Checkpoint: cp, Err: err}
	}
	if cfg := p.Config(); cfg.LocalCopies {
		// Pack before sending and unpack after receiving: 2 * PQ/N copies
		// per processor (Section 8.2.1); charged analytically since flows
		// were materialized outside node programs.
		per := float64(d.Layout.LocalSize() * cfg.Machine.ElemBytes)
		st.CopyTime += 2 * cfg.Machine.CopyTime(int(per)) * float64(d.Layout.N())
		st.Time += 2 * cfg.Machine.CopyTime(int(per))
	}
	return &Result{Dist: finishDist(p.After(), cp.Loc), Stats: st}, nil
}
