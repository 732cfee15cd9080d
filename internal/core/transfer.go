package core

import (
	"boolcube/internal/fabric"
	"boolcube/internal/plan"
	"boolcube/internal/router"
)

// Transfer is one checkpointed execution's share of a RunTransfers call: the
// progress record the run completes in place, and the logical spans of its
// move-set still owed.
type Transfer struct {
	// Checkpoint supplies the plan's move-set, the source distribution the
	// payloads are gathered from, the Loc arrays completed flows are
	// scattered into, and the Delivered record a failed run extends.
	*Checkpoint
	// Spans are the owed transfers, addressed by logical node id: the plan's
	// compiled flows on a first run, Checkpoint.ResidualSpans afterwards.
	Spans []plan.Flow
	// Phys, when non-nil, relabels the logical cube onto live hardware: a
	// span travels between Phys(Src) and Phys(Dst) along the dimension-order
	// route of that physical pair (its own Dims are ignored), and a pair
	// whose hosts coincide completes host-side as a zero-hop flow. Payloads
	// are gathered and scattered by logical id either way, so a remapped
	// transfer stays element-exact.
	Phys func(uint64) uint64
}

// RunTransfers is the one flow executor: every path that moves plan payloads
// through the router — a first execution, a link-fault resume, a crash
// recovery, a shared service round — is this loop over a different transfer
// list. In flow order (transfers in list order × spans in span order; the
// order fixes every virtual-time number) it builds one router flow per span,
// fails the set over against the links down reports permanently dead (nil
// skips the pass; a flow without an alternative refuses the run), gathers
// the payloads into one arena (capped slices; the router chunks each region
// in place and ownership passes to the receiving nodes), tags them under
// SIMNET_DEBUG, runs the engine once, and scatters every completed flow —
// all of them on success, the salvaged ones on failure — into its
// transfer's Loc at the span's canonical offset. Only a failed run extends
// Delivered: a completed transfer has no residual left to derive. A span
// keeps its identity through the whole loop by flow index, so tenants
// sharing a processor pair, multi-path flows of one pair and failover
// reorderings need no delivery matching.
//
// The returned Stats are the engine's with the failover report folded in;
// when err is a *router.RouteError the set was refused before the engine ran
// (Stats zero, e still fresh) and its Flow field indexes the flow order
// above.
func RunTransfers(e fabric.Fabric, ts []Transfer, down func(from uint64, dim int) bool) (fabric.Stats, error) {
	type ref struct{ t, s int }
	n := e.Dims()
	nspans := 0
	for _, t := range ts {
		nspans += len(t.Spans)
	}
	flows := make([]router.Flow, 0, nspans)
	refs := make([]ref, 0, nspans)
	for ti, t := range ts {
		for si, sp := range t.Spans {
			f := router.Flow{Src: sp.Src, Dst: sp.Dst, Dims: sp.Dims, Packets: sp.Packets}
			if t.Phys != nil {
				f.Src, f.Dst = t.Phys(sp.Src), t.Phys(sp.Dst)
				f.Dims = router.Ecube(f.Src, f.Dst, n)
			}
			flows = append(flows, f)
			refs = append(refs, ref{ti, si})
		}
	}
	var rep router.FailoverReport
	if down != nil {
		// Failover never mutates a route slice it was handed — a rerouted
		// flow gets a fresh one — so routes shared with a cached plan stay
		// intact. It drops no flow, so refs still index the returned set.
		var err error
		if flows, _, rep, err = router.Failover(flows, n, down, false); err != nil {
			return fabric.Stats{}, err
		}
	}

	total := 0
	for _, r := range refs {
		total += ts[r.t].Spans[r.s].Len
	}
	arena := make([]float64, total)
	debug := e.DebugChecks()
	for i, r := range refs {
		t := &ts[r.t]
		sp := &t.Spans[r.s]
		buf := arena[:sp.Len:sp.Len]
		arena = arena[sp.Len:]
		t.Plan.Moves().GatherRangeInto(sp.Src, t.Src.Local[sp.Src], sp.Dst, sp.Off, sp.Len, buf)
		flows[i].Data = buf
		if debug {
			flows[i].Tags = addrTags(sp.Src, sp.Off, sp.Len)
		}
	}

	done, err := router.RunFlows(e, flows)
	for k, fi := range done.FlowIdx {
		t := &ts[refs[fi].t]
		sp := &t.Spans[refs[fi].s]
		if tags := done.Tags[k]; tags != nil {
			verifyTagsHost(sp.Src, sp.Dst, sp.Off, tags)
		}
		t.Plan.Moves().ScatterRange(sp.Dst, t.Loc[sp.Dst], sp.Src, sp.Off, done.Data[k])
		if err != nil {
			t.Delivered.Add(sp.Src, sp.Dst, sp.Off, sp.Len)
		}
	}
	st := e.Stats()
	st.Rerouted, st.ExtraHops = rep.Rerouted, rep.ExtraHops
	return st, err
}
