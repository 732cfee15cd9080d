package router

import (
	"errors"
	"fmt"

	"boolcube/internal/cube"
	"boolcube/internal/fabric"
)

// ErrNoRoute is wrapped by RouteError when every disjoint-path alternative
// for a blocked flow is itself blocked or already in use.
var ErrNoRoute = errors.New("no fault-free route")

// RouteError is the typed, deterministic error Failover returns when a flow
// crosses a permanently-down link and every disjoint-path alternative for
// its pair is blocked or already carries another of its flows. It unwraps
// to ErrNoRoute and to fabric.ErrLinkDown — the sentinel the run would have
// surfaced on the dead link — so callers classifying fault outcomes see the
// same sentinel whether the run was refused or failed mid-flight.
type RouteError struct {
	Flow     int    // index into the flow set
	Src, Dst uint64 // flow endpoints
	Err      error
}

func (e *RouteError) Error() string {
	return fmt.Sprintf("router: flow %d (%d -> %d): %v", e.Flow, e.Src, e.Dst, e.Err)
}

func (e *RouteError) Unwrap() []error { return []error{e.Err, fabric.ErrLinkDown} }

// FailoverReport quantifies the degradation a reroute pass accepted.
type FailoverReport struct {
	Rerouted  int64 // flows moved to an alternative disjoint path
	ExtraHops int64 // total additional hops across rerouted flows
	Abandoned int64 // flows dropped (abandon mode only)
}

// Failover inspects a flow set against the permanently-down links reported
// by down and reroutes each blocked flow onto the first unused
// cube.DisjointPaths alternative that avoids every failed link. Flows are
// never mutated: a rerouted flow gets a fresh Dims slice, so route slices
// shared with a cached plan stay intact.
//
// Alternatives already carrying another flow of the same (Src, Dst) pair —
// including the surviving original routes of a multi-path transfer — are
// skipped, preserving the edge-disjointness the MPT schedule relies on.
// Candidate paths are tried in the deterministic DisjointPaths order
// (length-H routes before length-H+2 detours), so the reroute itself is
// reproducible.
//
// When a blocked flow has no usable alternative: with abandon=false the
// pass fails with a *RouteError; with abandon=true the flow is dropped from
// the returned set and counted in the report. keptIdx maps each returned
// flow back to its index in the input set.
func Failover(flows []Flow, n int, down func(from uint64, dim int) bool, abandon bool) (kept []Flow, keptIdx []int, rep FailoverReport, err error) {
	c := cube.New(n)

	blocked := func(src uint64, dims []int) bool {
		x := src
		for _, d := range dims {
			if down(x, d) {
				return true
			}
			x ^= 1 << uint(d)
		}
		return false
	}

	type pair struct{ src, dst uint64 }
	// used[p] holds the route signatures already claimed by pair p: every
	// unblocked original route, plus reroutes as they are assigned.
	used := make(map[pair]map[string]bool)
	claim := func(p pair, dims []int) {
		if used[p] == nil {
			used[p] = make(map[string]bool)
		}
		used[p][routeKey(dims)] = true
	}
	for _, f := range flows {
		if len(f.Dims) > 0 && !blocked(f.Src, f.Dims) {
			claim(pair{f.Src, f.Dst}, f.Dims)
		}
	}

	kept = make([]Flow, 0, len(flows))
	keptIdx = make([]int, 0, len(flows))
	for i, f := range flows {
		if len(f.Dims) == 0 || !blocked(f.Src, f.Dims) {
			kept = append(kept, f)
			keptIdx = append(keptIdx, i)
			continue
		}
		p := pair{f.Src, f.Dst}
		var alt []int
		if f.Src != f.Dst {
			for _, cand := range cube.DisjointPaths(c, f.Src, f.Dst) {
				if used[p][routeKey(cand)] || blocked(f.Src, cand) {
					continue
				}
				alt = cand
				break
			}
		}
		if alt == nil {
			if abandon {
				rep.Abandoned++
				continue
			}
			return nil, nil, FailoverReport{}, &RouteError{Flow: i, Src: f.Src, Dst: f.Dst, Err: ErrNoRoute}
		}
		claim(p, alt)
		rep.Rerouted++
		rep.ExtraHops += int64(len(alt) - len(f.Dims))
		nf := f
		nf.Dims = append([]int(nil), alt...)
		kept = append(kept, nf)
		keptIdx = append(keptIdx, i)
	}
	return kept, keptIdx, rep, nil
}

// routeKey renders a route as a comparable signature.
func routeKey(dims []int) string {
	b := make([]byte, 0, 2*len(dims))
	for _, d := range dims {
		b = append(b, byte(d), '.')
	}
	return string(b)
}
