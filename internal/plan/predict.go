package plan

import (
	"fmt"
	"math"

	"boolcube/internal/cost"
	"boolcube/internal/field"
	"boolcube/internal/machine"
)

// This file is the cost-model consumer of the IR: every registry row maps
// to one of the paper's closed-form estimates, parameterized by the plan's
// layouts and machine. PredictedCost prices a compiled plan; Choose uses
// the same table to resolve the Auto algorithm before compilation.

// PredictedCost returns the paper's closed-form time estimate (µs) for
// replaying this plan — the same formulas internal/cost exposes, fed with
// the plan's own M, n, packetization and port model, so prediction and
// execution can be cross-checked against one another.
func (p *Plan) PredictedCost() float64 {
	return specs[p.alg].predict(p)
}

// predictFor prices an algorithm for a configuration without compiling it.
func predictFor(alg Algorithm, before, after field.Layout, cfg Config) float64 {
	n := before.NBits()
	if a := after.NBits(); a > n {
		n = a
	}
	p := &Plan{alg: alg, before: before, after: after, cfg: cfg, n: n}
	if f := specs[alg].predict; f != nil {
		return f(p)
	}
	return math.Inf(1)
}

// totalBytes returns M, the total matrix volume in bytes — the cost
// package's convention.
func (p *Plan) totalBytes() float64 {
	return math.Exp2(float64(p.before.P+p.before.Q)) * float64(p.cfg.Machine.ElemBytes)
}

// pathPacketBytes returns the effective packet size B for a pairwise
// path algorithm splitting each M/N-byte pair payload over k paths: the
// caller's explicit packet count wins, otherwise the machine's B_m grain,
// otherwise one packet carrying the whole chunk.
func (p *Plan) pathPacketBytes(k int) float64 {
	payload := p.totalBytes() / (float64(k) * math.Exp2(float64(p.n)))
	if payload < 1 {
		payload = 1
	}
	if p.cfg.Packets > 0 {
		return math.Max(1, payload/float64(p.cfg.Packets))
	}
	if bm := float64(p.cfg.Machine.Bm); bm > 0 && bm < payload {
		return bm
	}
	return payload
}

func (p *Plan) onePort() bool { return p.cfg.Machine.Ports == machine.OnePort }

func predictExchange(p *Plan) float64 {
	return cost.AllToAllExchange(p.totalBytes(), p.n, p.cfg.Machine)
}

func predictSBnT(p *Plan) float64 {
	// The SBnT bound assumes all n ports run concurrently; on a one-port
	// machine its n tree sends serialize into the exchange-shaped time.
	if p.onePort() {
		return cost.AllToAllExchange(p.totalBytes(), p.n, p.cfg.Machine)
	}
	return cost.AllToAllSBnT(p.totalBytes(), p.n, p.cfg.Machine)
}

func predictSPT(p *Plan) float64 {
	return cost.SPT(p.totalBytes(), p.n, p.pathPacketBytes(1), p.cfg.Machine)
}

func predictDPT(p *Plan) float64 {
	if p.onePort() {
		return predictSPT(p) // the two directed paths serialize
	}
	return cost.DPT(p.totalBytes(), p.n, p.pathPacketBytes(2), p.cfg.Machine)
}

func predictMPT(p *Plan) float64 {
	if p.onePort() {
		return predictSPT(p) // the 2H(x) paths serialize
	}
	t, _ := cost.MPT(p.totalBytes(), p.n, p.cfg.Machine)
	return t
}

func predictParallelPaths(p *Plan) float64 {
	if p.onePort() {
		return predictSPT(p)
	}
	return cost.PipelinedPaths(p.totalBytes(), p.n, p.n, p.n, p.pathPacketBytes(p.n), p.cfg.Machine)
}

func predictMixedNaive(p *Plan) float64 {
	// Worst-case route length: n-2 conversion steps plus the n-step
	// transpose (Section 6.3).
	hops := 2*p.n - 2
	if hops < 1 {
		hops = 1
	}
	return cost.PipelinedPaths(p.totalBytes(), p.n, hops, 1, p.pathPacketBytes(1), p.cfg.Machine)
}

func predictMixedCombined(p *Plan) float64 {
	return cost.PipelinedPaths(p.totalBytes(), p.n, p.n, 1, p.pathPacketBytes(1), p.cfg.Machine)
}

// predictConvert prices the compiled phases of a Section 6.2 conversion:
// every exchange step moves half the local array, exactly the per-step term
// of the standard exchange, and every charged rearrangement copies all of
// it. Algorithm 1's 2n steps against n is the paper's comparison.
func predictConvert(p *Plan) float64 {
	steps, copies := 0, 0
	for _, ph := range p.phases {
		steps += len(ph.Dims)
		if ph.CopyBefore {
			copies++
		}
		if ph.CopyAfter {
			copies++
		}
	}
	mach := p.cfg.Machine
	perStep := cost.AllToAllExchange(p.totalBytes(), p.n, mach) / float64(p.n)
	return float64(steps)*perStep + float64(copies)*mach.CopyTime(p.before.LocalSize()*mach.ElemBytes)
}

func predictConvertEncoding(p *Plan) float64 {
	// The two codes share their most significant bit: at most n-1 hops.
	return cost.PipelinedPaths(p.totalBytes(), p.n, max(p.n-1, 1), 1, p.pathPacketBytes(1), p.cfg.Machine)
}

// Choose resolves the Auto algorithm: it classifies the communication
// pattern of the layout pair (field.Classify) and picks the candidate with
// the lowest closed-form predicted time on the configured machine. The
// candidate set is the paper's general-purpose algorithms — Exchange and
// SBnT always apply; the path-system transposes (SPT, DPT, MPT) join when
// the pair is pairwise. Ties resolve to the earliest candidate, so the
// choice is deterministic.
func Choose(before, after field.Layout, cfg Config) (Algorithm, error) {
	if err := before.Validate(); err != nil {
		return 0, fmt.Errorf("plan: invalid before layout: %w", err)
	}
	if err := after.Validate(); err != nil {
		return 0, fmt.Errorf("plan: invalid after layout: %w", err)
	}
	cands := []Algorithm{Exchange, SBnT}
	if field.Classify(before, after).Pattern == field.Pairwise {
		cands = append(cands, SPT, DPT, MPT)
	}
	best, bestT := cands[0], math.Inf(1)
	for _, a := range cands {
		if t := predictFor(a, before, after, cfg); t < bestT {
			best, bestT = a, t
		}
	}
	return best, nil
}
