// Package plan compiles a transposition — (before Layout, after Layout,
// Algorithm, machine/strategy configuration) — into an immutable
// intermediate representation that is then consumed three ways: replayed
// against distributed data by internal/core, priced by walking its compiled
// traffic (Price, which Auto ranks its candidates by), and rendered as a
// trace label.
//
// Compilation does all the O(P·Q) element-address enumeration, route
// construction and packetization once, and the first execution of an
// exchange plan lowers its phases to per-node message schedules once
// (Schedules); execution then only gathers, routes or copies spans, and
// scatters. A Plan is sealed when Compile returns: nothing mutates it
// afterwards but its two memos, each built once under a sync.Once
// (DirectFlows, Schedules), so one Plan may be replayed concurrently and
// may be shared through the Cache, satisfying the simnet concurrency
// contract (node programs only read it).
package plan

import (
	"fmt"
	"sync"

	"boolcube/internal/comm"
	"boolcube/internal/fabric"
	"boolcube/internal/field"
	"boolcube/internal/machine"
)

// Config is the part of a transpose configuration that shapes the plan.
type Config struct {
	Machine  machine.Params
	Strategy comm.Strategy // exchange-based algorithms (Section 8.1)
	Packets  int           // packet count for path-based algorithms (0 = machine default)
	// LocalCopies charges the local rearrangement cost (pack/unpack of the
	// two-dimensional local arrays, Section 8.2.1) at the start and end.
	LocalCopies bool
}

// Kind selects which executor replays a plan.
type Kind int

const (
	// KindExchange runs the dimension-scan exchange node program once per
	// Phase, each phase's output array being the next one's input.
	KindExchange Kind = iota
	// KindFlow injects the precomputed source-routed Flows.
	KindFlow
)

func (k Kind) String() string {
	switch k {
	case KindExchange:
		return "exchange"
	case KindFlow:
		return "flows"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Flow is one precompiled source-routed flow: the (Off, Len) range of the
// canonical Src→Dst payload, the dimension path it follows, and its packet
// count. The payload itself is gathered at execute time from fresh data.
type Flow struct {
	Src, Dst uint64
	Dims     []int // read-only; shared across executions
	Off, Len int
	Packets  int
}

// Phase is one dimension-scan exchange of a KindExchange plan: the move-set
// it realizes, the cube dimensions it scans (in order), and whether a full
// local-array rearrangement is charged before and after it. Every (source,
// destination) pair of Moves differs only on Dims — compilation enforces it,
// since the exchange routes a block by its destination's bits on Dims alone —
// so a phase with no dimensions is a purely local relabeling.
type Phase struct {
	Moves                 *Moves
	Dims                  []int // read-only; shared across executions
	CopyBefore, CopyAfter bool
}

// Plan is the compiled, immutable transpose IR. All fields are unexported;
// consumers read it through the accessor methods and must not retain
// mutable references into the returned slices.
type Plan struct {
	alg           Algorithm
	before, after field.Layout
	cfg           Config
	n             int // engine cube dimension
	kind          Kind
	moves         *Moves

	phases []Phase // KindExchange: exchanges, in execution order
	flows  []Flow  // KindFlow: precompiled flows

	// direct memoizes DirectFlows and lower Schedules, the fields built
	// lazily rather than at compilation; they also make a Plan uncopyable
	// (go vet copylocks).
	direct     sync.Once
	directSpan []Flow
	lower      sync.Once
	schedules  []*comm.Schedule
}

// Algorithm returns the (resolved, never Auto) algorithm the plan encodes.
func (p *Plan) Algorithm() Algorithm { return p.alg }

// Before returns the source layout.
func (p *Plan) Before() field.Layout { return p.before }

// After returns the destination layout.
func (p *Plan) After() field.Layout { return p.after }

// Config returns the configuration the plan was compiled for.
func (p *Plan) Config() Config { return p.cfg }

// NDims returns the cube dimension the executing engine needs.
func (p *Plan) NDims() int { return p.n }

// Kind returns which executor replays the plan.
func (p *Plan) Kind() Kind { return p.kind }

// Moves returns the element move-set from Before to After — for a
// multi-phase plan the composition of its phases, which is what checkpoints,
// residuals and the service address.
func (p *Plan) Moves() *Moves { return p.moves }

// Phases returns the exchanges of a KindExchange plan in execution order
// (one for the plain transposes, three for the Section 6.2 conversions, one
// per parallel swapping for Permute). Read-only.
func (p *Plan) Phases() []Phase { return p.phases }

// Flows returns the precompiled flows (KindFlow). Read-only.
func (p *Plan) Flows() []Flow { return p.flows }

// DirectFlows returns the whole move-set as direct spans: one flow per
// network (src != dst) pair carrying its full payload, dimension-order
// routed at the plan's packet grain, in Remaining's order — what a fresh
// checkpoint's residual spans are. It depends only on the plan, so it is
// built on first use and shared by every later call; safe for concurrent
// use. Read-only.
func (p *Plan) DirectFlows() []Flow {
	p.direct.Do(func() { p.directSpan = DirectSpans(p.Remaining(nil), p.n, p.cfg.Packets) })
	return p.directSpan
}

// Schedules returns a KindExchange plan's phases lowered to per-node
// message schedules (comm.Lower), in phase order: node id of phase k starts
// with one block per destination of k's move-set, in Destinations order.
// They depend only on the plan, so they are built on first use — an Auto
// candidate that is priced but never run never pays for them — and shared
// by every later execution; safe for concurrent use. Read-only.
func (p *Plan) Schedules() []*comm.Schedule {
	p.lower.Do(func() {
		var parts []fabric.Part
		for k, ph := range p.phases {
			mv := ph.Moves
			s, err := comm.Lower(p.n, ph.Dims, p.cfg.Strategy, p.cfg.Machine, func(id uint64) []fabric.Part {
				parts = parts[:0]
				if id < uint64(mv.before.N()) {
					for _, dst := range mv.Destinations(id) {
						parts = append(parts, fabric.Part{Src: id, Dst: dst, N: mv.PayloadLen(id, dst)})
					}
				}
				return parts
			})
			if err != nil {
				// Compile checked every phase's move-set against its
				// dimensions, so the exchange delivers every block.
				panic(fmt.Sprintf("plan: lowering phase %d of %s: %v", k, p.Describe(), err))
			}
			p.schedules = append(p.schedules, s)
		}
	})
	return p.schedules
}

// Describe renders a one-line human-readable summary, used as the trace
// label and by cmd/transpose.
func (p *Plan) Describe() string {
	detail := ""
	switch p.kind {
	case KindExchange:
		steps := 0
		for _, ph := range p.phases {
			steps += len(ph.Dims)
		}
		detail = fmt.Sprintf("%d exchange steps", steps)
	case KindFlow:
		detail = fmt.Sprintf("%d flows", len(p.flows))
	}
	return fmt.Sprintf("%s: %s -> %s on %s (n=%d, %s)",
		p.alg, p.before.Name, p.after.Name, p.cfg.Machine.Name, p.n, detail)
}
