// Package trace records the per-node operation timelines of a simulated
// run and renders them as text Gantt charts — the paper's timing diagrams
// (pipelined packet schedules, exchange steps) become directly visible.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"boolcube/internal/fabric"
)

// Recorder collects trace events; it implements fabric.Tracer.
type Recorder struct {
	Events []fabric.TraceEvent
	// Label identifies what produced the events — the executor sets it to
	// the compiled plan's description, so rendered timelines say which
	// algorithm/layout/machine they show.
	Label string
	// Faults lists the injected faults of the run (one line per fault, from
	// fault.Plan.Describe), so a rendered timeline says which links were
	// down or flaky while it was recorded.
	Faults []string
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{} }

// Record implements fabric.Tracer.
func (r *Recorder) Record(ev fabric.TraceEvent) {
	r.Events = append(r.Events, ev)
}

// SetLabel records the producer's description; the executor calls it with
// the compiled plan's Describe() string.
func (r *Recorder) SetLabel(label string) { r.Label = label }

// SetFaults records the run's injected fault list; the executor calls it
// with the fault plan's Describe() lines when injection is armed.
func (r *Recorder) SetFaults(faults []string) {
	r.Faults = append([]string(nil), faults...)
}

// Span returns the [min start, max end] of all events.
func (r *Recorder) Span() (float64, float64) {
	if len(r.Events) == 0 {
		return 0, 0
	}
	lo, hi := r.Events[0].Start, r.Events[0].End
	for _, ev := range r.Events {
		if ev.Start < lo {
			lo = ev.Start
		}
		if ev.End > hi {
			hi = ev.End
		}
	}
	return lo, hi
}

// PerNode returns the events grouped by node, each group sorted by start
// time (ties by end).
func (r *Recorder) PerNode() map[uint64][]fabric.TraceEvent {
	out := make(map[uint64][]fabric.TraceEvent)
	for _, ev := range r.Events {
		out[ev.Node] = append(out[ev.Node], ev)
	}
	for _, evs := range out {
		sort.SliceStable(evs, func(i, j int) bool {
			if evs[i].Start != evs[j].Start {
				return evs[i].Start < evs[j].Start
			}
			return evs[i].End < evs[j].End
		})
	}
	return out
}

// Busy returns per-node total busy time split by kind.
func (r *Recorder) Busy() map[uint64]map[string]float64 {
	out := make(map[uint64]map[string]float64)
	for _, ev := range r.Events {
		m := out[ev.Node]
		if m == nil {
			m = make(map[string]float64)
			out[ev.Node] = m
		}
		m[ev.Kind] += ev.End - ev.Start
	}
	return out
}

var kindGlyph = map[string]byte{
	"send":    'S',
	"recv":    'R',
	"copy":    'C',
	"compute": 'X',
	"drop":    'D',
}

// Gantt renders an ASCII timeline, one row per node, width columns across
// the run's span. Overlapping operations (n-port sends) are merged with
// '*'. Node rows are sorted by id.
func (r *Recorder) Gantt(width int) string {
	if width < 10 {
		width = 10
	}
	lo, hi := r.Span()
	if hi <= lo {
		return "(no events)\n"
	}
	perNode := r.PerNode()
	ids := make([]uint64, 0, len(perNode))
	for id := range perNode {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	scale := float64(width) / (hi - lo)
	var sb strings.Builder
	if r.Label != "" {
		fmt.Fprintf(&sb, "%s\n", r.Label)
	}
	for _, f := range r.Faults {
		fmt.Fprintf(&sb, "fault: %s\n", f)
	}
	fmt.Fprintf(&sb, "time span %.1f .. %.1f µs, %.2f µs/column\n", lo, hi, (hi-lo)/float64(width))
	for _, id := range ids {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, ev := range perNode[id] {
			a := int((ev.Start - lo) * scale)
			b := int((ev.End - lo) * scale)
			if b <= a {
				b = a + 1
			}
			if b > width {
				b = width
			}
			g := kindGlyph[ev.Kind]
			if g == 0 {
				g = '?'
			}
			for i := a; i < b; i++ {
				if row[i] == '.' {
					row[i] = g
				} else if row[i] != g {
					row[i] = '*'
				}
			}
		}
		fmt.Fprintf(&sb, "node %4d |%s|\n", id, row)
	}
	sb.WriteString("legend: S send, R recv, C copy, X compute, D dropped frame, * overlap\n")
	return sb.String()
}

// Summary renders per-node busy-time totals.
func (r *Recorder) Summary() string {
	busy := r.Busy()
	ids := make([]uint64, 0, len(busy))
	for id := range busy {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var sb strings.Builder
	sb.WriteString("node    send(µs)    recv(µs)    copy(µs)    compute(µs)\n")
	for _, id := range ids {
		m := busy[id]
		fmt.Fprintf(&sb, "%4d  %10.1f  %10.1f  %10.1f  %10.1f\n",
			id, m["send"], m["recv"], m["copy"], m["compute"])
	}
	return sb.String()
}
