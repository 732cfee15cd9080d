// Package fault is the deterministic fault-injection layer for the simnet
// engine: a declarative Spec (seed + rules) compiles into an immutable Plan
// — a reproducible schedule of link-down windows, flaky-link drop
// probabilities and node failures on one cube. The simnet engine consults
// the Plan at every transmission (it implements fabric.FaultModel), and the
// flow executor consults it before injection to fail blocked routes over to
// unused disjoint-path alternatives.
//
// Determinism is the whole point: the same (Spec, n) always compiles to the
// same Plan, random link selection draws from rand.New(rand.NewSource(seed)),
// and per-transmission drop decisions are a pure hash of
// (seed, link, attempt) — so a faulted simulation is exactly as reproducible
// as a fault-free one, and every failure a test observes can be replayed.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Kind selects what a Rule injects.
type Kind int

const (
	// LinkDown takes one directed link down during the rule's window.
	LinkDown Kind = iota
	// LinkFlaky makes one directed link drop each transmission attempt
	// with probability Prob (decided deterministically from the seed).
	LinkFlaky
	// NodeDown is a fail-stop node: every directed link into or out of
	// Node is down during the window, so the node can neither originate,
	// receive, nor forward traffic.
	NodeDown
	// RandomLinks takes Count distinct directed links down during the
	// window, chosen reproducibly from the Spec seed.
	RandomLinks
	// Crash is a crash-stop node kill at Start: from that instant the node
	// neither executes program steps nor acknowledges receptions, forever
	// (End is ignored — crashed nodes do not come back). Unlike NodeDown,
	// which only severs the node's links while its program keeps running,
	// Crash kills the processor itself; every backend detects it and
	// surfaces a typed *fabric.NodeDownError.
	Crash
	// RandomCrashes crash-stops Count distinct nodes at Start, chosen
	// reproducibly from the Spec seed.
	RandomCrashes
)

func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkFlaky:
		return "link-flaky"
	case NodeDown:
		return "node-down"
	case RandomLinks:
		return "random-links"
	case Crash:
		return "crash"
	case RandomCrashes:
		return "random-crashes"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Link identifies a directed cube link: the transmission from node From
// across dimension Dim (toward From XOR 2^Dim).
type Link struct {
	From uint64
	Dim  int
}

// To returns the link's destination node.
func (l Link) To() uint64 { return l.From ^ 1<<uint(l.Dim) }

func (l Link) String() string {
	return fmt.Sprintf("%d-(dim %d)->%d", l.From, l.Dim, l.To())
}

// Rule is one declarative fault. Start and End bound the active window in
// simulated µs; End <= Start means the fault persists forever once Start is
// reached (the common "link has failed" case is Start = 0, End = 0).
type Rule struct {
	Kind  Kind
	Link  Link    // LinkDown, LinkFlaky
	Node  uint64  // NodeDown, Crash
	Count int     // RandomLinks, RandomCrashes: number of distinct targets
	Prob  float64 // LinkFlaky: per-attempt drop probability in [0, 1]
	Start float64
	End   float64 // ignored by Crash/RandomCrashes (crashes are permanent)
}

// Spec is a fault scenario: a seed plus rules. The zero Spec injects
// nothing. Specs are pure data; Compile turns one into a queryable Plan.
type Spec struct {
	Seed  int64
	Rules []Rule
}

// SingleLinkDown is the simplest scenario: one directed link down from
// time zero, forever.
func SingleLinkDown(from uint64, dim int) Spec {
	return Spec{Rules: []Rule{{Kind: LinkDown, Link: Link{From: from, Dim: dim}}}}
}

// RandomLinkFailures is the sweep scenario: k distinct directed links down
// from time zero, chosen by seed.
func RandomLinkFailures(seed int64, k int) Spec {
	return Spec{Seed: seed, Rules: []Rule{{Kind: RandomLinks, Count: k}}}
}

// FlakyLink makes one directed link drop transmissions with probability
// prob, from time zero, forever.
func FlakyLink(from uint64, dim int, prob float64) Spec {
	return Spec{Rules: []Rule{{Kind: LinkFlaky, Link: Link{From: from, Dim: dim}, Prob: prob}}}
}

// NodeCrash crash-stops one node at time t.
func NodeCrash(node uint64, t float64) Spec {
	return Spec{Rules: []Rule{{Kind: Crash, Node: node, Start: t}}}
}

// RandomNodeCrashes crash-stops k distinct nodes at time t, chosen by seed.
func RandomNodeCrashes(seed int64, k int, t float64) Spec {
	return Spec{Seed: seed, Rules: []Rule{{Kind: RandomCrashes, Count: k, Start: t}}}
}

// window is a half-open down interval [start, end); end = +Inf when the
// fault never recovers.
type window struct{ start, end float64 }

// Plan is a compiled, immutable fault schedule for one n-cube. It is safe
// for concurrent readers and implements fabric.FaultModel.
type Plan struct {
	n     int
	seed  int64
	downs map[Link][]window  // per-link down windows, sorted by start
	flaky map[Link]float64   // per-link drop probability
	crash map[uint64]float64 // per-node crash-stop time (earliest rule wins)
	desc  []string           // deterministic human-readable fault list
}

// Compile validates the spec against an n-cube and expands it into a Plan:
// NodeDown becomes the 2n directed links incident to the node, RandomLinks
// draws Count distinct links from rand.New(rand.NewSource(seed)), and
// per-link windows are sorted and merged.
func Compile(spec Spec, n int) (*Plan, error) {
	if n < 0 || n > 20 {
		return nil, fmt.Errorf("fault: cube dimension %d out of range [0,20]", n)
	}
	N := uint64(1) << uint(n)
	p := &Plan{
		n:     n,
		seed:  spec.Seed,
		downs: make(map[Link][]window),
		flaky: make(map[Link]float64),
		crash: make(map[uint64]float64),
	}
	addCrash := func(node uint64, t float64) {
		if old, ok := p.crash[node]; !ok || t < old {
			p.crash[node] = t
		}
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	checkLink := func(l Link) error {
		if l.From >= N {
			return fmt.Errorf("fault: link source %d out of range [0,%d)", l.From, N)
		}
		if l.Dim < 0 || l.Dim >= n {
			return fmt.Errorf("fault: link dimension %d out of range [0,%d)", l.Dim, n)
		}
		return nil
	}
	for i, r := range spec.Rules {
		w := window{start: r.Start, end: r.End}
		if w.end <= w.start {
			w.end = math.Inf(1)
		}
		switch r.Kind {
		case LinkDown:
			if err := checkLink(r.Link); err != nil {
				return nil, fmt.Errorf("fault: rule %d: %w", i, err)
			}
			p.downs[r.Link] = append(p.downs[r.Link], w)
		case LinkFlaky:
			if err := checkLink(r.Link); err != nil {
				return nil, fmt.Errorf("fault: rule %d: %w", i, err)
			}
			if r.Prob < 0 || r.Prob > 1 {
				return nil, fmt.Errorf("fault: rule %d: drop probability %v out of [0,1]", i, r.Prob)
			}
			if r.Prob > p.flaky[r.Link] {
				p.flaky[r.Link] = r.Prob
			}
		case NodeDown:
			if r.Node >= N {
				return nil, fmt.Errorf("fault: rule %d: node %d out of range [0,%d)", i, r.Node, N)
			}
			for d := 0; d < n; d++ {
				out := Link{From: r.Node, Dim: d}
				in := Link{From: out.To(), Dim: d}
				p.downs[out] = append(p.downs[out], w)
				p.downs[in] = append(p.downs[in], w)
			}
		case RandomLinks:
			if r.Count < 0 || uint64(r.Count) > N*uint64(n) {
				return nil, fmt.Errorf("fault: rule %d: %d random links on a cube with %d directed links",
					i, r.Count, N*uint64(n))
			}
			chosen := make(map[Link]bool, r.Count)
			for len(chosen) < r.Count {
				l := Link{From: uint64(rng.Int63n(int64(N))), Dim: rng.Intn(n)}
				if !chosen[l] {
					chosen[l] = true
					p.downs[l] = append(p.downs[l], w)
				}
			}
		case Crash:
			if r.Node >= N {
				return nil, fmt.Errorf("fault: rule %d: node %d out of range [0,%d)", i, r.Node, N)
			}
			if r.Start < 0 {
				return nil, fmt.Errorf("fault: rule %d: crash time %v negative", i, r.Start)
			}
			addCrash(r.Node, r.Start)
		case RandomCrashes:
			if r.Count < 0 || uint64(r.Count) >= N {
				return nil, fmt.Errorf("fault: rule %d: %d crashed nodes on a %d-node cube (at least one must survive)",
					i, r.Count, N)
			}
			if r.Start < 0 {
				return nil, fmt.Errorf("fault: rule %d: crash time %v negative", i, r.Start)
			}
			chosen := make(map[uint64]bool, r.Count)
			for len(chosen) < r.Count {
				nd := uint64(rng.Int63n(int64(N)))
				if !chosen[nd] {
					chosen[nd] = true
					addCrash(nd, r.Start)
				}
			}
		default:
			return nil, fmt.Errorf("fault: rule %d: unknown kind %v", i, r.Kind)
		}
	}
	for l := range p.downs {
		ws := p.downs[l]
		sort.Slice(ws, func(a, b int) bool { return ws[a].start < ws[b].start })
		p.downs[l] = mergeWindows(ws)
	}
	p.desc = p.describe()
	return p, nil
}

// MustCompile is Compile for specs whose validity is an invariant.
func MustCompile(spec Spec, n int) *Plan {
	p, err := Compile(spec, n)
	if err != nil {
		panic("fault: " + err.Error())
	}
	return p
}

// mergeWindows coalesces overlapping or touching sorted windows.
func mergeWindows(ws []window) []window {
	out := ws[:0]
	for _, w := range ws {
		if len(out) > 0 && w.start <= out[len(out)-1].end {
			if w.end > out[len(out)-1].end {
				out[len(out)-1].end = w.end
			}
			continue
		}
		out = append(out, w)
	}
	return out
}

// Dims returns the cube dimension the plan was compiled for.
func (p *Plan) Dims() int { return p.n }

// LinkState reports whether the directed link (from, dim) is usable at
// virtual time t; when it is down, nextUp is the time the link recovers
// (+Inf for a permanent failure). Part of fabric.FaultModel.
func (p *Plan) LinkState(from uint64, dim int, t float64) (up bool, nextUp float64) {
	for _, w := range p.downs[Link{From: from, Dim: dim}] {
		if t >= w.start && t < w.end {
			return false, w.end
		}
	}
	return true, 0
}

// Drop reports whether transmission attempt `attempt` on the directed link
// (from, dim) is dropped by a flaky link. The decision is a pure hash of
// (seed, link, attempt), so replays agree. Part of fabric.FaultModel.
func (p *Plan) Drop(from uint64, dim int, attempt int64) bool {
	prob := p.flaky[Link{From: from, Dim: dim}]
	if prob <= 0 {
		return false
	}
	h := uint64(p.seed)
	h = mix64(h ^ from)
	h = mix64(h ^ uint64(dim)<<40)
	h = mix64(h ^ uint64(attempt))
	return float64(h>>11)/(1<<53) < prob
}

// mix64 is the splitmix64 finalizer: a bijective avalanche mix.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// After returns the fault plan as seen from virtual time t onward: every
// down window is shifted earlier by t and clipped at zero, windows that
// have fully expired by t are dropped, and flaky-link probabilities (whose
// drop decisions are per-attempt, not per-time) carry over unchanged along
// with the seed. This is the post-failure fault state a resumed execution
// runs against — its engine restarts the virtual clock at zero, so a link
// that failed permanently at t'<t becomes permanently down from time zero
// in the view, which is exactly what lets the resume's failover pass route
// around it (PermanentlyDown holds in the view even when it did not in the
// original plan).
//
// Crash-stop kills translate by when they fired: a node crashed at t' <= t
// is already dead, so the view drops it from the crash schedule and instead
// marks its 2n incident directed links permanently down — the recovery run
// never targets a dead node (reconfiguration remapped its work away), and
// the link-downs are what make the failover pass refuse to route *through*
// it. A crash at t' > t has not happened yet and shifts to t'-t, which is
// what lets a second kill land mid-recovery.
//
// t <= 0 returns the receiver itself (the view would be identical).
func (p *Plan) After(t float64) *Plan {
	if t <= 0 {
		return p
	}
	q := &Plan{
		n:     p.n,
		seed:  p.seed,
		downs: make(map[Link][]window, len(p.downs)),
		flaky: make(map[Link]float64, len(p.flaky)),
		crash: make(map[uint64]float64, len(p.crash)),
	}
	for l, ws := range p.downs {
		var shifted []window
		for _, w := range ws {
			if w.end <= t {
				continue // expired before the view starts
			}
			s := w.start - t
			if s < 0 {
				s = 0
			}
			e := w.end
			if !math.IsInf(e, 1) {
				e -= t
			}
			shifted = append(shifted, window{start: s, end: e})
		}
		if len(shifted) > 0 {
			q.downs[l] = shifted
		}
	}
	for l, prob := range p.flaky {
		q.flaky[l] = prob
	}
	forever := window{start: 0, end: math.Inf(1)}
	for nd, ct := range p.crash {
		if ct > t {
			q.crash[nd] = ct - t
			continue
		}
		for d := 0; d < p.n; d++ {
			out := Link{From: nd, Dim: d}
			in := Link{From: out.To(), Dim: d}
			q.downs[out] = mergeWindows(insertWindow(q.downs[out], forever))
			q.downs[in] = mergeWindows(insertWindow(q.downs[in], forever))
		}
	}
	q.desc = q.describe()
	return q
}

// insertWindow adds w keeping the slice sorted by start.
func insertWindow(ws []window, w window) []window {
	i := sort.Search(len(ws), func(i int) bool { return ws[i].start >= w.start })
	ws = append(ws, window{})
	copy(ws[i+1:], ws[i:])
	ws[i] = w
	return ws
}

// CrashAt returns the crash-stop time of node and whether the schedule
// kills it at all. Part of fabric.CrashModel.
func (p *Plan) CrashAt(node uint64) (t float64, ok bool) {
	t, ok = p.crash[node]
	return t, ok
}

// CrashedNodes returns every node the schedule crash-stops, ascending.
// Part of fabric.CrashModel.
func (p *Plan) CrashedNodes() []uint64 {
	out := make([]uint64, 0, len(p.crash))
	for nd := range p.crash {
		out = append(out, nd)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// PermanentlyDown reports whether the link is down at time zero and never
// recovers — the condition under which the flow executor reroutes before
// injection (a transient window is instead waited out by the engine's
// retry policy).
func (p *Plan) PermanentlyDown(from uint64, dim int) bool {
	up, nextUp := p.LinkState(from, dim, 0)
	return !up && math.IsInf(nextUp, 1)
}

// DownLinks returns every link with at least one down window, sorted by
// (From, Dim).
func (p *Plan) DownLinks() []Link {
	out := make([]Link, 0, len(p.downs))
	for l := range p.downs {
		out = append(out, l)
	}
	sortLinks(out)
	return out
}

func sortLinks(ls []Link) {
	sort.Slice(ls, func(a, b int) bool {
		if ls[a].From != ls[b].From {
			return ls[a].From < ls[b].From
		}
		return ls[a].Dim < ls[b].Dim
	})
}

// describe renders the deterministic fault list (links sorted, windows in
// order) used for trace labeling.
func (p *Plan) describe() []string {
	var out []string
	links := p.DownLinks()
	for _, l := range links {
		for _, w := range p.downs[l] {
			end := "inf"
			if !math.IsInf(w.end, 1) {
				end = fmt.Sprintf("%g", w.end)
			}
			out = append(out, fmt.Sprintf("link %s down [%g, %s)", l, w.start, end))
		}
	}
	fl := make([]Link, 0, len(p.flaky))
	for l := range p.flaky {
		fl = append(fl, l)
	}
	sortLinks(fl)
	for _, l := range fl {
		out = append(out, fmt.Sprintf("link %s flaky p=%g", l, p.flaky[l]))
	}
	for _, nd := range p.CrashedNodes() {
		out = append(out, fmt.Sprintf("node %d crash-stop at t=%g", nd, p.crash[nd]))
	}
	return out
}

// Describe returns one line per injected fault, in deterministic order —
// the trace recorder attaches these to rendered timelines.
func (p *Plan) Describe() []string {
	return append([]string(nil), p.desc...)
}
