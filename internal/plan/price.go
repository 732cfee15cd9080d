package plan

import (
	"maps"
	"slices"

	"boolcube/internal/comm"
	"boolcube/internal/field"
	"boolcube/internal/machine"
)

// Price is what a plan's compiled traffic costs on its machine. Its link
// loads are the run's Stats.MaxLinkBytes and MaxLinkBusy; the busiest link
// bounds the run from below (Theorem 3, and Faber for any route system).
type Price struct {
	Time         float64 // predicted makespan, µs
	MaxLinkBytes int64   // heaviest directed link, bytes
	MaxLinkBusy  float64 // busiest directed link, µs
}

// PredictedCost returns Price().Time, the price Auto picks by (µs).
func (p *Plan) PredictedCost() float64 { return p.Price().Time }

// Price walks what the plan will send — each flow's route times its packets,
// each exchange step's messages as the Strategy packages them — into bytes
// and busy time per directed link. The time is the critical path (the
// flows' hop schedule, or the exchange steps, each as long as its slowest
// node), which no send port's load exceeds, plus the charged copies.
// Nothing executes.
func (p *Plan) Price() Price {
	links := max(p.n<<uint(p.n), 1) // a 0-cube has no link
	w := &pricer{mach: p.cfg.Machine, n: p.n, nodes: 1 << uint(p.n),
		bytes: make([]int64, links), busy: make([]float64, links)}
	switch p.kind {
	case KindFlow:
		w.flows(p.flows)
		if p.cfg.LocalCopies {
			w.copies = 2 * w.mach.CopyTime(p.before.LocalSize()*w.mach.ElemBytes)
		}
	case KindExchange:
		for _, ph := range p.phases {
			w.exchange(ph, p.cfg.Strategy)
		}
	}
	return Price{Time: w.path + w.copies, MaxLinkBytes: slices.Max(w.bytes), MaxLinkBusy: slices.Max(w.busy)}
}

// pricer accumulates a plan's traffic per directed link (node*n + dim, the
// simulator's order).
type pricer struct {
	mach         machine.Params
	n, nodes     int
	bytes        []int64
	busy         []float64
	path, copies float64 // critical path and phase-boundary copies, µs
}

// send charges count messages of b bytes from node across dim and returns
// their send time.
func (w *pricer) send(node uint64, dim, b, count int) float64 {
	t, _ := w.mach.SendTime(b)
	t *= float64(count)
	w.bytes[int(node)*w.n+dim] += int64(b * count)
	w.busy[int(node)*w.n+dim] += t
	return t
}

// flows charges every packet of every flow (the router's split: at most one
// per element, earlier ones taking the remainder) to each link of its route,
// then schedules the hops level by level — hop k of every route, in order of
// readiness — as the router's node programs run them: a source injects its
// packets round-robin before it forwards, a node issues one send at a time
// on a free port, and a receive port takes one packet at a time.
func (w *pricer) flows(fs []Flow) {
	ports := w.n
	if w.mach.Ports == machine.OnePort {
		ports = 1
	}
	type train struct { // a flow's pk packets, each t long, at a node
		first, last, t float64 // when its first and last packet are ready
		at             uint64
		pk             int
	}
	cur, levels := make([]train, len(fs)), 0
	for i, f := range fs {
		pk := max(f.Packets, 1)
		if f.Len > 0 {
			pk = min(pk, f.Len)
		}
		size, rem, eb := f.Len/pk, f.Len%pk, w.mach.ElemBytes
		t, _ := w.mach.SendTime((size + min(rem, 1)) * eb)
		cur[i], levels = train{at: f.Src, pk: pk, t: t}, max(levels, len(f.Dims))
		for x, h := f.Src, 0; h < len(f.Dims); x, h = x^1<<uint(f.Dims[h]), h+1 {
			w.send(x, f.Dims[h], (size+1)*eb, rem)
			w.send(x, f.Dims[h], size*eb, pk-rem)
		}
	}
	sendFree, recvFree := make([]float64, w.nodes*ports), make([]float64, w.nodes*ports)
	clock, injected := make([]float64, w.nodes), make([]float64, w.nodes)
	order := make([]int, len(fs))
	for i := range order {
		order[i] = i
	}
	// A level runs the flows still routing in order of their first packet,
	// ties to the lower index. As one word per train — the rank of its first
	// among the level's distinct firsts above its index, 32 bits each — that
	// order is two sorts of plain numbers, not one by comparison function: a
	// level's trains share a handful of firsts, and the last level's order
	// is nearly sorted already.
	var firsts []float64
	var keys []uint64
	for k := range levels {
		order = slices.DeleteFunc(order, func(i int) bool { return len(fs[i].Dims) <= k })
		firsts, keys = firsts[:0], keys[:0]
		for _, i := range order {
			firsts = append(firsts, cur[i].first)
		}
		slices.Sort(firsts)
		firsts = slices.Compact(firsts)
		for _, i := range order {
			r, _ := slices.BinarySearch(firsts, cur[i].first)
			keys = append(keys, uint64(r)<<32|uint64(i))
		}
		slices.Sort(keys)
		for j, key := range keys {
			order[j] = int(key & (1<<32 - 1))
		}
		for _, i := range order {
			c, d := &cur[i], fs[i].Dims[k]
			x, y := c.at, c.at^1<<uint(d)
			tx, rx := int(x)*ports, int(y)*ports
			if ports > 1 {
				tx, rx = tx+d, rx+d
			}
			start := max(c.first, clock[x], sendFree[tx])
			end := max(start+float64(c.pk)*c.t, c.last+c.t)
			clock[x], sendFree[tx] = start, end
			if k == 0 {
				injected[x] = max(injected[x], end-c.t) // the last round starts
			}
			c.first = max(start, recvFree[rx]) + c.t
			c.last = max(end, c.first+float64(c.pk-1)*c.t)
			c.at, recvFree[rx] = y, c.last
			w.path = max(w.path, c.last)
		}
		if k == 0 {
			copy(clock, injected)
		}
	}
}

// exchange walks one dimension-scan phase as comm.Lower packages it. At
// step j a block crosses dims[j] while its holder — its source with the
// scanned dimensions' bits taken from its destination — differs from the
// destination there. The holder groups its crossing blocks into runs by
// their sources' scanned bits and sends them as one message (SingleMessage,
// Shuffled), one per run (Unbuffered), or the runs under BCopy bytes copied
// into one beside the rest (Buffered); Shuffled then copies everything it
// holds. The steps run in turn, each as long as its slowest node.
func (w *pricer) exchange(ph Phase, strat comm.Strategy) {
	mv, eb := ph.Moves, w.mach.ElemBytes
	if ph.CopyBefore {
		w.copies += w.mach.CopyTime(mv.before.LocalSize() * eb)
	}
	if ph.CopyAfter {
		w.copies += w.mach.CopyTime(mv.after.LocalSize() * eb)
	}
	step, held := make([]float64, w.nodes), make([]int, w.nodes)
	var scanned uint64
	for j, d := range ph.Dims {
		runs, buffered := map[uint64]int{}, map[uint64]int{} // holder<<n | run -> elements; node -> bytes
		clear(held)
		for sp := range mv.before.N() {
			src := uint64(sp)
			for _, dst := range mv.Destinations(src) {
				elems, holder := mv.PayloadLen(src, dst), src&^scanned|dst&scanned
				if (src^dst)>>uint(d)&1 == 1 {
					k := holder << uint(w.n)
					if strat == comm.Unbuffered || strat == comm.Buffered {
						k |= src & scanned
					}
					runs[k] += elems
				}
				held[holder^(src^dst)&(1<<uint(d))] += elems
			}
		}
		clear(step)
		for _, k := range slices.Sorted(maps.Keys(runs)) {
			node, b := k>>uint(w.n), runs[k]*eb
			if strat == comm.Buffered && (w.mach.BCopy == 0 || b < w.mach.BCopy) {
				buffered[node] += b
			} else {
				step[node] += w.send(node, d, b, 1)
			}
		}
		for _, node := range slices.Sorted(maps.Keys(buffered)) {
			step[node] += w.mach.CopyTime(buffered[node]) + w.send(node, d, buffered[node], 1)
		}
		if strat == comm.Shuffled && j < len(ph.Dims)-1 {
			for node, elems := range held {
				step[node] += w.mach.CopyTime(elems * eb)
			}
		}
		w.path += slices.Max(step)
		scanned |= 1 << uint(d)
	}
}

// compileAuto compiles every candidate the layout pair admits — Exchange and
// SBnT always, the path systems SPT, DPT and MPT when the pair is pairwise
// and they compile — and returns the cheapest by price, ties to the earlier.
func compileAuto(before, after field.Layout, cfg Config) (*Plan, error) {
	c, err := field.Classify(before, after)
	if err != nil {
		return nil, err
	}
	cands := []Algorithm{Exchange, SBnT}
	if c.Pattern == field.Pairwise {
		cands = append(cands, SPT, DPT, MPT)
	}
	var best *Plan
	var bestT float64
	for _, a := range cands {
		p, err := Compile(a, before, after, cfg)
		if err != nil {
			if best == nil {
				return nil, err // the exchange compiles every valid pair
			}
			continue
		}
		if t := p.PredictedCost(); best == nil || t < bestT {
			best, bestT = p, t
		}
	}
	return best, nil
}
