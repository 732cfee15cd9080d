package service

import (
	"sort"

	"boolcube/internal/plan"
)

// This file is the service's crash-recovery layer: the circuit breaker that
// quarantines repeatedly-suspected nodes and the small set-algebra helpers
// runRound uses to decide which units must be relabeled around dead nodes.
//
// The division of labor: a unit's own dead set (unit.Dead) is authoritative
// for that unit — its round failed on those nodes, so its recovery must
// avoid them. The service-level quarantine is the fleet view: a node named
// in quarantineAfter node-down failures is retired for everyone, so fresh
// jobs stop rediscovering the corpse by failing on it first. On the
// deterministic backend one suspicion is already proof; the threshold
// exists for live backends, where a heartbeat suspicion can be a false
// positive under scheduler pressure.

// noteSuspects feeds one node-down failure into the circuit breaker:
// every named node's suspicion count rises, and nodes crossing the
// quarantineAfter threshold are quarantined (counted once in the metrics).
func (s *Service) noteSuspects(nodes []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, nd := range nodes {
		if s.quarantined[nd] {
			continue
		}
		if s.suspect == nil {
			s.suspect = make(map[uint64]int)
		}
		s.suspect[nd]++
		if s.suspect[nd] >= quarantineAfter {
			if s.quarantined == nil {
				s.quarantined = make(map[uint64]bool)
			}
			s.quarantined[nd] = true
			s.metrics.Quarantined++
		}
	}
}

// QuarantinedNodes returns the nodes the circuit breaker has retired,
// ascending. The slice is the caller's own copy.
func (s *Service) QuarantinedNodes() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]uint64, 0, len(s.quarantined))
	for nd := range s.quarantined {
		out = append(out, nd)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quarantineSnapshot copies the quarantine set for one round's use, so the
// round works against a consistent view without holding the lock.
func (s *Service) quarantineSnapshot() map[uint64]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.quarantined) == 0 {
		return nil
	}
	out := make(map[uint64]bool, len(s.quarantined))
	for nd := range s.quarantined {
		out[nd] = true
	}
	return out
}

// deadView merges a unit's own casualties with the service quarantine into
// one lookup set (nil when both are empty).
func deadView(dead []uint64, quarantined map[uint64]bool) map[uint64]bool {
	if len(dead) == 0 && len(quarantined) == 0 {
		return nil
	}
	out := make(map[uint64]bool, len(dead)+len(quarantined))
	for _, nd := range dead {
		out[nd] = true
	}
	for nd := range quarantined {
		out[nd] = true
	}
	return out
}

// mergeDead folds newly detected casualties into a unit's accumulated dead
// set, keeping it sorted and duplicate-free.
func mergeDead(dead, fresh []uint64) []uint64 {
	set := make(map[uint64]bool, len(dead)+len(fresh))
	for _, nd := range dead {
		set[nd] = true
	}
	for _, nd := range fresh {
		set[nd] = true
	}
	out := make([]uint64, 0, len(set))
	for nd := range set {
		out = append(out, nd)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sortedNodes flattens a node set ascending (remap.Plan wants a slice).
func sortedNodes(set map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(set))
	for nd := range set {
		out = append(out, nd)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// touchesDead reports whether any of the unit's network spans starts or
// ends on a node in the dead view — the case that forces a remap; dead
// intermediates on a route are the failover pass's cheaper problem.
func (u *unit) touchesDead(dead map[uint64]bool) bool {
	for _, sp := range u.spans {
		if dead[sp.Src] || dead[sp.Dst] {
			return true
		}
	}
	return false
}

// spanEndpoints collects the distinct endpoints of a unit's network spans,
// in first-appearance order — the active set a remap must keep hosted.
func spanEndpoints(spans []plan.Flow) []uint64 {
	seen := make(map[uint64]bool, 2*len(spans))
	var out []uint64
	for _, sp := range spans {
		for _, nd := range [2]uint64{sp.Src, sp.Dst} {
			if !seen[nd] {
				seen[nd] = true
				out = append(out, nd)
			}
		}
	}
	return out
}
