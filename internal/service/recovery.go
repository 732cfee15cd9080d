package service

import "slices"

// This file is the service's crash-recovery layer: the circuit breaker that
// quarantines repeatedly-suspected nodes and the check runRound uses to
// decide which units must be relabeled around dead nodes.
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
	slices.Sort(out)
	return out
}

// touchesDead reports whether any of the unit's network spans starts or
// ends on a node in the dead view — the case that forces a remap; dead
// intermediates on a route are the failover pass's cheaper problem.
func (u *unit) touchesDead(dead []uint64) bool {
	for _, sp := range u.spans {
		if slices.Contains(dead, sp.Src) || slices.Contains(dead, sp.Dst) {
			return true
		}
	}
	return false
}
