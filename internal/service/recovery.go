package service

import (
	"sort"
	"time"

	"boolcube/internal/plan"
)

// This file is the service's crash-recovery layer: the circuit breaker that
// quarantines repeatedly-suspected nodes, the deterministic backoff that
// paces crashed units back into rounds, and the small set-algebra helpers
// runRound uses to decide which units must be relabeled around dead nodes.
//
// The division of labor: a unit's own dead set (unit.Dead) is authoritative
// for that unit — its round failed on those nodes, so its recovery must
// avoid them. The service-level quarantine is the fleet view: a node named
// in QuarantineAfter node-down failures is retired for everyone, so fresh
// jobs stop rediscovering the corpse by failing on it first. On the
// deterministic backend one suspicion is already proof; the threshold
// exists for live backends, where a heartbeat suspicion can be a false
// positive under scheduler pressure.

// noteSuspects feeds one node-down failure into the circuit breaker:
// every named node's suspicion count rises, and nodes crossing the
// QuarantineAfter threshold are quarantined (counted once in the metrics).
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
		if s.suspect[nd] >= s.cfg.QuarantineAfter {
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

// requeueAfterCrash schedules a crashed unit's recovery attempt: immediately
// when no backoff is configured, otherwise after the unit's deterministic
// exponential delay. A delayed unit is "parked" — the scheduler counts it as
// outstanding work and will not drain past it.
func (s *Service) requeueAfterCrash(u *unit) {
	delay := backoffDelay(s.cfg.RecoveryBackoff, u.attempts, u.jobs[0].seq)
	s.mu.Lock()
	s.metrics.Recoveries++
	if delay <= 0 {
		s.resume = append(s.resume, u)
		s.cond.Signal()
		s.mu.Unlock()
		return
	}
	s.parked++
	s.mu.Unlock()
	time.AfterFunc(delay, func() {
		s.mu.Lock()
		s.parked--
		s.resume = append(s.resume, u)
		s.cond.Signal()
		s.mu.Unlock()
	})
}

// backoffDelay is the recovery pacing function: base·2^(attempt-1), scaled
// by a deterministic jitter in [0.5, 1.5) mixed (splitmix64) from the
// unit's leader sequence and the attempt number. Pure, so tests can pin it;
// deterministic, so two runs of the same scenario back off identically —
// yet distinct units de-synchronize instead of restampeding the fabric
// together. The exponent is clamped so a pathological attempt count cannot
// overflow the shift.
func backoffDelay(base time.Duration, attempt int, seq int64) time.Duration {
	if base <= 0 || attempt < 1 {
		return 0
	}
	shift := attempt - 1
	if shift > 10 {
		shift = 10
	}
	d := base << uint(shift)
	z := uint64(seq)*0x9E3779B97F4A7C15 + uint64(attempt)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	frac := float64(z>>11) / float64(1<<53)
	return d/2 + time.Duration(float64(d)*frac)
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
