package fault

import (
	"math"
	"testing"
)

// After shifts the schedule to a mid-run instant: a window that had not yet
// opened moves earlier, an open window becomes permanent-from-zero if it
// never closes, and an expired window disappears.
func TestAfterShiftsWindows(t *testing.T) {
	p := MustCompile(Spec{Rules: []Rule{
		{Kind: LinkDown, Link: Link{From: 0, Dim: 0}, Start: 5, End: 9},  // expires before the view
		{Kind: LinkDown, Link: Link{From: 1, Dim: 1}, Start: 8, End: 20}, // open at t=10
		{Kind: LinkDown, Link: Link{From: 2, Dim: 0}, Start: 15},         // permanent, opens later
		{Kind: LinkDown, Link: Link{From: 3, Dim: 0}, Start: 4},          // permanent, already open
		{Kind: LinkFlaky, Link: Link{From: 3, Dim: 1}, Prob: 0.25},
	}}, 2)
	q := p.After(10)

	if up, _ := q.LinkState(0, 0, 0); !up {
		t.Fatal("expired window survived the shift")
	}
	up, nextUp := q.LinkState(1, 1, 0)
	if up || nextUp != 10 {
		t.Fatalf("open window: LinkState = (%v, %v), want (false, 10)", up, nextUp)
	}
	up, nextUp = q.LinkState(2, 0, 5)
	if up || !math.IsInf(nextUp, 1) {
		t.Fatalf("future permanent window at shifted t=5: (%v, %v), want (false, +Inf)", up, nextUp)
	}
	// A kill scheduled after the view instant is still in the future there;
	// one that fired before it becomes permanent-from-zero — the property
	// Recover's failover relies on to route around mid-run-failed links.
	if q.PermanentlyDown(2, 0) {
		t.Fatal("kill at original t=15 reported PermanentlyDown in the t=10 view")
	}
	if !q.PermanentlyDown(3, 0) {
		t.Fatal("kill at original t=4 not PermanentlyDown in the t=10 view")
	}
	if p.PermanentlyDown(3, 0) {
		t.Fatal("original plan reports a t=4 kill as down at time zero")
	}
	// Drop probabilities carry over untouched: the shifted view makes the
	// same per-attempt decisions as the original (same seed, same hash).
	for attempt := int64(1); attempt <= 8; attempt++ {
		if q.Drop(3, 1, attempt) != p.Drop(3, 1, attempt) {
			t.Fatalf("drop decision diverges at attempt %d", attempt)
		}
	}
}

func TestAfterNonPositiveIsIdentity(t *testing.T) {
	p := MustCompile(SingleLinkDown(0, 0), 2)
	if p.After(0) != p || p.After(-3) != p {
		t.Fatal("After(t<=0) must return the same plan")
	}
}

// The shifted view is itself shiftable: After composes.
func TestAfterComposes(t *testing.T) {
	p := MustCompile(Spec{Rules: []Rule{
		{Kind: LinkDown, Link: Link{From: 0, Dim: 1}, Start: 4, End: 30},
	}}, 2)
	a := p.After(10).After(10)
	b := p.After(20)
	upA, nextA := a.LinkState(0, 1, 0)
	upB, nextB := b.LinkState(0, 1, 0)
	if upA != upB || nextA != nextB {
		t.Fatalf("After(10).After(10) = (%v,%v), After(20) = (%v,%v)", upA, nextA, upB, nextB)
	}
}

// A window opening at exactly the cut time belongs to the residual plan:
// the failed run never lived through instant t (its last event is what
// *defines* t), so a fault arriving precisely then must still be ahead of
// the resumed run, shifted to open at its time zero.
func TestAfterWindowOpeningExactlyAtCutSurvives(t *testing.T) {
	p := MustCompile(Spec{Rules: []Rule{
		{Kind: LinkDown, Link: Link{From: 1, Dim: 0}, Start: 10, End: 25}, // opens at the cut
		{Kind: LinkDown, Link: Link{From: 2, Dim: 1}, Start: 10},          // permanent, opens at the cut
		{Kind: LinkDown, Link: Link{From: 0, Dim: 0}, Start: 3, End: 10},  // closes at the cut: expired
	}}, 2)
	q := p.After(10)

	up, nextUp := q.LinkState(1, 0, 0)
	if up || nextUp != 15 {
		t.Fatalf("window [10,25) at cut 10: LinkState = (%v, %g), want (false, 15)", up, nextUp)
	}
	if !q.PermanentlyDown(2, 1) {
		t.Fatal("permanent window opening exactly at the cut is not down in the view")
	}
	// Half-open [3,10): at t=10 the link is already up again.
	if up, _ := q.LinkState(0, 0, 0); !up {
		t.Fatal("window closing exactly at the cut survived into the view")
	}
}

func TestCrashCompileAndQueries(t *testing.T) {
	p := MustCompile(Spec{Seed: 7, Rules: []Rule{
		{Kind: Crash, Node: 5, Start: 40},
		{Kind: Crash, Node: 5, Start: 25}, // earliest rule wins
		{Kind: Crash, Node: 2, Start: 60},
	}}, 3)
	if got := p.CrashedNodes(); len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Fatalf("CrashedNodes() = %v, want [2 5]", got)
	}
	if ct, ok := p.CrashAt(5); !ok || ct != 25 {
		t.Fatalf("CrashAt(5) = %g, %v; want 25, true", ct, ok)
	}
	if _, ok := p.CrashAt(0); ok {
		t.Fatal("CrashAt(0) reported a kill that was never scheduled")
	}
	// A crash alone downs no links in the original plan: the engine kills
	// the processor, not the wires; only the After view severs them.
	if p.PermanentlyDown(5, 0) {
		t.Fatal("scheduled crash downed a link before firing")
	}
}

func TestRandomCrashesDeterministicAndBounded(t *testing.T) {
	a := MustCompile(RandomNodeCrashes(11, 3, 50), 3).CrashedNodes()
	b := MustCompile(RandomNodeCrashes(11, 3, 50), 3).CrashedNodes()
	if len(a) != 3 {
		t.Fatalf("drew %d nodes, want 3", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed drew different nodes: %v vs %v", a, b)
		}
	}
	if _, err := Compile(RandomNodeCrashes(1, 8, 0), 3); err == nil {
		t.Fatal("crashing every node of an 8-node cube must be rejected")
	}
	if _, err := Compile(Spec{Rules: []Rule{{Kind: Crash, Node: 9, Start: 1}}}, 3); err == nil {
		t.Fatal("out-of-range crash node must be rejected")
	}
	if _, err := Compile(Spec{Rules: []Rule{{Kind: Crash, Node: 1, Start: -4}}}, 3); err == nil {
		t.Fatal("negative crash time must be rejected")
	}
}

func TestCrashDescribeDeterministic(t *testing.T) {
	p := MustCompile(Spec{Rules: []Rule{
		{Kind: Crash, Node: 6, Start: 12},
		{Kind: Crash, Node: 1, Start: 30},
	}}, 3)
	d := p.Describe()
	if len(d) != 2 || d[0] != "node 1 crash-stop at t=30" || d[1] != "node 6 crash-stop at t=12" {
		t.Fatalf("Describe() = %q", d)
	}
}
