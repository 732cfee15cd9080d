// Package ignorereason exercises the ignorereason pass: every
// //cubevet:ignore directive must justify itself with "-- reason" and name
// only registered passes; bare directives still suppress their target pass
// but are themselves flagged, and only a reasoned directive can silence
// that flag.
package ignorereason

// BareNamed suppresses shiftwidth without saying why: flagged.
func BareNamed(x uint64, n int) uint64 {
	return x << n //cubevet:ignore shiftwidth
}

// BareAll suppresses every pass without saying why: flagged, but the
// reasoned directive above it silences the ignorereason finding (the
// grandfathering idiom for legacy annotations).
func BareAll(x uint64, n int) uint64 {
	//cubevet:ignore ignorereason -- fixture: legacy directive kept verbatim below
	return x << n //cubevet:ignore
}

// Misspelled names a pass that does not exist, so it suppresses nothing:
// flagged even though it carries a reason.
func Misspelled(x uint64, n int) uint64 {
	return x << n //cubevet:ignore shiftwidht -- fixture: typo in the pass name
}

// Reasoned carries a justification: clean.
func Reasoned(x uint64, n int) uint64 {
	return x << n //cubevet:ignore shiftwidth -- fixture: caller clamps n below the word size
}
