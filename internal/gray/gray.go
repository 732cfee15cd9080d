// Package gray implements the binary-reflected Gray code used by the paper
// to embed matrix rows and columns in a Boolean cube while preserving
// adjacency: consecutive indices map to processors at Hamming distance one.
//
// The code of w is G(w) = w XOR (w >> 1); the inverse accumulates the prefix
// XOR from the most significant bit down. Both are exact inverses on any
// width up to 64 bits.
package gray

import (
	"fmt"

	"boolcube/internal/bits"
)

// Encode returns the binary-reflected Gray code G(w).
func Encode(w uint64) uint64 {
	return w ^ (w >> 1)
}

// Decode returns the inverse Gray code G^{-1}(g).
func Decode(g uint64) uint64 {
	w := g
	// Once w < 2^s every further step is a no-op (XOR with w>>s never
	// lengthens w), so narrow values stop after log2(width) steps.
	for s := uint(1); w>>s != 0; s <<= 1 {
		w ^= w >> s
	}
	return w
}

// TransitionBit returns the dimension that changes between G(i) and G(i+1):
// the number of trailing ones of i, equivalently the index of the lowest
// zero bit of i. It is the classic reflected-Gray-code transition sequence.
func TransitionBit(i uint64) int {
	d := 0
	for i&1 == 1 {
		i >>= 1
		d++
	}
	return d
}

// Adjacent reports whether a and b differ in exactly one bit within width m,
// i.e. whether they are neighbors in the m-cube.
func Adjacent(a, b uint64, m int) bool {
	return bits.Hamming(a, b, m) == 1
}

// Sequence returns the full Gray code sequence G(0..2^m-1) for an m-bit code.
// The width is bounded at 30 bits: beyond that the materialized sequence
// would not fit in memory, and an unguarded shift would silently wrap.
func Sequence(m int) []uint64 {
	if m < 0 || m > 30 {
		panic(fmt.Sprintf("gray: sequence width %d out of range [0,30]", m))
	}
	n := uint64(1) << uint(m)
	seq := make([]uint64, n)
	for i := uint64(0); i < n; i++ {
		seq[i] = Encode(i) & bits.Mask(m)
	}
	return seq
}

// ParityOdd reports whether the binary encoding of i has odd parity. In the
// paper's combined transpose/conversion algorithm (Section 6.3), block
// columns i with odd parity of the binary encoding of i require a vertical
// exchange; odd block rows require a horizontal exchange.
func ParityOdd(i uint64, m int) bool {
	return bits.Parity(i, m)
}
