package fabric

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestSummerMatchesChecksum pins the streaming accumulator to the one-shot
// checksum: feeding a payload in arbitrary consecutive slices must produce
// exactly Checksum of the whole — including the lane structure, which
// depends on element positions mod 4, so uneven chunk boundaries are the
// interesting cases.
func TestSummerMatchesChecksum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(65)
		data := make([]float64, n)
		for i := range data {
			data[i] = rng.NormFloat64()
		}
		want := Checksum(data)
		var s Summer
		for off := 0; off < n; {
			sz := rng.Intn(n - off + 1)
			s.Add(data[off : off+sz])
			off += sz
		}
		if n == 0 {
			s.Add(nil)
		}
		if got := s.Sum(); got != want {
			t.Fatalf("trial %d (n=%d): streaming sum %#x != Checksum %#x", trial, n, got, want)
		}
	}
}

// TestSummerRepeatedSum checks Sum is a snapshot, not a consuming finalize.
func TestSummerRepeatedSum(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6, 7}
	var s Summer
	s.Add(data[:3])
	if s.Sum() != Checksum(data[:3]) {
		t.Fatal("mid-stream Sum differs from Checksum of the prefix")
	}
	s.Add(data[3:])
	if s.Sum() != Checksum(data) {
		t.Fatal("Sum after more Adds differs from Checksum of the whole")
	}
	if s.Sum() != Checksum(data) {
		t.Fatal("second Sum call changed the result")
	}
}

// TestSummerEmptyNeverZero mirrors the Checksum never-0 contract.
func TestSummerEmptyNeverZero(t *testing.T) {
	var s Summer
	if s.Sum() == 0 {
		t.Fatal("empty Summer returned the unaudited sentinel 0")
	}
	if s.Sum() != Checksum(nil) {
		t.Fatal("empty Summer differs from Checksum(nil)")
	}
}

func TestChecksumNeverZero(t *testing.T) {
	cases := [][]float64{nil, {}, {0}, {0, 0, 0}, {1.5, -2.25}}
	for _, c := range cases {
		if Checksum(c) == 0 {
			t.Errorf("Checksum(%v) = 0; 0 must be reserved for \"unaudited\"", c)
		}
	}
}

func TestChecksumPositionSensitive(t *testing.T) {
	a := Checksum([]float64{1, 2, 3})
	b := Checksum([]float64{3, 2, 1})
	if a == b {
		t.Fatal("checksum blind to element order")
	}
	if Checksum([]float64{1, 2, 3}) != a {
		t.Fatal("checksum not pure")
	}
	if Checksum([]float64{1, 2}) == a {
		t.Fatal("checksum blind to truncation")
	}
}

func TestChecksumDistinguishesBitPatterns(t *testing.T) {
	// -0 and +0 differ in the sign bit only; an audit over IEEE-754 bits
	// must see them as different payloads.
	if Checksum([]float64{0}) == Checksum([]float64{math.Copysign(0, -1)}) {
		t.Fatal("checksum blind to the sign bit")
	}
}

func TestAuditErrorUnwraps(t *testing.T) {
	err := error(&AuditError{Node: 3, Src: 1, Dst: 2, What: "packet", Want: 7, Got: 9})
	if !errors.Is(err, ErrAudit) {
		t.Fatal("AuditError does not unwrap to ErrAudit")
	}
	var ae *AuditError
	if !errors.As(err, &ae) || ae.What != "packet" {
		t.Fatalf("errors.As round-trip: %+v", ae)
	}
	if err.Error() != (&AuditError{Node: 3, Src: 1, Dst: 2, What: "packet", Want: 7, Got: 9}).Error() {
		t.Fatal("audit message not a pure function of the mismatch")
	}
}
