package simnet

import (
	"errors"
	"math"
	"testing"

	"boolcube/internal/fabric"
	"boolcube/internal/machine"
)

func TestChecksumNeverZero(t *testing.T) {
	cases := [][]float64{nil, {}, {0}, {0, 0, 0}, {1.5, -2.25}}
	for _, c := range cases {
		if fabric.Checksum(c) == 0 {
			t.Errorf("Checksum(%v) = 0; 0 must be reserved for \"unaudited\"", c)
		}
	}
}

func TestChecksumPositionSensitive(t *testing.T) {
	a := fabric.Checksum([]float64{1, 2, 3})
	b := fabric.Checksum([]float64{3, 2, 1})
	if a == b {
		t.Fatal("checksum blind to element order")
	}
	if fabric.Checksum([]float64{1, 2, 3}) != a {
		t.Fatal("checksum not pure")
	}
	if fabric.Checksum([]float64{1, 2}) == a {
		t.Fatal("checksum blind to truncation")
	}
}

func TestChecksumDistinguishesBitPatterns(t *testing.T) {
	// -0 and +0 differ in the sign bit only; an audit over IEEE-754 bits
	// must see them as different payloads.
	if fabric.Checksum([]float64{0}) == fabric.Checksum([]float64{math.Copysign(0, -1)}) {
		t.Fatal("checksum blind to the sign bit")
	}
}

func TestAuditErrorUnwraps(t *testing.T) {
	err := error(&fabric.AuditError{Node: 3, Src: 1, Dst: 2, What: "packet", Want: 7, Got: 9})
	if !errors.Is(err, fabric.ErrAudit) {
		t.Fatal("AuditError does not unwrap to ErrAudit")
	}
	var ae *fabric.AuditError
	if !errors.As(err, &ae) || ae.What != "packet" {
		t.Fatalf("errors.As round-trip: %+v", ae)
	}
	if err.Error() != (&fabric.AuditError{Node: 3, Src: 1, Dst: 2, What: "packet", Want: 7, Got: 9}).Error() {
		t.Fatal("audit message not a pure function of the mismatch")
	}
}

// Node.Fail surfaces a typed error out of Run, unwinding all nodes cleanly.
func TestNodeFailSurfacesTypedError(t *testing.T) {
	e := ideal(t, 2, machine.NPort)
	err := e.Run(func(nd fabric.Node) {
		if nd.ID() == 3 {
			nd.Fail(&fabric.AuditError{Node: 3, Src: 0, Dst: 3, What: "block", Want: 1, Got: 2})
		}
		for d := 0; d < nd.Dims(); d++ {
			nd.Exchange(d, fabric.Msg{Data: []float64{1}})
		}
	})
	if !errors.Is(err, fabric.ErrAudit) {
		t.Fatalf("Run() = %v, want ErrAudit", err)
	}
	var ae *fabric.AuditError
	if !errors.As(err, &ae) || ae.Node != 3 {
		t.Fatalf("typed audit error lost: %+v", ae)
	}
}
