package simnet_test

import (
	"testing"

	"boolcube/internal/fabric/fabrictest"
)

// The engine and the linear-scan oracle checkpoint_test.go registers beside
// it pass the same backend contract.
func TestFabricContract(t *testing.T) {
	for _, backend := range []string{"simnet", "simnet-oracle"} {
		t.Run(backend, func(t *testing.T) { fabrictest.Contract(t, backend) })
	}
}
