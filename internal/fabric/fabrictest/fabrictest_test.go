package fabrictest_test

import (
	"testing"

	"boolcube/internal/fabric"
	"boolcube/internal/fabric/fabrictest"

	_ "boolcube/internal/livenet"
	_ "boolcube/internal/simnet"
)

// Every backend the library ships passes the contract.
func TestContractOverRegistry(t *testing.T) {
	for _, backend := range fabric.Backends() {
		t.Run(backend, func(t *testing.T) { fabrictest.Contract(t, backend) })
	}
}
