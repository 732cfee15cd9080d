package livenet_test

import (
	"testing"

	"boolcube/internal/fabric/fabrictest"
	_ "boolcube/internal/livenet"
)

func TestFabricContract(t *testing.T) { fabrictest.Contract(t, "livenet") }
