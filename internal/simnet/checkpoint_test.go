package simnet_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"boolcube/internal/core"
	"boolcube/internal/fabric"
	"boolcube/internal/fault"
	"boolcube/internal/field"
	"boolcube/internal/machine"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
	"boolcube/internal/simnet"
)

// oracleFabric is the engine with Run routed to the linear-scan oracle,
// registered as a backend so an executor above simnet can be run
// differentially.
type oracleFabric struct{ *simnet.Engine }

func (f oracleFabric) Run(prog func(fabric.Node)) error { return f.RunOracle(prog) }

func init() {
	caps, _ := fabric.Caps("simnet")
	fabric.Register("simnet-oracle", func(n int, params machine.Params) (fabric.Fabric, error) {
		e, err := simnet.New(n, params)
		if err != nil {
			return nil, err
		}
		return oracleFabric{e}, nil
	}, caps)
}

// TestCheckpointExactAtOneShard is the differential property one level up:
// the exchange executor records every block that reaches its home node in a
// hook the node program runs, so a checkpoint's delivered set is
// program-written state. With links killed mid-run on a 6-cube, the
// checkpoint the engine's default (one-worker) configuration hands back —
// delivered set, destination arrays, sunk Stats, stop time — equals the
// oracle's exactly. A node program running past the first failure
// would deliver blocks "after" the fault and shrink the residual.
func TestCheckpointExactAtOneShard(t *testing.T) {
	const n, p, q = 6, 6, 6
	before := field.TwoDimConsecutive(p, q, n/2, n/2, field.Binary)
	after := field.TwoDimConsecutive(q, p, n/2, n/2, field.Binary)
	m := matrix.NewIota(p, q)
	for _, mach := range []machine.Params{machine.IPSC(), machine.IPSCNPort()} {
		opt := core.Options{Machine: mach}
		full, err := core.Transpose(plan.Exchange, matrix.Scatter(m, before), after, opt)
		if err != nil {
			t.Fatal(err)
		}
		checkpoints := 0
		for seed := int64(1); seed <= 3; seed++ {
			for _, epoch := range []float64{0.35, 0.7} {
				fp, err := fault.Compile(fault.Spec{Seed: seed, Rules: []fault.Rule{
					{Kind: fault.RandomLinks, Count: 4, Start: epoch * full.Stats.Time}}}, n)
				if err != nil {
					t.Fatal(err)
				}
				where := fmt.Sprintf("%s, seed %d, kill at %.0f%%", mach.Name, seed, 100*epoch)
				checkpoint := func(backend string) *core.Checkpoint {
					opt := opt
					opt.Faults, opt.Backend = fp, backend
					_, err := core.Transpose(plan.Exchange, matrix.Scatter(m, before), after, opt)
					var xe *core.ExecError
					if err != nil && !errors.As(err, &xe) {
						t.Fatalf("%s on %q: %v", where, backend, err)
					}
					if xe == nil {
						return nil // the kill missed all remaining traffic
					}
					return xe.Checkpoint
				}
				ref, got := checkpoint("simnet-oracle"), checkpoint("simnet")
				if (ref == nil) != (got == nil) {
					t.Fatalf("%s: oracle checkpointed %v, engine %v", where, ref != nil, got != nil)
				}
				if ref == nil {
					continue
				}
				checkpoints++
				if got.At != ref.At || got.Stats != ref.Stats {
					t.Errorf("%s: stopped at %g with %+v, oracle at %g with %+v",
						where, got.At, got.Stats, ref.At, ref.Stats)
				}
				if got.DeliveredElems() != ref.DeliveredElems() || !reflect.DeepEqual(got.Remaining(), ref.Remaining()) {
					t.Errorf("%s: %d elements delivered, oracle %d; residuals differ",
						where, got.DeliveredElems(), ref.DeliveredElems())
				}
				if !reflect.DeepEqual(got.Loc, ref.Loc) {
					t.Errorf("%s: destination arrays differ from the oracle's", where)
				}
			}
		}
		if checkpoints == 0 {
			t.Fatalf("%s: no kill produced a checkpoint; property vacuous", mach.Name)
		}
	}
}
