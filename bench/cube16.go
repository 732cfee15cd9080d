package main

import (
	"fmt"

	"boolcube"
	"boolcube/internal/fabric"
	"boolcube/internal/machine"
	"boolcube/internal/simnet"
)

// scan runs one SBnT-order dimension-scan all-to-all on a fresh engine:
// every node exchanges a pooled payload of elems elements with its neighbor
// across each dimension, high dimension first (the scan of
// BenchmarkEngineCube16SBnT). It is split into construction and run so the
// two can be timed apart.
type scan struct {
	n, elems, shards int
	eng              *simnet.Engine
}

func (s *scan) build() error {
	eng, err := simnet.New(s.n, machine.ConnectionMachine())
	if err != nil {
		return err
	}
	eng.SetShards(s.shards)
	s.eng = eng
	return nil
}

func (s *scan) run() (boolcube.Stats, error) {
	elems := s.elems
	err := s.eng.Run(func(nd fabric.Node) {
		for d := nd.Dims() - 1; d >= 0; d-- {
			m := nd.Exchange(d, fabric.Msg{Data: nd.AllocData(elems)})
			nd.Recycle(m)
		}
	})
	st := s.eng.Stats()
	if err != nil {
		return st, err
	}
	if want := int64(s.n) << uint(s.n); st.Sends != want {
		return st, fmt.Errorf("scan n=%d: %d sends, want %d", s.n, st.Sends, want)
	}
	return st, nil
}

// runCube16 is the Connection Machine scale workload: op = one 65,536-node
// dimension-scan all-to-all (1,048,576 sends of 4 elements) straight on
// simnet.New + Run with automatic shards. There is nothing to prepare, so
// setup_s is the first op of the process: the one that grows the heap and
// the goroutine stacks to their working size. The seed does not reach this
// workload: the scan's payloads are pooled buffers whose contents the engine
// never reads.
func runCube16(e *env) (*measured, error) {
	m := newMeasured()
	s := &scan{n: sized(16, 6), elems: 4}
	key := fmt.Sprintf("cube16/scan%d", s.n)
	op := func(tr *tracer) error {
		defer func() { s.eng = nil }() // garbage before the next op's collection
		tr.beginOp("scan")
		defer tr.end()
		tr.begin("simnet.New")
		err := s.build()
		tr.end()
		if err != nil {
			return err
		}
		tr.begin("simnet.Run")
		st, err := s.run()
		tr.end()
		if err != nil {
			return err
		}
		m.simSends, m.simStartups, m.simTimeUs = st.Sends, st.Startups, st.Time
		return e.gold.check(key, st)
	}
	plain := func() error { return op(nil) }
	m.setups = append(m.setups, sec(m.one(plain)))
	if !e.traced() {
		m.timed(e.seconds, 2, plain)
		return m, nil
	}
	m.alternated(e.seconds/2, 1, plain, func() error { return op(e.tr) })
	// The retained engine footprint: live heap across construction and run,
	// with the finished engine still referenced.
	base := heapAlloc()
	if err := s.build(); err != nil {
		return nil, err
	}
	if _, err := s.run(); err != nil {
		return nil, err
	}
	if held := heapAlloc(); held > base {
		m.set("simnet.bytes_per_node.n16", float64(held-base)/float64(s.eng.Nodes()), "B")
	}
	return m, nil
}
