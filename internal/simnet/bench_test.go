package simnet

import (
	"runtime"
	"testing"

	"boolcube/internal/fabric"
	"boolcube/internal/machine"
)

// BenchmarkEngineExchange measures the host-side overhead of the
// baton-passing engine: one full dimension scan of exchanges on a 6-cube.
func BenchmarkEngineExchange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, err := New(6, machine.Ideal(machine.OnePort))
		if err != nil {
			b.Fatal(err)
		}
		err = e.Run(func(nd fabric.Node) {
			for d := 5; d >= 0; d-- {
				nd.Exchange(d, fabric.Msg{Data: make([]float64, 8)})
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// benchScan runs one SBnT-order dimension-scan all-to-all: every node
// exchanges a pooled payload with its neighbor across each of the n
// dimensions, high dimension first — the §4 single-path transpose schedule
// at engine level. shards is the SetShards argument (>= 1 forces that worker
// count, 0 is automatic).
func benchScan(b *testing.B, n, elems, passes, shards int, params machine.Params) *Engine {
	e, err := New(n, params)
	if err != nil {
		b.Fatal(err)
	}
	e.SetShards(shards)
	err = e.Run(func(nd fabric.Node) {
		for rep := 0; rep < passes; rep++ {
			for d := nd.Dims() - 1; d >= 0; d-- {
				m := nd.Exchange(d, fabric.Msg{Data: nd.AllocData(elems)})
				nd.Recycle(m)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkEngineCube10Sharded is the one-worker engine on a 10-cube (1024
// node) scan — the size class every experiment below the automatic
// threshold runs in (`go run ./bench` times it as simnet.serial_ms.n10).
func BenchmarkEngineCube10Sharded(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchScan(b, 10, 16, 2, 1, machine.ConnectionMachine())
	}
}

// BenchmarkEngineCube16SBnT is the Connection Machine scale deliverable: a
// full 16-cube (65,536 node) SBnT-order all-to-all dimension scan on the
// CM machine model, auto-sharded. Alongside ns/op it reports bytes/node —
// the retained per-node engine footprint (heap delta across construction
// and run, after GC), the memory-ceiling metric of ROADMAP item 5(c).
func BenchmarkEngineCube16SBnT(b *testing.B) {
	b.ReportAllocs()
	var before, after runtime.MemStats
	for i := 0; i < b.N; i++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		e := benchScan(b, 16, 4, 1, 0, machine.ConnectionMachine())
		runtime.GC()
		runtime.ReadMemStats(&after)
		if e.Stats().Sends != int64(1<<16)*16 {
			b.Fatalf("unexpected send count %d", e.Stats().Sends)
		}
	}
	if after.HeapAlloc > before.HeapAlloc {
		b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/float64(1<<16), "bytes/node")
	}
}

func BenchmarkEngineSpawn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, err := New(8, machine.Ideal(machine.NPort))
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Run(func(nd fabric.Node) {}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChecksum measures the always-on delivery-audit pass, which has to
// stay near memory speed.
func BenchmarkChecksum(b *testing.B) {
	data := make([]float64, 1024)
	for i := range data {
		data[i] = float64(i)
	}
	b.SetBytes(int64(len(data) * 8))
	for i := 0; i < b.N; i++ {
		benchSum = fabric.Checksum(data)
	}
}

var benchSum uint64
