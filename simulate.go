package boolcube

import (
	"boolcube/internal/fabric"
	"boolcube/internal/simnet"
)

// Node is a processor handle inside a running program: Send, Recv,
// Exchange, Copy and Advance operations advance the node's clock under the
// machine model. It is the backend-neutral fabric.Node interface — the
// same program runs on the simulation or on a live transport. See Simulate.
type Node = fabric.Node

// Msg is a message between processors.
type Msg = fabric.Msg

// Backends lists the registered fabric backend names, sorted — "simnet"
// (the default deterministic simulation) and "livenet" (the real
// goroutine-per-node transport). Select one with Options.Backend or
// ExecOptions.Backend.
func Backends() []string { return fabric.Backends() }

// BackendCapabilities returns what a registered backend promises
// (determinism, virtual time, fault injection, tracing); ok is false for
// unknown names. The empty name reports on the default backend.
func BackendCapabilities(name string) (caps fabric.Capabilities, ok bool) {
	return fabric.Caps(name)
}

// UnknownBackendError is the typed error a run returns when Options.Backend
// names a backend nothing registered.
type UnknownBackendError = fabric.UnknownBackendError

// Simulate runs prog on every node of an n-cube under the machine model
// and returns the simulated cost. This is the substrate all the library's
// algorithms run on; it is exposed so custom hypercube algorithms can be
// written and measured directly:
//
//	stats, err := boolcube.Simulate(3, boolcube.IPSC(), func(nd boolcube.Node) {
//		m := nd.Exchange(0, boolcube.Msg{Data: []float64{float64(nd.ID())}})
//		_ = m
//	})
//
// Runs are deterministic: identical programs produce identical stats.
func Simulate(n int, mach Machine, prog func(Node)) (Stats, error) {
	e, err := simnet.New(n, orIPSC(mach))
	if err != nil {
		return Stats{}, err
	}
	if err := e.Run(prog); err != nil {
		return Stats{}, err
	}
	return e.Stats(), nil
}
