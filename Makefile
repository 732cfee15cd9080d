# Development entry points. `make check` is the pre-PR gate: it must pass
# before any change is committed (see CHANGES.md for the convention).

GO ?= go

.PHONY: build test race vet cubevet check bench bench-engine bench-fabric bench-service profile-engine

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 30m ./...

vet:
	$(GO) vet ./...

# Repo-specific invariants: simnet node-program captures, shift widths,
# library error discipline, determinism. See internal/analysis and
# `go run ./cmd/cubevet -list`.
cubevet:
	$(GO) run ./cmd/cubevet ./...

check:
	./scripts/check.sh

# Compile/execute split: one-shot Transpose vs cached-plan replay on the
# repeated 8-cube transpose. Writes BENCH_plan.json.
bench:
	./scripts/bench_plan.sh

# Engine hot path: the one-worker engine on a 10-cube, the 16-cube scale
# row, the Section 9 CM crossover rows, plus the full experiment-sweep
# wall-clock. Writes BENCH_engine.json.
bench-engine:
	./scripts/bench_engine.sh

# bench-engine with CPU and heap profiles of the 16-cube benchmark written
# to profiles/cube16_{cpu,mem}.pprof (inspect with `go tool pprof`); the
# cmd/experiments binary takes the same -cpuprofile/-memprofile flags for
# profiling individual experiments.
profile-engine:
	ENGINE_PROFILE=profiles ./scripts/bench_engine.sh

# Fabric backends: the same compiled 8-cube SBnT all-to-all plan on the
# simnet simulation (host + virtual time) and on the livenet
# goroutine-per-node transport (real wall-clock). Writes BENCH_fabric.json.
bench-fabric:
	./scripts/bench_fabric.sh

# Multi-tenant service: mixed concurrent burst throughput/latency plus the
# identical-request batching speedup. Writes BENCH_service.json.
bench-service:
	./scripts/bench_service.sh
