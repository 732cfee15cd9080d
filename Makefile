# Development entry points. `make check` is the pre-PR gate: it must pass
# before any change is committed (see CHANGES.md for the convention).

GO ?= go

.PHONY: build test race vet cubevet check bench loc profile-engine profile-sweep

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 30m ./...

vet:
	$(GO) vet ./...

# Repo-specific invariants no test observes: shift widths, library error
# discipline, determinism, mediated goroutine writes. See internal/analysis
# and `go run ./cmd/cubevet -list`.
cubevet:
	$(GO) run ./cmd/cubevet ./...

check:
	./scripts/check.sh

# The benchmark: five end-to-end workloads and the per-layer probes (see
# bench/README.md and BENCHMARK.json).
bench:
	$(GO) run ./bench

# Line counts of the tracked Go sources, the one way every size figure in
# ROADMAP.md and CHANGES.md is taken: non-test code (outside bench/, the
# fabrictest contract package and testdata/ fixtures), tests (outside
# bench/), and the benchmark harness under bench/.
loc:
	@echo "non-test $$(git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^bench/' -e '^internal/fabric/fabrictest/' -e 'testdata/' | xargs cat | wc -l)"
	@echo "test     $$(git ls-files '*_test.go' | grep -v '^bench/' | xargs cat | wc -l)"
	@echo "bench    $$(git ls-files 'bench/*.go' | xargs cat | wc -l)"

# CPU and heap profiles of the 16-cube all-to-all (inspect with `go tool
# pprof`); cmd/experiments takes the same -cpuprofile/-memprofile flags for
# individual experiments.
profile-engine:
	mkdir -p profiles
	$(GO) test -run '^$$' -bench 'BenchmarkEngineCube16SBnT$$' -benchtime 2x -cpuprofile profiles/cube16_cpu.pprof -memprofile profiles/cube16_mem.pprof -o profiles/simnet.test ./internal/simnet/

# CPU and heap profiles of the full experiment registry, the `sweep`
# workload's op (`go tool pprof -top profiles/sweep_cpu.pprof`). The heap
# profile is taken at exit, so its inuse_space is what the plan cache
# retains (`go tool pprof -sample_index=inuse_space -top
# profiles/sweep_mem.pprof`).
profile-sweep:
	mkdir -p profiles
	$(GO) run ./cmd/experiments -all -cpuprofile profiles/sweep_cpu.pprof -memprofile profiles/sweep_mem.pprof >/dev/null
