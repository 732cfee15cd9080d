#!/bin/sh
# Pre-PR gate: everything a change must pass before it is committed.
# Run from the repository root (directly or as `make check`).
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go run ./cmd/cubevet ./..."
go run ./cmd/cubevet ./...

echo "==> go test ./..."
go test ./...

# Fuzz corpora in regression mode: replay the checked-in seeds (no fuzzing).
echo "==> go test -run '^Fuzz' (fuzz seed regression)"
go test -run '^Fuzz' ./internal/field/ ./internal/plan/ ./internal/cube/ ./internal/service/ ./internal/remap/ .

# Golden results: RESULTS.md is the committed output of the full experiment
# registry and every virtual-time figure in it is a fixed point — host-side
# changes must not move one. Regenerate and compare, leaving out the two
# tables that report wall-clock behaviour (the pair bench/sweep.go
# excludes). This run is also the smoke of every experiment, the fault,
# recovery and service sweeps included.
echo "==> experiments -all -format md vs RESULTS.md (golden)"
wallclock='/^### /{ skip = ($2 == "service-sweep" || $2 == "chaos-sweep") } !skip'
golden=$(mktemp)
trap 'rm -f "$golden"' EXIT
go run ./cmd/experiments -all -format md | awk "$wallclock" >"$golden"
if ! awk "$wallclock" RESULTS.md | diff - "$golden"; then
	echo "check: RESULTS.md differs from a fresh run; if the change is intended: go run ./cmd/experiments -all -parallel 8 -format md > RESULTS.md" >&2
	exit 1
fi

# Smoke the chaos sweep: k node crash-stops mid-run on both backends, every
# node-down failure recovered onto the survivors and verified element-exact.
# Gate on zero failed cells — crash-stop survival is an acceptance invariant.
echo "==> experiments -exp chaos-sweep (6-cube, both backends)"
go run ./cmd/experiments -exp chaos-sweep | awk '
	/^(SPT|DPT|MPT) / {
		rows++
		if ($6 + 0 != 0) {
			printf "check: chaos-sweep cell %s/%s k=%s has %s failed run(s)\n", $1, $2, $3, $6 > "/dev/stderr"
			bad = 1
		}
	}
	END {
		if (rows == 0) { print "check: chaos-sweep produced no rows" > "/dev/stderr"; exit 1 }
		if (bad) exit 1
		printf "check: chaos-sweep %d cells, zero failed runs\n", rows
	}'

# Resume determinism: the checkpoint/resume acceptance scenarios replayed
# twice — the resumed distribution must stay bit-identical to the unfaulted
# run on every repetition (plan-cache state must not leak into recovery).
# Link-fault resume, crash recovery and service rounds share one executor
# (core.RunTransfers), so the crash-recovery scenarios ride the same step.
echo "==> go test -run resume scenarios -count=2"
go test -run 'TestMPTResumeAfterMidRunLinkKills|TestExchangeResumeAfterMidRunKill|TestDeadlineAbortsAndResumes|TestRecoverAfterMidRunNodeCrash|TestRecoverSurvivesSecondKillDuringRecovery' -count=2 .

# Faulted soak: combined permanent + flaky faults on an 8-cube, replayed
# for determinism (part of the non-short suite; run explicitly here).
echo "==> go test -run TestSoakFaultedTranspose"
go test -run 'TestSoakFaultedTranspose' .

# Smoke the plan-cache benchmark pair (full measurement: `make bench`) and
# the address-arithmetic hot loops under every compile, Scatter and Verify.
echo "==> go test -bench plan split + address hot loops -benchtime=1x"
go test -run '^$' -bench 'BenchmarkTransposeOneShot$|BenchmarkTransposeCompiled$|BenchmarkProcOf$|BenchmarkLocalOf$|BenchmarkElementOf$|BenchmarkNewMoves$|BenchmarkScatterVerify$' -benchtime=1x . ./internal/field/ ./internal/plan/ ./internal/matrix/

# Connection Machine scale smoke: a full 12-cube (4096 node) all-to-all,
# one worker vs the automatic count, byte-identical Stats. The test skips
# itself under -short (so the race suite stays inside its timeout); run it
# loud here.
echo "==> go test -run TestCube12ShardedSmoke (12-cube sharded smoke)"
go test -run 'TestCube12ShardedSmoke' -count=1 ./internal/simnet/

# Engine bench smoke: regenerate BENCH_engine.json (10-cube row, 16-cube
# scale row, crossover rows, sweep wall-clock) and gate on the rows existing.
echo "==> scripts/bench_engine.sh (BENCH_COUNT=1x smoke)"
BENCH_COUNT=1x CUBE16_COUNT=1x ./scripts/bench_engine.sh
awk '/"cube16_ns_per_op"/ { c16 = 1 } /"bytes_per_node"/ { bpn = 1 } /"cm_crossover"/ { xo = 1 }
END {
	if (!c16 || !bpn || !xo) {
		print "check: BENCH_engine.json missing 16-cube scale row or crossover rows" > "/dev/stderr"
		exit 1
	}
	print "check: 16-cube row, bytes_per_node and cm_crossover rows present"
}' BENCH_engine.json

# Service bench: regenerate BENCH_service.json (mixed-burst throughput and
# latency percentiles, plus the identical-request batching pair) and gate
# on batching actually beating the unbatched control — the core throughput
# claim of the multi-tenant scheduler.
echo "==> scripts/bench_service.sh (BENCH_COUNT=1x smoke)"
BENCH_COUNT=1x ./scripts/bench_service.sh
awk -F'[:,]' '/"batched_speedup"/ {
	if ($2 + 0 <= 1.0) {
		printf "check: batching speedup %.2fx not above 1.0x — batched rounds regressed\n", $2 > "/dev/stderr"
		exit 1
	}
	printf "check: batching speedup %.2fx (> 1.0x gate)\n", $2
}' BENCH_service.json

# Backend parity smoke: the same compiled plans replayed on the simnet
# simulation and the livenet goroutine transport must agree element-exactly
# and on logical stats, including the checkpoint/resume round-trip.
echo "==> go test -run TestBackendParity -short (backend parity smoke)"
go test -run 'TestBackendParity' -short -count=1 .

# Fabric bench: regenerate BENCH_fabric.json (simnet host + virtual time vs
# livenet wall-clock on the compiled 8-cube SBnT plan) and gate on the
# artifact existing — a PR must not land without the backend comparison.
echo "==> scripts/bench_fabric.sh (BENCH_COUNT=1x smoke)"
BENCH_COUNT=1x ./scripts/bench_fabric.sh
test -s BENCH_fabric.json || {
	echo "check: BENCH_fabric.json missing or empty" >&2
	exit 1
}

# -short skips the exper figure sweeps, which exceed the per-package test
# timeout under the race detector; they exercise no concurrency the short
# suite doesn't. `make race` runs the full sweep with a raised timeout.
echo "==> go test -race -short ./... (SIMNET_DEBUG=1)"
SIMNET_DEBUG=1 go test -race -short ./...

echo "check: all gates passed"
