#!/bin/sh
# Pre-PR gate: everything a change must pass before it is committed.
# Run from the repository root (directly or as `make check`).
set -eu

cd "$(dirname "$0")/.."

# The gate leaves the work tree as it found it: no step may rewrite a
# tracked file or drop an unignored one. Fingerprint it now, compare at the
# end (in a clean checkout this is `git diff --exit-code`).
worktree() { { git status --porcelain; git diff --binary HEAD; } 2>/dev/null | cksum; }
before=$(worktree)

echo "==> go build ./..."
go build ./...

# Every example is a self-verifying demo: run each main, fail on nonzero exit.
for ex in examples/*/; do
	echo "==> go run ./$ex"
	go run "./$ex" >/dev/null
done

echo "==> go vet ./..."
go vet ./...

echo "==> go run ./cmd/cubevet ./..."
go run ./cmd/cubevet ./...

# This also replays every Fuzz target's seeds and testdata/fuzz corpus in
# regression mode (no fuzzing), in every package.
echo "==> go test ./..."
go test ./...

# Golden results: RESULTS.md is the committed output of the full experiment
# registry and every virtual-time figure in it is a fixed point — host-side
# changes must not move one. Regenerate once and compare, leaving out the two
# tables that report wall-clock behaviour (the pair bench/sweep.go
# excludes). This run is also the smoke of every experiment, the fault,
# recovery and service sweeps included.
echo "==> experiments -all -format md vs RESULTS.md (golden)"
wallclock='/^### /{ skip = ($2 == "service-sweep" || $2 == "chaos-sweep") } !skip'
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/experiments -all -format md >"$tmp/all.md"
awk "$wallclock" "$tmp/all.md" >"$tmp/fresh.md"
if ! awk "$wallclock" RESULTS.md | diff - "$tmp/fresh.md"; then
	echo "check: RESULTS.md differs from a fresh run; if the change is intended: go run ./cmd/experiments -all -parallel 8 -format md > RESULTS.md" >&2
	exit 1
fi

# The chaos sweep, read from the same run (the golden diff filters its table
# out): k node crash-stops mid-run on both backends, every node-down failure
# recovered onto the survivors and verified element-exact. Gate on zero
# failed cells — crash-stop survival is an acceptance invariant.
echo "==> chaos-sweep section of that run (6-cube, both backends): zero failed cells"
awk '
	/^### / { chaos = ($2 == "chaos-sweep") }
	chaos && /^\| (SPT|DPT|MPT) \|/ {
		# | algorithm | backend | k | direct | recovered | failed | ...
		rows++
		if ($12 + 0 != 0) {
			printf "check: chaos-sweep cell %s/%s k=%s has %s failed run(s)\n", $2, $4, $6, $12 > "/dev/stderr"
			bad = 1
		}
	}
	END {
		if (rows == 0) { print "check: chaos-sweep produced no rows" > "/dev/stderr"; exit 1 }
		if (bad) exit 1
		printf "check: chaos-sweep %d cells, zero failed runs\n", rows
	}' "$tmp/all.md"

# Resume determinism: the checkpoint/resume acceptance scenarios replayed
# twice — the resumed distribution must stay bit-identical to the unfaulted
# run on every repetition (plan-cache state must not leak into recovery).
# Link-fault resume, crash recovery and service rounds share one executor
# (core.RunTransfers), so the crash-recovery scenarios ride the same step.
# The registry contract suite cuts every row at every operation end of its
# clean run, kills a link and crashes a node mid-run (inside the second
# phase of a three-phase conversion), on both backends, and checks each
# checkpoint's delivery record and finish against the clean result.
echo "==> go test -run resume scenarios -count=2"
go test -run 'TestMPTResumeAfterMidRunLinkKills|TestDeadlineAbortsAndResumes|TestRecoverAfterMidRunNodeCrash|TestRecoverSurvivesSecondKillDuringRecovery|TestContract' -count=2 . ./internal/core/

# Faulted soak: combined permanent + flaky faults on an 8-cube, replayed
# for determinism (part of the non-short suite; run explicitly here).
echo "==> go test -run TestSoakFaultedTranspose"
go test -run 'TestSoakFaultedTranspose' .

# Keep the Go micro-benchmarks compiling and running (measurement is `go run
# ./bench`): the compiled replay, the exchange executor, the backend and
# service pairs, and the address-arithmetic hot loops under every compile, the
# move-set build and its Gather/Scatter replay, the plan price, Scatter and
# Verify, the ground-truth transpose, the cut-through scheduler and the simnet
# engine (a 6-cube exchange scan and the one-worker 10-cube scan).
echo "==> go test -bench replay + exchange executor + backends + service + address hot loops + price + engine -benchtime=1x"
go test -run '^$' -bench 'BenchmarkTransposeReplay$|BenchmarkExchangeCheckpointed$|BenchmarkFabric|BenchmarkService|BenchmarkProcOf$|BenchmarkLocalOf$|BenchmarkElementOf$|BenchmarkNewMoves$|BenchmarkMovesReplay$|BenchmarkPrice$|BenchmarkScatterVerify$|BenchmarkTransposed$|BenchmarkCutThrough$|BenchmarkEngineExchange$|BenchmarkEngineCube10Sharded$' -benchtime=1x . ./internal/core/ ./internal/field/ ./internal/plan/ ./internal/matrix/ ./internal/router/ ./internal/simnet/

# Connection Machine scale smoke: a full 12-cube (4096 node) all-to-all,
# one worker vs the automatic count, byte-identical Stats. The test skips
# itself under -short (so the race suite stays inside its timeout); run it
# loud here.
echo "==> go test -run TestCube12ShardedSmoke (12-cube sharded smoke)"
go test -run 'TestCube12ShardedSmoke' -count=1 ./internal/simnet/

# -short skips the exper figure sweeps, which exceed the per-package test
# timeout under the race detector. `make race` runs the full sweep with a
# raised timeout.
echo "==> go test -race -short ./... (SIMNET_DEBUG=1)"
SIMNET_DEBUG=1 go test -race -short ./...

# Three of the skipped sweeps run concurrency the short suite reaches nowhere
# else: the exper.Par cells of fault-sweep and recovery-sweep, and the
# service sweep's per-job goroutines. Race-run those three alone.
echo "==> go test -race fault, recovery and service sweeps (SIMNET_DEBUG=1)"
SIMNET_DEBUG=1 go test -race -count=1 -run 'TestAllExperimentsGenerate/(fault-sweep|recovery-sweep|service-sweep)$' ./internal/exper/

echo "==> work tree unchanged by the gate"
if [ "$(worktree)" != "$before" ]; then
	echo "check: a gate step modified the work tree:" >&2
	git status --short >&2
	exit 1
fi

echo "check: all gates passed"
