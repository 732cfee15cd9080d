#!/bin/sh
# Benchmark the simnet engine hot path: the one-worker engine on a 10-cube
# all-to-all, the Connection Machine scale 16-cube (65,536 node) SBnT
# all-to-all with its retained bytes/node footprint, plus the wall-clock of
# the full experiment sweep (`go run ./cmd/experiments -all`) and the
# Section 9 CM crossover rows. Emits BENCH_engine.json in the repository root.
#
# sweep_baseline_s is the measured wall-clock of the serial sweep at the
# scheduler's introduction (linear scan, no pooling, serial harness) on the
# reference machine; regenerating the file re-times only the current sweep.
#
# Environment:
#   BENCH_COUNT     -benchtime for the 10-cube benchmark (default 10x)
#   CUBE16_COUNT    -benchtime for the 16-cube benchmark (default 2x; it
#                   runs ~5 s per iteration)
#   ENGINE_PROFILE  when set to a directory, also writes cube16_cpu.pprof and
#                   cube16_mem.pprof profiles of the 16-cube benchmark there
set -eu

cd "$(dirname "$0")/.."

COUNT="${BENCH_COUNT:-10x}"
CUBE16="${CUBE16_COUNT:-2x}"
OUT=BENCH_engine.json
BASELINE_S=61.4

echo "==> 10-cube all-to-all, one worker ($COUNT)"
shraw=$(go test -run '^$' -bench 'BenchmarkEngineCube10Sharded$' \
	-benchmem -benchtime "$COUNT" ./internal/simnet/)
echo "$shraw"

echo "==> 16-cube SBnT all-to-all (65,536 nodes, $CUBE16)"
PROF_ARGS=""
if [ -n "${ENGINE_PROFILE:-}" ]; then
	mkdir -p "$ENGINE_PROFILE"
	PROF_ARGS="-cpuprofile $ENGINE_PROFILE/cube16_cpu.pprof -memprofile $ENGINE_PROFILE/cube16_mem.pprof"
	echo "    (profiles -> $ENGINE_PROFILE/cube16_{cpu,mem}.pprof)"
fi
c16raw=$(go test -run '^$' -bench 'BenchmarkEngineCube16SBnT$' \
	-benchmem -benchtime "$CUBE16" $PROF_ARGS ./internal/simnet/)
echo "$c16raw"

echo "==> timing cmd/experiments -all"
t0=$(date +%s.%N)
go run ./cmd/experiments -all >/dev/null
t1=$(date +%s.%N)
sweep=$(awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.1f", b - a }')
echo "sweep wall-clock: ${sweep}s (baseline ${BASELINE_S}s)"

echo "==> cm-crossover rows (Section 9 on the CM)"
xover=$(go run ./cmd/experiments -exp cm-crossover -format csv)

printf '%s\n%s\n@@CROSSOVER@@\n%s\n' "$shraw" "$c16raw" "$xover" | \
awk -v out="$OUT" -v sweep="$sweep" -v base="$BASELINE_S" '
	/^BenchmarkEngineCube10Sharded/ { shard = $3 }
	/^BenchmarkEngineCube16SBnT/ {
		c16 = $3
		for (i = 2; i <= NF; i++) if ($i == "bytes/node") bpn = $(i - 1)
	}
	/^@@CROSSOVER@@$/ { inx = 1; next }
	inx {
		if (++xline == 1) next # skip the csv header
		if (NF == 0) next
		nrows++
		split($0, c, ",")
		rows[nrows] = sprintf("    {\"n\": %s, \"procs\": %s, \"model_1d_ms\": %s, \"model_2d_ms\": %s, \"sim_1d_ms\": \"%s\", \"sim_2d_ms\": \"%s\", \"winner_model\": \"%s\", \"winner_sim\": \"%s\"}",
			c[1], c[2], c[4], c[5], c[6], c[7], c[8], c[9])
	}
	END {
		if (shard == "" || c16 == "" || bpn == "" || nrows == 0) {
			print "bench_engine: missing benchmark output" > "/dev/stderr"
			exit 1
		}
		printf "{\n" > out
		printf "  \"cube10_sharded_ns_per_op\": %s,\n", shard >> out
		printf "  \"cube16_ns_per_op\": %s,\n", c16 >> out
		printf "  \"bytes_per_node\": %s,\n", bpn >> out
		printf "  \"sweep_wallclock_s\": %s,\n", sweep >> out
		printf "  \"sweep_baseline_s\": %s,\n", base >> out
		printf "  \"sweep_speedup\": %.2f,\n", base / sweep >> out
		printf "  \"cm_crossover\": [\n" >> out
		for (i = 1; i <= nrows; i++)
			printf "%s%s\n", rows[i], (i < nrows ? "," : "") >> out
		printf "  ]\n" >> out
		printf "}\n" >> out
	}
'
echo "wrote $OUT:"
cat "$OUT"
