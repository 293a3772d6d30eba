#!/bin/sh
# CI gate: vet, the schedlint static-analysis suite — all nine passes
# (zero-alloc, arena-lifetime, guarded-field, benchmark-hygiene,
# lock-order, atomic-field, condvar-loop, cancellation-poll and
# panic-safety invariants) in strict mode, which also fails on stale
# //sched:lint-ignore suppressions; see DESIGN.md §7 — build, vet and
# tests of the separate perfbench module (the root build never
# compiles it, so an engine API change could break the benchmark
# unnoticed), the full test suite under the race detector
# (which exercises the batch engine's 8-worker determinism test for
# data races between worker arenas), the cache-enabled determinism
# test re-run under -race at count=3 (eight workers racing lookups,
# first-wins inserts and shard resets against a shared schedule
# cache), the adaptive-dispatch identity gate (byte-identical
# schedules from the adaptive and fixed pipelines at eight workers,
# under -race), the packed-selection identity gate (byte-identical
# schedules from the packed-priority heap engine and the winnowing
# rescan at 1/4/8 workers including a faulted run, under -race; see
# DESIGN.md §12), the chaos gate (a seeded fault plan firing builder
# panics, arc corruptions, cache bitflips and stalls at an 8-worker
# pool under -race, over a synthetic corpus and Table 3's grep set,
# with every block required to come back byte-identical to a
# fault-free run; see DESIGN.md §9), the streaming
# gates (RunStream byte-identity to batch at several worker counts,
# cancellation, faulted streams and the bounded-memory test, all under
# -race, the concurrent-caller hammer — Run, cancelled RunCtx and
# RunStream racing on one two-tier-cache engine at 2 and 8 workers,
# then Close — at count=10, plus producer/scanner equivalence tests;
# see DESIGN.md §6 and §10),
# the persistent-cache gates (the diskcache crash-recovery/corruption
# suite and the engine's two-tier tests at eight workers under -race;
# see DESIGN.md §11),
# the service gate (TestSmokeScheddWarmRestart: a schedd daemon over
# the Table 3 corpus with every response byte-identical to a local
# cache-disabled reference, then kill -9 with requests in flight, a
# restart on the same cache file that must serve warm — hit rate ≥ 0.9,
# some straight from the persistent tier — a SIGTERM that must drain
# and exit 0, a second restart that must serve ≥ 0.99, and a restart
# over a garbage-filled file that must still answer every request;
# see DESIGN.md §11 and §13),
# the perf gate (perfbench run three times over all three workloads,
# the per-metric medians compared against the committed
# BENCH_perfbench.ndjson baseline under BENCHMARK.json's end-to-end
# bounds, with a self-test first proving the gate catches a metric
# worsened past its bound, an extra failed operation, an incorrect
# result and a dropped metric), short native-fuzz smokes over the
# build→schedule→gate pipeline and over the assembly scanner (checked
# block for block against Parse + Partition), and one-iteration
# benchmark smoke runs over the engine, DAG-builder, heuristic and
# scanner benchmarks that check the zero-allocation steady state.
set -eu

cd "$(dirname "$0")/.."

echo "== go vet"
go vet ./...

echo "== schedlint (strict, all nine passes)"
go run ./cmd/schedlint -strict -stats ./...

echo "== go build"
go build ./...

echo "== perfbench module (vet, test)"
(cd perfbench && go vet ./... && go test ./...)

echo "== go test -race"
go test -race ./...

echo "== engine cache determinism (workers=8, -race)"
go test -race -run '^TestEngineCacheDeterminism$' -count 3 ./internal/engine

echo "== adaptive dispatch identity (workers=8, -race)"
go test -race -run '^TestAdaptiveMatchesFixed$' ./internal/engine

echo "== packed-selection identity (workers=8, -race)"
go test -race -run '^TestPackedSelMatchesWinnow$' ./internal/engine

echo "== chaos gate (workers=8, -race)"
go test -race -run '^TestEngineChaosLadder$|^TestEngineChaosDeterminism$' ./internal/engine

echo "== streaming gates (-race)"
go test -race -run '^TestRunStream|^TestStreamHistogram' ./internal/engine
go test -race -run '^TestEngineConcurrentCallers$|^TestCloseDuringRunStreamBusy$|^TestCloseDuringRunBusy$' -count 10 ./internal/engine
go test -race -run '^TestStream|^TestGeneratePass|^TestCorpusDeterminismPin' ./internal/synth
go test -race -run '^TestScanner|^TestStreamBlocks' ./internal/asm

echo "== persistent cache gates (workers=8, -race)"
go test -race ./internal/diskcache
go test -race -run '^TestDisk' ./internal/engine

echo "== service gates (schedd: identity, kill -9 warm restart, drain, corrupt file)"
go test -race -run '^TestSmokeScheddWarmRestart$' .

echo "== perf gate (perfbench, median of 3 runs vs BENCH_perfbench.ndjson)"
SBENCH_BIN="$(mktemp -u)"
trap 'rm -f "${SBENCH_BIN:-}" "${PERF_LINES:-}"' EXIT
go build -o "$SBENCH_BIN" ./cmd/schedbench
# The invocation here and the one that recorded the baseline must match
# (README, "Benchmarks").
"$SBENCH_BIN" -diffselftest
# CPU steal is time the hypervisor gave other guests. The baseline is
# a fixed record, so a failure under heavy steal may be the host's
# load rather than the code: rerun, or compare with the parent commit.
steal() { awk '/^cpu /{print $9}' /proc/stat; }
PERF_T0=$(date +%s)
PERF_S0=$(steal)
PERF_LINES="$(mktemp)"
for _ in 1 2 3; do
    out="$(bash perfbench/run.sh --workload all --seed 1 --seconds 4 --trace 0)"
    printf '%s\n' "$out" | tail -n 1 >> "$PERF_LINES"
done
PERF_T=$(($(date +%s) - PERF_T0))
echo "perf runs: ${PERF_T}s, CPU steal $(( ($(steal) - PERF_S0) * 100 / (PERF_T * $(getconf CLK_TCK) * $(nproc)) ))%"
"$SBENCH_BIN" -diff "$PERF_LINES"
rm -f "$PERF_LINES"

echo "== fuzz smoke (30s)"
go test -fuzz '^FuzzBuildSchedule$' -fuzztime 30s -run '^$' ./internal/engine

echo "== scanner fuzz smoke (20s)"
go test -fuzz '^FuzzBlockScanner$' -fuzztime 20s -run '^$' ./internal/asm

echo "== engine bench smoke"
go test -run '^$' -bench Engine -benchmem -benchtime 1x .

echo "== dag/heur/sched/asm bench smoke"
go test -run '^$' -bench . -benchmem -benchtime 1x ./internal/dag ./internal/heur ./internal/sched ./internal/asm
