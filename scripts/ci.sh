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
# pool under -race, with every block required to come back
# byte-identical to a fault-free run; see DESIGN.md §9), the streaming
# gates (RunStream byte-identity to batch at several worker counts,
# cancellation, faulted streams and the bounded-memory test, all under
# -race, the concurrent-caller hammer — Run, cancelled RunCtx and
# RunStream racing on one two-tier-cache engine at 2 and 8 workers,
# then Close — at count=10, plus producer/scanner equivalence tests;
# see DESIGN.md §6 and §10),
# the persistent-cache gates (the diskcache crash-recovery/corruption
# suite and the engine's two-tier tests at eight workers under -race,
# a two-process warm-start proof — one schedbench populates a cache
# file, a second must serve ≥99% of the corpus from it with schedules
# byte-identical to a cache-disabled reference — and a corrupt-file
# smoke that overwrites the file with garbage and requires the next
# run to recover by rebuilding it; see DESIGN.md §11),
# the service gates (a schedd daemon under schedbench -serve load:
# every response proven byte-identical to a local cache-disabled
# reference, then kill -9 with requests in flight, a restart on the
# same cache file that must serve warm — hit rate ≥ 0.9 straight from
# the persistent tier — and still byte-identical, and a SIGTERM that
# must drain and exit 0; see DESIGN.md §13),
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

# schedbench is built once and reused by the chaos, cache-file,
# service and perf gates.
SBENCH_BIN="$(mktemp -u)"
trap 'rm -f "${SBENCH_BIN:-}" "${CACHE_FILE:-}" "${SCHEDD_BIN:-}" "${SERVE_CACHE:-}" "${SCHEDD_LOG:-}" "${PERF_LINES:-}"; [ -n "${SCHEDD_PID:-}" ] && kill -9 "$SCHEDD_PID" 2> /dev/null || true' EXIT
go build -o "$SBENCH_BIN" ./cmd/schedbench

echo "== chaos gate (workers=8, -race)"
go test -race -run '^TestEngineChaosLadder$|^TestEngineChaosDeterminism$' ./internal/engine
"$SBENCH_BIN" -chaos -bench grep -workers 8

echo "== streaming gates (-race)"
go test -race -run '^TestRunStream|^TestStreamHistogram' ./internal/engine
go test -race -run '^TestEngineConcurrentCallers$|^TestCloseDuringRunStreamBusy$|^TestCloseDuringRunBusy$' -count 10 ./internal/engine
go test -race -run '^TestStream|^TestGeneratePass|^TestCorpusDeterminismPin' ./internal/synth
go test -race -run '^TestScanner|^TestStreamBlocks' ./internal/asm

echo "== persistent cache gates (workers=8, -race)"
go test -race ./internal/diskcache
go test -race -run '^TestDisk' ./internal/engine
CACHE_FILE="$(mktemp -u).schedcache"
# Process 1 populates the file cold; process 2 must warm-start from it.
"$SBENCH_BIN" -cachefile "$CACHE_FILE" -workers 8 > /dev/null
"$SBENCH_BIN" -cachefile "$CACHE_FILE" -workers 8 -warmexpect 0.99 > /dev/null
# Corrupt-file smoke: garbage where the cache was must not break a run.
dd if=/dev/urandom of="$CACHE_FILE" bs=4096 count=4 conv=notrunc 2> /dev/null
"$SBENCH_BIN" -cachefile "$CACHE_FILE" -workers 8 > /dev/null
rm -f "$CACHE_FILE"

echo "== service gates (schedd: identity, kill -9 warm restart, drain)"
SCHEDD_BIN="$(mktemp -u)"
SERVE_CACHE="$(mktemp -u).schedcache"
SCHEDD_LOG="$(mktemp)"
go build -o "$SCHEDD_BIN" ./cmd/schedd
# schedd_url: wait for the daemon's listen line and echo its URL.
schedd_url() {
    for _ in $(seq 100); do
        addr="$(sed -n 's/^schedd: listening on //p' "$1" | head -n 1)"
        if [ -n "$addr" ]; then echo "http://$addr"; return 0; fi
        sleep 0.1
    done
    echo "schedd never printed its listen line" >&2
    return 1
}
# Phase 1: a cold daemon populates the cache file while every response
# is proven byte-identical to a local cache-disabled reference engine.
"$SCHEDD_BIN" -addr 127.0.0.1:0 -cachefile "$SERVE_CACHE" > "$SCHEDD_LOG" 2>&1 &
SCHEDD_PID=$!
SCHEDD_URL="$(schedd_url "$SCHEDD_LOG")"
"$SBENCH_BIN" -serve "$SCHEDD_URL" -model super2 -serverate 60 -serveduration 2s \
    -servecheck > /dev/null
sleep 1 # let the disk tier's background flusher drain
# Phase 2: kill -9 with requests in flight. The interrupted generator
# is expected to fail; what matters is the daemon dies mid-load.
"$SBENCH_BIN" -serve "$SCHEDD_URL" -model super2 -serverate 60 -serveduration 5s \
    > /dev/null 2>&1 &
LOAD_PID=$!
sleep 1
kill -9 "$SCHEDD_PID"
wait "$LOAD_PID" 2> /dev/null || true
# Phase 3: a restart on the same file must serve warm — hit rate ≥ 0.9
# with blocks straight from the persistent tier — and byte-identical.
: > "$SCHEDD_LOG"
"$SCHEDD_BIN" -addr 127.0.0.1:0 -cachefile "$SERVE_CACHE" > "$SCHEDD_LOG" 2>&1 &
SCHEDD_PID=$!
SCHEDD_URL="$(schedd_url "$SCHEDD_LOG")"
"$SBENCH_BIN" -serve "$SCHEDD_URL" -model super2 -serverate 60 -serveduration 2s \
    -servewarm 0.9 -servecheck > /dev/null
# Phase 4: SIGTERM must drain gracefully and exit 0.
kill -TERM "$SCHEDD_PID"
wait "$SCHEDD_PID"
SCHEDD_PID=""
rm -f "$SCHEDD_BIN" "$SERVE_CACHE" "$SCHEDD_LOG"

echo "== perf gate (perfbench, median of 3 runs vs BENCH_perfbench.ndjson)"
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
