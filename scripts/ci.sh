#!/bin/sh
# CI gate: formatting (gofmt -l must list no file), vet, the schedlint
# static-analysis suite — all nine passes (zero-alloc, arena-lifetime,
# guarded-field, benchmark-hygiene, lock-order, atomic-field,
# condvar-loop, cancellation-poll and panic-safety invariants) in strict
# mode, which also fails on stale //sched:lint-ignore suppressions; see
# DESIGN.md §7 — build, vet and
# tests of the separate perfbench module (the root build never
# compiles it, so an engine API change could break the benchmark
# unnoticed), then the full test suite under the race detector.
#
# Each correctness gate is a Go test, and the race step runs every one
# of them once: the oracle gate (TestPipelineMatchesOracles: the
# engine's schedules at eight workers checked against the scoreboard
# simulator and verify's legality, timing and width checks over the
# mixed, chaos and giant-block corpora, and the branch-and-bound
# optimum on small blocks), the packed-selection identity
# gate (TestPackedSelMatchesWinnow: every block's order and cycles
# from the packed-priority heap byte-identical to an engine whose
# selectors hide their ranking and so winnow; DESIGN.md §12), the chaos gate
# (TestEngineChaosLadder and TestEngineChaosDeterminism: a seeded fault
# plan at an 8-worker pool, every block byte-identical to a fault-free
# run; DESIGN.md §9), the streaming gates (TestRunStream*,
# TestStreamHistogram and internal/synth's and internal/asm's stream
# and scanner equivalence tests; DESIGN.md §6 and §10), the
# persistent-cache gates (internal/diskcache and the engine's TestDisk*;
# DESIGN.md §11) and the service gate (TestSmokeScheddWarmRestart: a
# schedd daemon over the Table 3 corpus, every response byte-identical
# to a cache-disabled reference, through kill -9, SIGTERM drain and a
# garbage-filled cache file; DESIGN.md §11 and §13). Only the stress
# runs repeat a test: the cache-enabled determinism test at count=3
# (eight workers racing lookups, first-wins inserts and shard resets)
# and the concurrent-caller hammer at count=10 (Run, cancelled RunCtx
# and RunStream racing on one two-tier-cache engine, then Close; and
# TestRunStreamFaultedMatchesRun, whose faults quarantine workers in
# the middle of a claimed chunk).
#
# Then the perf gate (perfbench run three times over all three
# workloads, the per-metric medians compared against the committed
# BENCH_perfbench.ndjson baseline under BENCHMARK.json's end-to-end
# bounds, with a self-test first proving the gate catches a metric
# worsened past its bound, an extra failed operation, an incorrect
# result and a dropped metric), short native-fuzz smokes over the
# build→schedule→gate pipeline, over the assembly scanner (checked
# block for block against Parse + Partition) and over the daemon's
# response renderer (checked byte for byte against encoding/json), and
# one-iteration
# benchmark smoke runs over the engine, DAG-builder, heuristic and
# scanner benchmarks that check the zero-allocation steady state.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt: these files need formatting:"
    echo "$unformatted"
    exit 1
fi

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

echo "== engine cache determinism stress (workers=8, -race, count=3)"
go test -race -run '^TestEngineCacheDeterminism$' -count 3 ./internal/engine

echo "== concurrent-caller stress (-race, count=10)"
go test -race -run '^TestEngineConcurrentCallers$|^TestCloseDuringRunStreamBusy$|^TestCloseDuringRunBusy$|^TestRunStreamFaultedMatchesRun$' -count 10 ./internal/engine

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

echo "== response renderer fuzz smoke (10s)"
go test -fuzz '^FuzzRenderMatchesJSON$' -fuzztime 10s -run '^$' ./internal/server

echo "== engine bench smoke"
go test -run '^$' -bench Engine -benchmem -benchtime 1x .

echo "== dag/heur/sched/asm bench smoke"
go test -run '^$' -bench . -benchmem -benchtime 1x ./internal/dag ./internal/heur ./internal/sched ./internal/asm
