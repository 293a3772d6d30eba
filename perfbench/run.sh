#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root. Everything the build and the run write stays under
# <root>/.bench_build: the Go build cache, the binary, the per-run temp
# directory (removed before exit) and the span files of traced runs.
#
#   bash perfbench/run.sh --workload cold-batch --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
# The commit is recorded when the checkout is a git work tree of its own.
if commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null)"; then
	export PERFBENCH_COMMIT="$commit"
fi
cd "$root"
exec "$out/perfbench" "$@"
