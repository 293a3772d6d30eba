GO ?= go

.PHONY: all build vet lint test race bench-smoke bench ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-specific static analysis: the nine-pass schedlint suite
# enforces the //sched:noalloc, arena-lifetime, //sched:guarded-by,
# b.ReportAllocs(), //sched:lock-rank, atomic-field, //sched:signals,
# //sched:cancellable and //sched:recover-boundary invariants (see
# DESIGN.md §7). -strict also fails on stale //sched:lint-ignore
# suppressions; -stats prints per-pass finding counts and wall time.
# Non-zero exit on any finding.
lint:
	$(GO) run ./cmd/schedlint -strict -stats ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short engine benchmark pass, 30 batches per row (about a second):
# the single-worker rows must read 0 allocs/op, that is fewer than one
# allocation per batch over the 30. A warm batch is not always exactly
# allocation-free: now and then resource.Table's memory-interning map
# rehashes (2 allocations, ~9.5 KB), so a one-batch row can read 1-3
# allocs/op.
bench-smoke:
	$(GO) test -run '^$$' -bench Engine -benchmem -benchtime 30x .

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

ci:
	sh scripts/ci.sh
