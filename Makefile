# Developer entry points. The module is stdlib-only; plain `go build`,
# `go test`, and `go run` work everywhere — these targets just name the
# common flows.

GO ?= go

.PHONY: all check build test test-race race bench bench-smoke perf chaos columnar columnar-fuse experiments examples fmt vet clean docs-check loadgen mvcc server-smoke

all: check

# Full gate: compile, vet, plain tests, the race-enabled suite (which
# exercises the parallel executor with Parallelism > 1), the two
# serving-layer smokes (a curl-driven endpoint walk of cmd/mpfserver and
# a reduced concurrent load generation run over the wire), the quick
# columnar-layout and columnar-fuse identity checks, the MVCC
# snapshot-isolation chaos run under the race detector, and a compile +
# test pass over the nested bench/ module.
check: build vet test test-race server-smoke loadgen columnar columnar-fuse mvcc bench-smoke

# Documentation gate: vet, the exported-identifier doc-comment check,
# and markdown link verification (README/DESIGN/EXPERIMENTS/ARCHITECTURE).
docs-check:
	$(GO) vet ./...
	$(GO) test -run 'TestAllExportedIdentifiersDocumented|TestDocLinksResolve|TestArchitectureDocLinked' -count=1 .

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

race: test-race

bench:
	$(GO) test -bench=. -benchmem ./...

# The paired benchmark protocol (ROADMAP, "measured performance"): run
# workload W of bench/ on BASE and on this tree for seeds 1..N, order
# alternated, and print per-metric medians, quartiles, pairs won and a
# verdict against BENCHMARK.json's bounds (scripts/perf_pair.sh). About
# 50 s per pair; BASE=HEAD measures uncommitted work against the commit
# it sits on.
W ?= ds_adhoc
N ?= 10
BASE ?= HEAD^
perf:
	bash scripts/perf_pair.sh $(W) $(N) $(BASE)

# bench/ is a nested module (the repo benchmark) that `go build ./...`
# and `go test ./...` at the root never compile; vet and test it so a
# change to the mpf API it uses fails here, not in the benchmark driver.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Deterministic-seed chaos run: replay the optimizer/executor matrix
# over fault-injecting disks and check the resilience contract (see
# EXPERIMENTS.md, `chaos`). The fixed seed makes failures reproducible.
chaos:
	$(GO) run ./cmd/mpfbench -exp chaos -quick -seed 1

# Quick columnar-layout check: the columnar experiment errors unless the
# encoded kernels return byte-identical results with identical physical
# IO (see EXPERIMENTS.md, `columnar`); the speedup column is informative.
columnar:
	$(GO) run ./cmd/mpfbench -exp columnar -quick -seed 1

# Quick end-to-end columnar check: the columnar-fuse experiment errors
# unless the columnar sort and fused join+aggregate paths return
# byte-identical results with identical physical IO versus row-major
# (see EXPERIMENTS.md, `columnar-fuse`); the speedup column is
# informative.
columnar-fuse:
	$(GO) run ./cmd/mpfbench -exp columnar-fuse -quick -seed 1

# Snapshot-isolation chaos run under the race detector: analytical
# readers concurrent with a sustained ingest stream on fault-injecting
# disks, every answer checked byte-identical against a serial replay at
# its pinned catalog version, plus a permanent write fault armed against
# a mid-run commit (see EXPERIMENTS.md, `mvcc`). Drop -quick for the
# full 64-commit acceptance run.
mvcc:
	$(GO) run -race ./cmd/mpfbench -exp mvcc -quick -seed 1

# Concurrent serving smoke: mixed read/write sessions over HTTP against
# internal/server with tight admission control. Fails on any answer that
# differs from serial replay or any untyped rejection (see EXPERIMENTS.md,
# `loadgen`). Drop -quick for the full 240-session acceptance run.
loadgen:
	$(GO) run ./cmd/mpfbench -exp loadgen -quick -seed 1

# End-to-end smoke of cmd/mpfserver: start on an ephemeral port, walk
# the wire endpoints with curl, then assert a clean SIGTERM drain.
server-smoke:
	sh scripts/server_smoke.sh

# Regenerate every table and figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/mpfbench -exp all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/supplychain
	$(GO) run ./examples/bayesnet
	$(GO) run ./examples/workload
	$(GO) run ./examples/sqlshell

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
