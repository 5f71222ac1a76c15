# Developer entry points. The module is stdlib-only; plain `go build`,
# `go test`, and `go run` work everywhere — these targets just name the
# common flows.

GO ?= go

.PHONY: all check build test test-race race bench bench-smoke perf fuzz experiments examples fmt vet clean docs-check server-smoke

all: check

# Full gate: compile, vet, plain tests (the differential harness's
# fixed-seed corpus among them, see DESIGN.md, with half its seeds also
# served over HTTP), the race-enabled suite (which also runs the
# harness's concurrent readers and writer), the serving-layer smoke (a
# curl-driven endpoint walk of cmd/mpfserver), and a compile + test pass
# over the nested bench/ module.
check: build vet test test-race server-smoke bench-smoke

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

# End-to-end smoke of cmd/mpfserver: start on an ephemeral port, walk
# the wire endpoints with curl, then assert a clean SIGTERM drain.
server-smoke:
	sh scripts/server_smoke.sh

# Coverage-guided fuzzing: every Fuzz* target of the module for 30 s
# each. Not part of check — `make test` already runs every target's
# seed corpus; a failing input is written under the package's
# testdata/fuzz/ and replays from there in `make test`.
fuzz:
	@for pkg in $$($(GO) list ./...); do \
		for t in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "== $$pkg $$t"; \
			$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime 30s $$pkg || exit 1; \
		done; \
	done

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
