# Convenience targets for the islands repository. Everything is stdlib Go;
# `go build ./...` with Go >= 1.22 is the only real requirement.

GO ?= go

.PHONY: all build fmt-check vet test race race-core cross-check fuzz-smoke bench-check benchall loc tables report report-check examples clean

# Tier-1 gate: format + build + vet + full test suite + race detector on the
# concurrency-bearing packages + the separately-moduled benchmark still
# compiling against this tree + the committed report matching the code + every
# example running to completion. CI (.github/workflows/ci.yml) runs these same
# targets, plus fuzz-smoke, `shellcheck scripts/*.sh` and scripts/serve-smoke.sh.
all: fmt-check build vet test race-core cross-check bench-check report-check examples

build:
	$(GO) build ./...

fmt-check:
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l reports:"; gofmt -l .; exit 1; }

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

race-core:
	$(GO) test -race ./internal/sched/... ./internal/exec/... ./internal/stencil/... ./internal/mpdata/... ./internal/solver/... ./internal/serve/... ./internal/tune/... ./internal/fleet/... ./internal/stream/...

# internal/mpdata's fused kernels have AVX2 bodies on amd64 and a scalar-only
# build everywhere else (and at GOAMD64=v3): compile everything for arm64 and
# for amd64 v3 and vet the package there, so the builds no amd64 machine runs
# cannot rot. internal/grid's plane-file reads have a Linux mmap path and a
# pread-only one everywhere else (store_mmap_other.go): compile everything for
# darwin/arm64 and vet the package there. Cross-compiling pure Go needs nothing
# but the toolchain.
cross-check:
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./internal/mpdata/
	GOAMD64=v3 $(GO) build ./... && GOAMD64=v3 $(GO) vet ./internal/mpdata/
	GOOS=darwin GOARCH=arm64 $(GO) build ./... && GOOS=darwin GOARCH=arm64 $(GO) vet ./internal/grid/

# The committed seeds alone (go test) only replay the corpus: run each Fuzz*
# target for 5 s past them — the AVX2 bodies against their scalar oracles in
# internal/mpdata, every catalog stage's fast path over the schedule
# compiler's cut against its per-cell slow path in internal/solver, job
# specs through the submit decoder and Spec.Normalize in
# internal/serve, field files and plane-file headers in internal/grid,
# damaged checkpoints of a resumable store in internal/stream, and fuzzed
# server replies through the client's decoding in internal/serve/client. go
# test fuzzes one target per call. The fuzzer shrinks every input that widens
# coverage for up to -fuzzminimizetime (60 s by default) and counts none of
# those runs as execs; capped at 1 s, a 5 s run fuzzes instead of shrinking
# (a crasher is still reported, less shrunk). About 80 s; CI runs it,
# `make all` does not.
fuzz-smoke:
	for p in ./internal/mpdata ./internal/solver ./internal/serve ./internal/grid ./internal/stream ./internal/serve/client; do \
		for t in $$($(GO) test -list '^Fuzz' $$p | grep '^Fuzz'); do \
			$(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime 5s -fuzzminimizetime 1s $$p || exit 1; \
		done; \
	done

# bench/ is its own Go module, outside ./... : vet it and run its short tests
# so API drift against what it uses of fleet, serve and serveclient is caught
# here, not in a benchmark run.
bench-check:
	cd bench && $(GO) vet . && $(GO) test -short .

benchall:
	$(GO) test -bench . -benchmem ./...

# The line count the simplicity PRs report (ROADMAP aim 2): non-test Go
# outside bench/, comments and blank lines included.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l

# The paper's evaluation on the simulated UV 2000, every table with the
# published numbers interleaved: `make tables` prints it, `make report`
# rewrites the committed report.md, and `make report-check` fails when
# report.md no longer matches what the code prints (the full P = 1..14
# sweep, about 11 s).
tables:
	$(GO) run ./cmd/paper-tables

report:
	$(GO) run ./cmd/paper-tables > report.md

report-check:
	tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && $(GO) run ./cmd/paper-tables > "$$tmp" && cmp "$$tmp" report.md

# Every program under examples/ runs to completion (about 10 s).
examples:
	for e in examples/*/; do echo "== $$e"; $(GO) run ./$$e || exit 1; done

clean:
	$(GO) clean ./...
