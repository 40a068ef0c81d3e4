#!/bin/sh
# bench.sh — run the compute benchmarks and append the results to
# BENCH_compute.json (the repository's performance trajectory; see
# docs/PERFORMANCE.md). The sweep includes the temporal-blocking ablation
# (BenchmarkCompute{Islands,CoreIslands}K{1,2,4,8}), whose per-arm
# "modeled-speedup-x" metric records the paper machine's predicted payoff
# of k-step blocking next to the measured host numbers, and the out-of-core
# streaming arms (BenchmarkStream{Resident,Tiled}; see docs/STREAMING.md),
# where the tiled arm's overlap-% is the share of wall time the
# double-buffered pipeline kept free of I/O stalls. The Stream arms are
# excluded from the CI allocs/op smoke gate by name — tile streaming
# allocates by design. Usage:
#
#   scripts/bench.sh [label]
#
# BENCHTIME overrides the per-benchmark iteration count (default 30x, enough
# to amortize warm-up on the small benchmark grid).
set -eu
cd "$(dirname "$0")/.." || exit 1

label=${1:-"$(date -u +%Y-%m-%dT%H:%M:%SZ)"}
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench '^BenchmarkCompute|^BenchmarkStream' -benchmem -benchtime "${BENCHTIME:-30x}" . | tee "$tmp"
# Plan-time cost per execution shape (allocates by design; never smoke-gated).
go test -run '^$' -bench '^BenchmarkScheduleBuild' -benchmem -benchtime "${BENCHTIME:-30x}" ./internal/exec | tee -a "$tmp"
go run ./cmd/benchjson -match Benchmark -o BENCH_compute.json \
	-label "$label" -commit "$commit" <"$tmp"
