#!/bin/sh
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (Go build cache included, so nothing is written outside the
# checkout) and runs it from the root with the arguments it was given.
set -e
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
# The commit goes into the fingerprint; outside a git checkout it is unknown.
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
if [ "$commit" != unknown ] && ! git -C "$root" diff --quiet HEAD 2>/dev/null; then
	commit="$commit+dirty"
fi
(cd "$root/bench" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/islands-bench" .)
cd "$root"
exec "$build/islands-bench" "$@"
