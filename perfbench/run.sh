#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Usage, from the repository
# root:
#
#   bash perfbench/run.sh --workload zipf-hot --seed 1 --seconds 10 --trace 0
#
# Every build artefact, the Go build cache included, stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/tmp" "$build/modcache" "$build/spans"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/modcache"
export GOPATH="$build/gopath" GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2

# Free heap pages go back to the kernel with MADV_FREE rather than
# MADV_DONTNEED, so the kernel keeps them mapped until it needs them. On a
# VM whose balloon reports free pages to the host, DONTNEED pages return
# to the host, and each reuse costs a host page fault whose price follows
# the host's load. On a 2-core VM this cut the spread of zipf-hot's times
# between runs (it allocates heavily in the annealer) by a third to two
# thirds.
export GODEBUG="madvdontneed=0${GODEBUG:+,$GODEBUG}"
exec "$build/perfbench" --spans "$build/spans" "$@"
