#!/usr/bin/env bash
# Builds galsbench from the checkout it is run in and runs one workload.
# Run it from the repository root:
#
#   bash galsbench/run.sh --workload sim_phase --seed 1 --seconds 30 --trace 0
#
# Everything it writes stays under .bench_build/ in the checkout: the Go
# build cache, the binary, span files, and the run's caches and recordings.
# Where the kernel allows a private mount namespace, the caches and
# recordings go to a tmpfs mounted at .bench_build/tmpfs that only this run
# sees and that vanishes with it, because fsync on a disk-backed cache makes
# serving latency swing by a third between identical runs (see README.md).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" HOME="$build/home" \
	GOPATH="$build/gopath" GOWORK=off GOFLAGS=-buildvcs=false \
	GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

# The benchmark module imports the repository's packages from "..": outside
# a full checkout the build fails and so does the run.
(cd "$root/galsbench" && go build -o "$build/galsbench" .)

work="$build/tmpfs"
mkdir -p "$work"
args=(--workdir "$work" --tracedir "$build/traces" "$@")
mountcmd='mount -t tmpfs -o size=3g,mode=0700 galsbench "$1"'
if unshare --mount --propagation private sh -c "$mountcmd" sh "$work" 2>/dev/null; then
	exec unshare --mount --propagation private \
		sh -c "$mountcmd"' && shift && exec "$@"' sh "$work" "$build/galsbench" "${args[@]}"
fi
exec "$build/galsbench" "${args[@]}"
