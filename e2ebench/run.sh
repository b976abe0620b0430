#!/bin/sh
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   sh e2ebench/run.sh --workload voyager-batch --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and everything the benchmark writes stay
# under .bench_build/ in the current directory. Without the godiva module
# one directory up the build fails, and so does the script.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" "$@"
