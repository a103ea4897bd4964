#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the
# checkout, like everything else it writes) and runs it with the given
# arguments. The Go build cache lives there too, so nothing is read or
# written outside the checkout and a rebuild of unchanged sources is a
# cache hit.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOENV=off GOWORK=off CGO_ENABLED=0

(cd "$here" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
