#!/bin/bash
# Builds the benchmark into .bench_build at the root of the checkout and
# runs it from the benchmark's directory with the arguments given. The Go
# build cache is kept in .bench_build too, so a run reads and writes nothing
# outside its checkout and needs no writable home directory.
set -e
cd "$(dirname "$0")"
mkdir -p ../.bench_build
export GOCACHE="$PWD/../.bench_build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o ../.bench_build/benchmark .
exec ../.bench_build/benchmark "$@"
