#!/bin/sh
# Benchmark-regression harness: runs the substrate benchmark suites
# (event kernel, diff engine, protocol-engine set-up and shared-access
# path, directive microbenchmarks, Fig 6/7) with -benchmem, comparing
# against the numbers recorded in bench/baseline_pr6.json (the
# pre-overhaul numbers remain in bench/baseline_pr0.txt; its entries for
# benchmarks that no longer exist are ignored). Benchmarks absent from
# the baseline are reported as "new". The first argument is the PR number the report is
# for: the report goes to BENCH_PR<n>.json unless the caller picks
# another -out; `-out -` streams the report to stdout and creates no
# file at all. With an explicit -out the PR number may be left out.
#
# Usage: scripts/bench.sh [pr-number] [extra parade-bench -regress flags]
# e.g.   scripts/bench.sh 13
#        scripts/bench.sh -benchtime 0.1s -max-regress 1.5 -out -
set -eu
cd "$(dirname "$0")/.."

baseline=bench/baseline_pr6.json
if [ ! -f "$baseline" ]; then
    echo "bench.sh: baseline $baseline is missing; the regression gate would check nothing." >&2
    echo "bench.sh: restore it (git checkout -- $baseline) or record a new one with:" >&2
    echo "bench.sh:   go run ./cmd/parade-bench -regress -out $baseline" >&2
    exit 1
fi

pr=
case "${1:-}" in
'' | *[!0-9]*) ;;
*)
    pr=$1
    shift
    ;;
esac

# Apply the default report path only when the caller did not pick one,
# instead of relying on flag-override order -- that way `-out -` can
# never leave a stray report behind.
out_set=0
for arg in "$@"; do
    case "$arg" in
    -out | -out=* | --out | --out=*) out_set=1 ;;
    esac
done
set -- -baseline "$baseline" "$@"
if [ "$out_set" -eq 0 ]; then
    if [ -z "$pr" ]; then
        echo "bench.sh: need the PR number as the first argument (report goes to BENCH_PR<n>.json) or an explicit -out" >&2
        exit 2
    fi
    set -- -out "BENCH_PR$pr.json" "$@"
fi

# Report header: make the measurement environment visible in the log
# (the JSON report records the same via go_version/gomaxprocs/num_cpu).
ncpu=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo unknown)
echo "bench.sh: $(go version)" >&2
echo "bench.sh: GOMAXPROCS=${GOMAXPROCS:-unset} nproc=$ncpu" >&2

exec go run ./cmd/parade-bench -regress "$@"
