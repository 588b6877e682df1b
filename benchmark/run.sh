#!/usr/bin/env bash
# Build the benchmark offline and run it.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced]
#                    [--record FILE]
#   benchmark/run.sh --agree A.jsonl B.jsonl
#
# With --workload, one run of that workload; the last line of standard
# output is the result object. Without it, one run of each of the four
# workloads in turn. --record appends each result to FILE, the result-set
# format --agree compares against the bounds in BENCHMARK.json.
#
# Everything this reads and writes lies under the directory holding this
# script (build output under $CARGO_TARGET_DIR when that is set).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
program="${CARGO_TARGET_DIR:-$here/target}/release/mltrace-benchmark"

has_workload=0
for arg in "$@"; do
    case "$arg" in
    --agree)
        exec "$program" --spec "$here/../BENCHMARK.json" "$@"
        ;;
    --workload)
        has_workload=1
        ;;
    esac
done

if [ "$has_workload" = 1 ]; then
    exec "$program" --out-dir "$here/out" "$@"
fi

status=0
for workload in ingest_served query_served mixed_served embedded_lifecycle; do
    "$program" --out-dir "$here/out" --workload "$workload" "$@" || status=$?
    echo
done
exit "$status"
