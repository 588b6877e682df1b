#!/usr/bin/env bash
# Run the library crates' unit tests and the pushdown equivalence grid
# with no crate registry (the builder's container has none).
#
#   scripts/offline-test.sh [extra `cargo test` arguments after `--`]
#
# External crates are patched to the std-only stand-ins named in
# tools/offline/cargo-config.toml. Only these targets build that way: the
# root package's other integration tests (and mltrace-pipeline, -taxi,
# -bench) do not, because the serde stand-in has no `Box<T>` impl for
# mltrace-pipeline, and the empty proptest/criterion stubs cannot build
# the property tests or the criterion benches. Tier-1 `cargo test -q`
# with a registry remains the full suite.
#
# Build output goes to $CARGO_TARGET_DIR (default target/offline, so the
# stand-in build never mixes with a registry build in target/). The root
# Cargo.lock this generates is removed — the repository commits none — and
# one a registry build left behind is set aside and put back.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target/offline}"
[ -e Cargo.lock ] && mv Cargo.lock Cargo.lock.registry
cleanup() {
    rm -f Cargo.lock
    [ -e Cargo.lock.registry ] && mv Cargo.lock.registry Cargo.lock
    return 0
}
trap cleanup EXIT

cargo_offline() { cargo --config tools/offline/cargo-config.toml test --offline "$@"; }

cargo_offline -p mltrace-store -p mltrace-query -p mltrace-core -p mltrace-metrics \
    -p mltrace-provenance -p mltrace-telemetry --lib "$@"
cargo_offline -p mltrace-query --test pushdown_equivalence "$@"
