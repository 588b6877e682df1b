//! The pushdown equivalence grid lives beside the crate it tests
//! (`crates/query/tests/`), where `scripts/offline-test.sh` can build it
//! without a registry; this shim keeps it in Tier-1 `cargo test -q`.

#[path = "../crates/query/tests/pushdown_equivalence.rs"]
mod grid;
