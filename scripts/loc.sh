#!/usr/bin/env bash
# Non-test Rust lines: for every crates/*/src/**/*.rs, the lines before the
# file's first `#[cfg(test)]` (the whole file when it has none), summed per
# crate, then the same count for the files the planner/visitor refactors
# are judged on. Run from anywhere; takes an optional repository root so a
# second checkout (the parent commit) can be measured with the same script.
set -euo pipefail

root="${1:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}"
cd "$root"

# Lines of one file up to (not including) its first `#[cfg(test)]`.
non_test() { awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"; }

total=0
for crate in crates/*/; do
    sum=0
    while IFS= read -r f; do
        sum=$((sum + $(non_test "$f")))
    done < <(find "$crate/src" -name '*.rs' | sort)
    printf '%-28s %6d\n' "$(basename "$crate")" "$sum"
    total=$((total + sum))
done
printf '%-28s %6d\n' "all crates" "$total"
echo
for f in crates/query/src/plan.rs crates/query/src/exec.rs \
    crates/store/src/memory.rs crates/store/src/schema.rs crates/store/src/store.rs; do
    printf '%-28s %6d\n' "${f#crates/}" "$(non_test "$f")"
done
