#!/bin/sh
# The two size numbers every CHANGES.md entry quotes. Print only: nothing
# here fails a build.
#
#   1. every line of Rust the repository's own packages hold (the benchmark
#      harness hbh_bench/ is a package apart and is not counted);
#   2. per crate, the non-test lines of src/: each file up to its first
#      `#[cfg(test)]` at column 0 (an indented one marks a test-only item
#      inside an impl, with non-test lines after it), whole files that are
#      test-only modules (`*_tests.rs`, `*proptests.rs`, `reference.rs`)
#      left out.
#
# Run from the repository root: sh ci/loc.sh
set -eu

echo "all Rust lines (crates vendor tests examples): $(find crates vendor tests examples -name '*.rs' | xargs cat | wc -l)"

total=0
for src in crates/*/src; do
    n=$(find "$src" -name '*.rs' ! -name '*_tests.rs' ! -name '*proptests.rs' ! -name 'reference.rs' |
        xargs awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }')
    printf '%-24s %6d non-test lines\n' "$src" "$n"
    total=$((total + n))
done
printf '%-24s %6d non-test lines\n' "crates/*/src" "$total"
