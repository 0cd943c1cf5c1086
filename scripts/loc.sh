#!/usr/bin/env bash
# Non-test line count of the server's crates: for every .rs file under
# each crate's src/, the lines before the file's first `#[cfg(test)]`
# that are neither blank nor `//` comments (`///` and `//!` included).
# Prints one line per crate and the total, then the same count of the
# dev-only aimdb-oracle crate on a line of its own, outside the total.
# Takes no options.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "crates/$1/src" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { skip = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1 }
        skip || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }'
}

total=0
for crate in common sql trace storage engine server; do
    n=$(count "$crate")
    printf '%-8s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-8s %6d\n' total "$total"
# the dev-only reference the product is diffed against: code that moves
# from the product into it shows here, not as a fall in the total
printf '%-8s %6d\n' oracle "$(count oracle)"
