#!/usr/bin/env bash
# The one command of aimdb's benchmark: build, then run.
#
#   benchmark/run.sh [--smoke] [--seed N] [--repeat K] [--only W]
#       the whole suite, each workload in fresh processes; prints every
#       metric as "workload name value unit", writes benchmark/out/
#       report.json and the four trace files, exits non-zero on any
#       oracle failure (or, with --repeat, on a difference outside the
#       benchmark's own bounds)
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run, as the harness calls it: the last line of stdout is one
#       JSON object with the end-to-end (trace 0) or per-layer (trace 1)
#       metrics
#
#   benchmark/run.sh --golden --seed 42 > benchmark/golden/olap_ssb.seed42.txt
#       regenerate olap_ssb's golden result hashes
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "$target/release/aimdb-benchmark" "$@"
