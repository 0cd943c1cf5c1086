#!/usr/bin/env bash
# Repo-wide quality gate. Run from anywhere; exits non-zero on the first
# failure.
#   --fast        stop after the fast tier: fmt, cargo check, clippy, lint
#                 ratchet, workspace tests, wire-benchmark smoke. Minutes,
#                 and what "green" means for a product PR; the long
#                 oracles below it run only in the default (full) gate.
#   --crash-loop  also run the long randomized crash/recovery soak (500
#                 iterations via the fault-injection feature).
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
crash_loop=0
for arg in "$@"; do
    case "$arg" in
        --fast) fast=1 ;;
        --crash-loop) crash_loop=1 ;;
        *)
            echo "usage: scripts/check.sh [--fast] [--crash-loop]" >&2
            exit 2
            ;;
    esac
done

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --all -- --check
# every target of every package must compile — tests, examples, binaries
# — so nothing that does not build can sit in the tree unnoticed
run cargo check --workspace --all-targets
# the server links the engine stack only: the learned-technique crates
# (aimdb-ai4db and, through it, aimdb-ml) must not creep back into its
# dependency closure, and the reference row interpreter (aimdb-oracle,
# a dev-dependency of the engine) must stay out of the product: out of
# the server and out of the umbrella crate
echo "==> cargo tree -e normal --offline (aimdb-server: no aimdb-ai4db, aimdb-ml or aimdb-oracle; aimdb: no aimdb-oracle)"
server_tree=$(cargo tree -p aimdb-server -e normal --offline)
if grep -E '(^|[^[:alnum:]_-])aimdb-(ai4db|ml|oracle) v' <<<"$server_tree"; then
    echo "aimdb-server depends on aimdb-ai4db, aimdb-ml or aimdb-oracle" >&2
    exit 1
fi
umbrella_tree=$(cargo tree -p aimdb -e normal --offline)
if grep -E '(^|[^[:alnum:]_-])aimdb-oracle v' <<<"$umbrella_tree"; then
    echo "aimdb depends on aimdb-oracle" >&2
    exit 1
fi
# clippy over every package of the workspace, test code, benches and
# examples included
run cargo clippy --workspace --all-targets -- -D warnings
# workspace invariant linter: L001 panic-freedom, L004 lock ranking and
# L005 atomic-ordering justification (all three ratcheted via
# lint-baseline.txt — counts may only go down), L002 determinism,
# L003 error hygiene
run cargo run -q -p lint --release
# every suite runs here, once: unit tests of every crate plus
# - executor equivalence (engine/tests/exec_differential): 1200 generated
#   queries through the engine's one executor and the reference row
#   interpreter of the dev-only aimdb-oracle crate, the NULL-heavy /
#   empty-table / index-scan suites, and the same corpus through the
#   morsel-parallel executor at 1/2/4/8 workers, bit-identical required
# - concurrency stress (tests/concurrent_scan_recovery): parallel scans
#   against a writer doing inserts + checkpoints, healthy and through
#   crash/recovery, under the lock-order witness with zero violations
# - buffer-pool stress (storage/tests/pool_stress): four cursor readers
#   against an inserting/deleting writer through a 4-page pool, dirty
#   write-backs forced, heap equal to the writer's model, witness clean
# - MVCC first-updater-wins properties at 1/2/4/8 writer threads
#   (tests/mvcc_conflicts) and the fault-injected writer-race loop
#   (tests/txn_writer_races)
# - property suites: storage cursors vs model, buffer pool vs a page
#   model, table CRC vs the bitwise reference, batch-vs-scalar expression
#   kernels, crash-recovery with an index model
# - statement-fingerprint collision soak (bench/tests/fingerprint_corpus)
# - wire-protocol conformance + fuzz (server/tests/protocol): seeded
#   random byte streams, truncated and oversized frames, frames split
#   across tiny writes — structured errors or clean disconnects, never a
#   panic or hang
run cargo test -q --workspace
# the standing wire-level benchmark is a frozen instrument with its own
# workspace: build it against the product crates as they are now and run
# its four workloads for a few seconds each — oracles only (row shadow,
# golden hashes, projection-derived counts, TPC-C invariants + recovery),
# no timing gate — so a product change that breaks benchmark/ fails here.
# Writes benchmark/out/report.json; the committed BENCH_wire.json is the
# full run, refreshed by hand (see ROADMAP "how a perf item is judged").
run bash benchmark/run.sh --smoke

if [[ $fast == 1 ]]; then
    echo "Fast checks passed."
    exit 0
fi

# lock contention export must survive the release profile: the witness is
# debug-only but the contended-acquire count/time counters are not
run cargo test -q --release -p parking_lot contention_is_counted_per_rank
# static plan verifier must accept every executable query in a 1k-query
# random corpus (debug builds also verify every plan inline)
run cargo run -q --release -p aimdb-bench --bin verify_corpus
# per-core decode gates: the scan's row decoder (codec::decode_row_into)
# must cost at most 2x a hand-written loop over the same encoded rows,
# and decoding 2 of their 9 fields at most 0.85x decoding all 9, each
# timed in alternating passes in one process; bind on any core count
run cargo run -q --release -p aimdb-bench --bin exec_bench -- --smoke
# tracing overhead: full-lifecycle passes with query_tracing on vs off
# must stay within 5% (median of per-pair ratios over alternating pairs,
# release build)
run cargo run -q --release -p aimdb-bench --bin exec_bench -- --trace --smoke
# group-commit evidence: fsyncs < commits and median batch > 1 under
# concurrent disjoint-row writers (fsync-per-txn baseline printed too)
run cargo run -q --release -p aimdb-bench --bin exec_bench -- --txn --smoke
# committed-history serializability oracle: bounded-seed smoke of the
# 10k-history run (serial replay in commit-ts order must match; crash
# lives must recover prefix-consistent with zero torn batches)
run cargo run -q --release -p aimdb-bench --bin txn_oracle -- --smoke
# one-morsel region gate: a point query over a one-page table at the
# default worker count may cost at most 1.5x one worker per statement
# (median of alternating passes; binds on any core count); then the
# morsel-driven scaling curve at 1/2/4/8 workers; the >=2x gate at 4
# workers binds only on hosts with >=4 cores (SKIPPED otherwise), but
# the serial-equivalence check always runs
run cargo run -q --release -p aimdb-bench --bin exec_bench -- --parallel --smoke
# TPC-style macro benchmark smoke: seeded OLTP mix with a mid-run
# crash→recover life and TPC-C consistency invariants at 1/2/4/8
# writers, then the 12-query analytics family at 1/2/4/8 workers with
# cross-worker fingerprints required identical, then the server crash
# life (storage dies under a live TCP server, recover, restart, replay);
# writes BENCH_macro.json
run cargo run -q --release -p aimdb-bench --bin macro_bench -- --smoke
# serving-layer load smoke: seeded statement stream byte-identical over
# the wire vs in-process, 64 concurrent sessions held open, and the
# admission gate shedding under overload; writes BENCH_server.json
run cargo run -q --release -p aimdb-bench --bin load_bench -- --smoke
# observability demo: EXPLAIN ANALYZE tree, metrics page (asserts the
# exposition format parses via validate_exposition), trace ring,
# slow-query log — fails on any assertion
run cargo run -q --release --example observability

if [[ $crash_loop == 1 ]]; then
    run cargo test -q --test crash_recovery --features fault-injection
fi

echo "All checks passed."
