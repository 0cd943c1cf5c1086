//! Executor micro-benchmark.
//!
//! The default mode is the A5 reporter: it seeds a scan-heavy `events`
//! table and a 100-row `groups` dimension, plans a small aggregate
//! workload (one query groups by two columns, one hash-joins `events`
//! to `groups`) once, then times each physical plan through the
//! engine's batch executor and through the reference row interpreter
//! (`aimdb_oracle::execute`, which only tests and harnesses link) on a
//! single core. It prints per-query and overall ratios and exits
//! nonzero if the two disagree on rows; whether they agree in depth is
//! `exec_differential`'s job, and how fast the batch executor is,
//! `engine.exec.ns_per_row` in `BENCH_wire.json`.
//!
//! Before that it runs the per-core decode gates, which bind on any
//! core count: the same encoded 9-Int rows are decoded by the scan's
//! `codec::decode_row_into` into `ColVec`s and by a hand-written loop
//! into plain value and null-flag vectors, in alternating passes in one
//! process, and the run exits nonzero if the codec costs more than 2x
//! the hand loop; then the codec decodes 2 of the 9 fields against all
//! 9 the same way, and the run exits nonzero if reading the two costs
//! more than 0.85x reading all of them (a scan pays for the columns its
//! plan reads, not for the table's width).
//!
//! ```text
//! exec_bench            # 60k rows, 10 timed iterations per executor
//! exec_bench --smoke    # 20k rows, 3 iterations
//! exec_bench --trace    # tracing-overhead check: traced vs untraced
//! exec_bench --parallel # one-morsel region gate, then the scaling curve at 1/2/4/8 workers
//! exec_bench --txn      # group-commit throughput vs fsync-per-txn
//! ```
//!
//! `--trace` times the full query lifecycle (`Database::execute`) over
//! the same workload with `query_tracing` on vs off in alternating
//! pairs, and exits nonzero if the median per-pair traced/untraced ratio
//! says tracing costs more than 5%.
//!
//! `--parallel` first times a point query over a one-page table, one
//! morsel, at the default worker count against one worker in
//! alternating passes, and exits nonzero if the median per-pair ratio
//! exceeds 1.5x: a region starts only the threads its morsels can use,
//! so this gate binds on any core count. It then times the batch
//! executor at 1, 2, 4 and 8 morsel workers, checks every worker count
//! reproduces the serial rows bit-for-bit, and — on machines with at
//! least 4 cores — exits nonzero if 4 workers fall short of a 2× speedup
//! over 1. On smaller machines the curve is printed and the gate reports
//! SKIPPED: extra workers time-slice one core, so the floor would only
//! measure the scheduler.

use rand::prelude::*;
use rand::rngs::StdRng;

use aimdb_common::{Clock, ColVec, DataType, Result, Row, Value, WallClock};
use aimdb_engine::exec::ExecContext;
use aimdb_engine::exec_batch::execute_batched_parallel;
use aimdb_engine::{Database, PhysicalPlan};
use aimdb_oracle::execute;
use aimdb_sql::expr::BuiltinFns;
use aimdb_sql::{parse, Statement};
use aimdb_storage::codec::{decode_row_into, encode_row};

const BATCH_SIZE: usize = 1024;
/// `--parallel`: 4 workers over 1, on hosts with at least 4 cores.
const SPEEDUP_FLOOR: f64 = 2.0;
/// `--parallel`: a one-morsel region at the default worker count may
/// cost at most this multiple of the same statement on one worker.
const REGION_RATIO_CEILING: f64 = 1.5;
/// Statements per timed pass of the region gate.
const REGION_STMTS: usize = 200;
/// Tracing must cost less than 5% of end-to-end query latency.
const TRACE_OVERHEAD_CEILING: f64 = 1.05;
/// The scan's row decoder may cost at most this multiple of the hand loop.
const DECODE_RATIO_CEILING: f64 = 2.0;
/// Int fields per row in the decode gate, as many as SSB's `lineorder`.
const DECODE_FIELDS: usize = 9;
/// The fields the projection gate decodes, as SSB's Q1 reads two of
/// `lineorder`'s columns.
const PROJECTED_FIELDS: [usize; 2] = [2, 6];
/// Decoding [`PROJECTED_FIELDS`] may cost at most this fraction of
/// decoding every field.
const PROJECTED_RATIO_CEILING: f64 = 0.85;
/// The codec's tag byte for an Int value.
const TAG_INT: u8 = 1;

fn setup(db: &Database, n_rows: usize, rng: &mut StdRng) -> Result<()> {
    db.execute("CREATE TABLE events (id INT, grp INT, cat TEXT, amt FLOAT, qty INT)")?;
    let cats = ["alpha", "beta", "gamma", "delta", "omega"];
    let ids: Vec<usize> = (0..n_rows).collect();
    for chunk in ids.chunks(500) {
        let rows: Vec<String> = chunk
            .iter()
            .map(|&i| {
                format!(
                    "({i}, {}, '{}', {:.2}, {})",
                    rng.gen_range(0..100),
                    cats[rng.gen_range(0..cats.len())],
                    rng.gen_range(0.0..500.0),
                    rng.gen_range(1..9)
                )
            })
            .collect();
        db.execute(&format!("INSERT INTO events VALUES {}", rows.join(",")))?;
    }
    db.execute("CREATE TABLE groups (grp INT, label TEXT, weight FLOAT)")?;
    let rows: Vec<String> = (0..100)
        .map(|g| {
            format!(
                "({g}, '{}', {:.2})",
                cats[g % cats.len()],
                rng.gen_range(0.5..2.0)
            )
        })
        .collect();
    db.execute(&format!("INSERT INTO groups VALUES {}", rows.join(",")))?;
    db.execute("ANALYZE")?;
    Ok(())
}

/// The scan-heavy aggregate workload: every query reads the whole table
/// (or most of it) and funnels it through expression + aggregate kernels;
/// the last one through a hash join with the `groups` dimension first.
const WORKLOAD: [&str; 7] = [
    "SELECT COUNT(*) FROM events",
    "SELECT grp, COUNT(*), SUM(amt), AVG(qty) FROM events GROUP BY grp",
    "SELECT grp, cat, COUNT(*), SUM(qty) FROM events GROUP BY grp, cat",
    "SELECT COUNT(*), AVG(amt) FROM events WHERE qty > 2 AND amt < 400.0",
    "SELECT cat, MIN(amt), MAX(amt) FROM events WHERE grp < 40 GROUP BY cat",
    "SELECT id, amt * 2 + qty FROM events WHERE amt > 250.0 AND cat LIKE '%a%'",
    "SELECT groups.label, COUNT(*), SUM(events.amt * groups.weight) FROM events \
     JOIN groups ON events.grp = groups.grp WHERE events.qty > 2 GROUP BY groups.label",
];

fn plan_query(db: &Database, sql: &str) -> PhysicalPlan {
    let stmts = parse(sql).unwrap_or_else(|e| {
        eprintln!("bad workload SQL ({e}): {sql}");
        std::process::exit(2);
    });
    let Some(Statement::Select(sel)) = stmts.into_iter().next() else {
        eprintln!("workload entry is not a SELECT: {sql}");
        std::process::exit(2);
    };
    db.plan(&sel).unwrap_or_else(|e| {
        eprintln!("planner failed ({e}): {sql}");
        std::process::exit(2);
    })
}

/// Run `iters` timed executions and return (best single-run seconds,
/// rows per run). Min-of-N: on a loaded single-core host any one run
/// can absorb a scheduler preemption, which skews a sum but leaves the
/// fastest run representative. The decode and tracing gates compare
/// two sides with [`paired_ratio`] instead.
fn time_runs<F: FnMut() -> Result<usize>>(
    clock: &WallClock,
    iters: usize,
    mut run: F,
) -> (f64, usize) {
    let mut rows = 0usize;
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = clock.now_secs();
        rows = run().unwrap_or_else(|e| {
            eprintln!("execution failed: {e}");
            std::process::exit(2);
        });
        best = best.min(clock.now_secs() - t0);
    }
    (best, rows)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        (xs[m - 1] + xs[m]) / 2.0
    }
}

/// Run `a` and `b` (each returns its own elapsed seconds) in `pairs`
/// alternating pairs, `a` first in even pairs and `b` first in odd ones.
/// Returns each side's median seconds and the median per-pair `a / b`
/// ratio. One preempted or unusually fast pass moves the median by at
/// most one rank, where alone it can set a min-of-N.
fn paired_ratio(
    pairs: usize,
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> (f64, f64, f64) {
    let (mut ta, mut tb, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for p in 0..pairs {
        let (x, y) = if p % 2 == 0 {
            let x = a();
            (x, b())
        } else {
            let y = b();
            (a(), y)
        };
        ratios.push(x / y.max(1e-12));
        ta.push(x);
        tb.push(y);
    }
    (median(ta), median(tb), median(ratios))
}

/// One Int column as the hand loop writes it: the value lane and the
/// null flags, the two vectors a `ColVec::Int` lane holds.
type IntLanes = (Vec<i64>, Vec<bool>);

/// The decode gate's reference: one encoded all-Int row read with slice
/// indexing straight into plain vectors, checking the arity, every tag
/// and every length as `decode_row_into` does. `None` on any other row.
fn hand_decode(row: &[u8], cols: &mut [IntLanes]) -> Option<()> {
    let (n, mut rest) = row.split_first_chunk::<2>()?;
    if usize::from(u16::from_le_bytes(*n)) != cols.len() {
        return None;
    }
    for (vals, nulls) in cols {
        let (&tag, tail) = rest.split_first()?;
        let (v, tail) = tail.split_first_chunk::<8>()?;
        if tag != TAG_INT {
            return None;
        }
        vals.push(i64::from_le_bytes(*v));
        nulls.push(false);
        rest = tail;
    }
    Some(())
}

/// Per-core decode gates: `n_rows` seeded 9-Int rows are encoded once,
/// checked to decode to the same values every way, then decoded
/// `BATCH_SIZE` rows at a time into fresh columns of that capacity (as
/// the sequential scan allocates its builders), in alternating passes:
/// all fields by `decode_row_into` against [`hand_decode`], exiting
/// nonzero above [`DECODE_RATIO_CEILING`]; then [`PROJECTED_FIELDS`]
/// against all fields, both by `decode_row_into`, exiting nonzero above
/// [`PROJECTED_RATIO_CEILING`].
fn decode_gate(n_rows: usize, rng: &mut StdRng, clock: &WallClock) {
    const PAIRS: usize = 21;
    let rows: Vec<Vec<u8>> = (0..n_rows)
        .map(|_| {
            let vals = (0..DECODE_FIELDS).map(|_| Value::Int(rng.gen_range(-1_000_000..1_000_000)));
            encode_row(&Row::new(vals.collect()))
        })
        .collect();
    let all: Vec<usize> = (0..DECODE_FIELDS).collect();
    let int_cols = |n, cap| -> Vec<ColVec> {
        (0..n)
            .map(|_| ColVec::with_capacity(DataType::Int, cap))
            .collect()
    };
    let lane_cols = |cap| -> Vec<IntLanes> {
        (0..DECODE_FIELDS)
            .map(|_| (Vec::with_capacity(cap), Vec::with_capacity(cap)))
            .collect()
    };
    let codec_pass = |keep: &[usize], cols: &mut Vec<ColVec>, rows: &[Vec<u8>]| {
        for row in rows {
            if let Err(e) = decode_row_into(row, DECODE_FIELDS, keep, cols) {
                eprintln!("decode_row_into failed: {e}");
                std::process::exit(2);
            }
        }
    };
    // one timed pass over every row, `BATCH_SIZE` rows into `n` fresh lanes
    let codec_timed = |keep: &[usize]| {
        let t0 = clock.now_secs();
        for chunk in rows.chunks(BATCH_SIZE) {
            let mut cols = int_cols(keep.len(), BATCH_SIZE);
            codec_pass(keep, &mut cols, chunk);
            std::hint::black_box(cols);
        }
        clock.now_secs() - t0
    };
    let hand_pass = |cols: &mut Vec<IntLanes>, rows: &[Vec<u8>]| {
        for row in rows {
            if hand_decode(row, cols).is_none() {
                eprintln!("hand decoder rejected a row the codec wrote");
                std::process::exit(2);
            }
        }
    };

    let (mut codec, mut hand) = (int_cols(DECODE_FIELDS, n_rows), lane_cols(n_rows));
    codec_pass(&all, &mut codec, &rows);
    hand_pass(&mut hand, &rows);
    for (c, (hv, hn)) in codec.iter().zip(&hand) {
        let hand_rows = hv.iter().zip(hn).map(|(v, &null)| (!null).then_some(v));
        if !matches!(c, ColVec::Int(l) if l.iter().eq(hand_rows)) {
            eprintln!("FAIL: decode_row_into and the hand loop decoded different values");
            std::process::exit(1);
        }
    }
    let mut projected = int_cols(PROJECTED_FIELDS.len(), n_rows);
    codec_pass(&PROJECTED_FIELDS, &mut projected, &rows);
    if PROJECTED_FIELDS
        .iter()
        .zip(&projected)
        .any(|(&f, c)| *c != codec[f])
    {
        eprintln!("FAIL: the projected decode disagrees with the full decode");
        std::process::exit(1);
    }

    let (codec_secs, hand_secs, ratio) = paired_ratio(
        PAIRS,
        || codec_timed(&all),
        || {
            let t0 = clock.now_secs();
            for chunk in rows.chunks(BATCH_SIZE) {
                let mut cols = lane_cols(BATCH_SIZE);
                hand_pass(&mut cols, chunk);
                std::hint::black_box(cols);
            }
            clock.now_secs() - t0
        },
    );
    let ns_per_row = |secs: f64| secs * 1e9 / n_rows as f64;
    println!(
        "exec_bench decode: {n_rows} rows x {DECODE_FIELDS} Int, {PAIRS} pairs | \
         decode_row_into {:.1} ns/row | hand loop {:.1} ns/row | ratio {ratio:.2}x \
         (ceiling {DECODE_RATIO_CEILING:.1}x)",
        ns_per_row(codec_secs),
        ns_per_row(hand_secs),
    );
    if ratio > DECODE_RATIO_CEILING {
        eprintln!(
            "FAIL: decode_row_into costs {ratio:.2}x the hand loop, above the \
             {DECODE_RATIO_CEILING:.1}x ceiling"
        );
        std::process::exit(1);
    }

    let (proj_secs, full_secs, ratio) = paired_ratio(
        PAIRS,
        || codec_timed(&PROJECTED_FIELDS),
        || codec_timed(&all),
    );
    println!(
        "exec_bench decode projection: {} of {DECODE_FIELDS} Int, {PAIRS} pairs | \
         projected {:.1} ns/row | full {:.1} ns/row | ratio {ratio:.2}x \
         (ceiling {PROJECTED_RATIO_CEILING:.2}x)",
        PROJECTED_FIELDS.len(),
        ns_per_row(proj_secs),
        ns_per_row(full_secs),
    );
    if ratio > PROJECTED_RATIO_CEILING {
        eprintln!(
            "FAIL: decoding {} of {DECODE_FIELDS} fields costs {ratio:.2}x decoding all, \
             above the {PROJECTED_RATIO_CEILING:.2}x ceiling",
            PROJECTED_FIELDS.len()
        );
        std::process::exit(1);
    }
}

/// One timed pass of the full workload through `Database::execute`
/// (parse → optimize → execute, tracing per the current knob setting).
fn workload_pass(db: &Database, clock: &WallClock) -> f64 {
    let t0 = clock.now_secs();
    for sql in WORKLOAD {
        if let Err(e) = db.execute(sql) {
            eprintln!("workload execution failed ({e}): {sql}");
            std::process::exit(2);
        }
    }
    clock.now_secs() - t0
}

/// Tracing-overhead check: traced and untraced passes of the full
/// workload in alternating pairs (see [`paired_ratio`]); fails if the
/// median per-pair traced/untraced ratio says tracing costs > 5%.
fn trace_overhead(db: &Database, clock: &WallClock, smoke: bool) {
    let pairs = if smoke { 61 } else { 101 };
    let set_tracing = |on: bool| {
        let v = i64::from(on);
        if let Err(e) = db.execute(&format!("SET query_tracing = {v}")) {
            eprintln!("SET query_tracing failed: {e}");
            std::process::exit(2);
        }
    };
    // warm both paths (plan caches, buffer pool, lazily-built stats)
    set_tracing(true);
    workload_pass(db, clock);
    set_tracing(false);
    workload_pass(db, clock);

    let (med_on, med_off, ratio) = paired_ratio(
        pairs,
        || {
            set_tracing(true);
            workload_pass(db, clock)
        },
        || {
            set_tracing(false);
            workload_pass(db, clock)
        },
    );
    println!(
        "exec_bench --trace: traced {:.2}ms vs untraced {:.2}ms median pass \
         ({:+.2}% median per-pair overhead, {pairs} pairs)",
        med_on * 1e3,
        med_off * 1e3,
        (ratio - 1.0) * 100.0
    );
    let traces = db.recent_traces().len();
    println!("exec_bench --trace: {traces} trace(s) in the ring");
    if traces == 0 {
        eprintln!("FAIL: tracing produced no traces");
        std::process::exit(1);
    }
    if ratio > TRACE_OVERHEAD_CEILING {
        eprintln!(
            "FAIL: tracing overhead {:.2}% exceeds the {:.0}% ceiling",
            (ratio - 1.0) * 100.0,
            (TRACE_OVERHEAD_CEILING - 1.0) * 100.0
        );
        std::process::exit(1);
    }
}

/// Per-statement region gate: a point query over a one-page table, so
/// an `Exchange` region of one morsel, run through `Database::execute`
/// at the default `exec_parallelism` (one worker per core) against
/// `exec_parallelism = 1`, in alternating passes of [`REGION_STMTS`]
/// statements (see [`paired_ratio`]). A region starts no thread its
/// morsels cannot use, so the two cost about the same; fails if the
/// median per-pair ratio exceeds [`REGION_RATIO_CEILING`]. Binds on any
/// core count.
fn region_overhead(db: &Database, clock: &WallClock, smoke: bool) {
    const POINT: &str = "SELECT v + 1 FROM point WHERE id = 3";
    let pairs = if smoke { 31 } else { 61 };
    let exec = |sql: &str| {
        if let Err(e) = db.execute(sql) {
            eprintln!("region gate statement failed ({e}): {sql}");
            std::process::exit(2);
        }
    };
    exec("CREATE TABLE point (id INT, v INT)");
    exec("INSERT INTO point VALUES (1, 10), (2, 20), (3, 30), (4, 40)");
    let pages = db
        .catalog
        .table("point")
        .map(|t| t.heap.morsel_source().page_count());
    let shape = plan_query(db, POINT).explain();
    if pages.as_ref().ok() != Some(&1) || !shape.contains("Exchange") {
        eprintln!("the point query is not a one-page exchange region ({pages:?}):\n{shape}");
        std::process::exit(2);
    }
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(64));
    let pass = |knob: usize| {
        exec(&format!("SET exec_parallelism = {knob}"));
        let t0 = clock.now_secs();
        for _ in 0..REGION_STMTS {
            exec(POINT);
        }
        clock.now_secs() - t0
    };
    pass(0);
    pass(1);
    let (med_default, med_1, ratio) = paired_ratio(pairs, || pass(0), || pass(1));
    exec("SET exec_parallelism = 0");
    let per_stmt_us = |secs: f64| secs / REGION_STMTS as f64 * 1e6;
    println!(
        "exec_bench --parallel: one-page region {:.1}us at the default {workers} worker(s) vs \
         {:.1}us at 1 per statement ({ratio:.2}x median per-pair ratio, ceiling \
         {REGION_RATIO_CEILING:.1}x, {pairs} pairs)",
        per_stmt_us(med_default),
        per_stmt_us(med_1)
    );
    if ratio > REGION_RATIO_CEILING {
        eprintln!(
            "FAIL: a one-morsel region at {workers} worker(s) costs {ratio:.2}x one worker \
             per statement (ceiling {REGION_RATIO_CEILING:.1}x)"
        );
        std::process::exit(1);
    }
}

/// Morsel-driven scaling curve: the same planned workload through the
/// batch executor at 1, 2, 4 and 8 workers. Every worker count must
/// reproduce the 1-worker rows exactly (the determinism contract the
/// differential suite checks in depth); timing is whole-workload,
/// `iters` passes per worker count. The ≥2× gate at 4 workers only
/// binds when the machine actually has 4 cores to scale onto.
fn parallel_scaling(db: &Database, clock: &WallClock, iters: usize) {
    const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
    let fns = BuiltinFns;
    let plans: Vec<(&str, PhysicalPlan)> = WORKLOAD
        .iter()
        .map(|sql| (*sql, plan_query(db, sql)))
        .collect();

    // Correctness before timing: thread count must be unobservable.
    for (sql, plan) in &plans {
        let ctx = ExecContext::new(&db.catalog, &fns);
        let serial = match execute_batched_parallel(plan, &ctx, BATCH_SIZE, 1) {
            Ok(rows) => rows,
            Err(e) => {
                eprintln!("serial run failed ({e}): {sql}");
                std::process::exit(2);
            }
        };
        for &w in &WORKER_COUNTS[1..] {
            let ctx = ExecContext::new(&db.catalog, &fns);
            match execute_batched_parallel(plan, &ctx, BATCH_SIZE, w) {
                Ok(rows) if rows == serial => {}
                Ok(rows) => {
                    eprintln!(
                        "FAIL: workers={w} diverged from serial ({} vs {} rows): {sql}",
                        rows.len(),
                        serial.len()
                    );
                    std::process::exit(1);
                }
                Err(e) => {
                    eprintln!("workers={w} failed ({e}): {sql}");
                    std::process::exit(2);
                }
            }
        }
    }

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "exec_bench --parallel: {iters} pass(es)/worker count, batch_size={BATCH_SIZE}, {cores} core(s)"
    );
    let mut pass_secs = Vec::with_capacity(WORKER_COUNTS.len());
    for &w in &WORKER_COUNTS {
        let mut total = 0.0f64;
        for (_, plan) in &plans {
            // warmup so page decoding and thread start-up are off the clock
            let ctx = ExecContext::new(&db.catalog, &fns);
            if let Err(e) = execute_batched_parallel(plan, &ctx, BATCH_SIZE, w) {
                eprintln!("warmup failed ({e})");
                std::process::exit(2);
            }
            let (secs, _) = time_runs(clock, iters, || {
                let ctx = ExecContext::new(&db.catalog, &fns);
                execute_batched_parallel(plan, &ctx, BATCH_SIZE, w).map(|r| r.len())
            });
            total += secs;
        }
        pass_secs.push(total);
        println!(
            "  workers={w}: {:7.2}ms best pass | {:5.2}x vs 1 worker",
            total * 1e3,
            pass_secs[0] / total.max(1e-9)
        );
    }

    let speedup4 = pass_secs[0] / pass_secs[2].max(1e-9);
    if cores >= 4 {
        println!("exec_bench --parallel: speedup at 4 workers {speedup4:.2}x (floor {SPEEDUP_FLOOR:.1}x)");
        if speedup4 < SPEEDUP_FLOOR {
            eprintln!(
                "FAIL: 4-worker speedup {speedup4:.2}x is below the {SPEEDUP_FLOOR:.1}x floor"
            );
            std::process::exit(1);
        }
    } else {
        println!(
            "exec_bench --parallel: speedup at 4 workers {speedup4:.2}x — \
             gate SKIPPED ({cores} core(s) < 4, nothing to scale onto)"
        );
    }
}

/// Commit-throughput comparison (experiment A8): disjoint-row writer
/// transactions with group commit off (`group_commit_window = 0`, one
/// fsync per commit) vs on. Everything measured comes from the engine's
/// own counters: `wal.flush_count()` for fsyncs, the txn KPI for commits,
/// and the `aimdb_group_commit_batch` histogram for the per-flush batch
/// size. With the window on, the bench fails unless fsyncs < commits and
/// the median batch exceeds one — i.e. group commit genuinely amortized
/// durability across concurrent committers.
fn txn_throughput(clock: &WallClock, smoke: bool) {
    const TXN_WRITERS: usize = 4;
    let ops = if smoke { 60 } else { 250 };
    println!(
        "exec_bench --txn: {TXN_WRITERS} writers x {ops} disjoint-row txns per window setting"
    );
    let mut gated: Option<(u64, u64, f64)> = None;
    for window in [0u64, 200] {
        let db = Database::new();
        let setup = [
            "CREATE TABLE accts (id INT, v INT)".to_string(),
            format!(
                "INSERT INTO accts VALUES {}",
                (0..TXN_WRITERS)
                    .map(|id| format!("({id}, 0)"))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            format!("SET group_commit_window = {window}"),
        ];
        for sql in &setup {
            if let Err(e) = db.execute(sql) {
                eprintln!("txn setup failed ({e}): {sql}");
                std::process::exit(2);
            }
        }
        let flushes0 = db.wal.flush_count();
        let commits0 = db.kpis().txns_committed;
        let t0 = clock.now_secs();
        let dbr = &db;
        std::thread::scope(|s| {
            for w in 0..TXN_WRITERS {
                s.spawn(move || {
                    for op in 0..ops {
                        let run = dbr.begin_txn().and_then(|h| {
                            dbr.execute_in(
                                &h,
                                &format!("UPDATE accts SET v = {op} WHERE id = {w}"),
                            )?;
                            dbr.commit_txn(&h)
                        });
                        if let Err(e) = run {
                            eprintln!("writer {w} txn {op} failed: {e}");
                            std::process::exit(2);
                        }
                    }
                });
            }
        });
        let secs = clock.now_secs() - t0;
        let commits = db.kpis().txns_committed - commits0;
        let fsyncs = db.wal.flush_count() - flushes0;
        let p50 = db
            .metrics
            .registry()
            .quantile(aimdb_engine::metrics::GROUP_COMMIT_BATCH, 0.5);
        println!(
            "  window={window:>3}us: {commits} commits | {fsyncs} fsyncs | batch p50 {p50:.1} | {:8.0} commits/s",
            commits as f64 / secs.max(1e-9)
        );
        if window > 0 {
            gated = Some((commits, fsyncs, p50));
        }
    }
    let Some((commits, fsyncs, p50)) = gated else {
        eprintln!("FAIL: no windowed run recorded");
        std::process::exit(1);
    };
    if fsyncs >= commits {
        eprintln!("FAIL: group commit never batched: {fsyncs} fsyncs for {commits} commits");
        std::process::exit(1);
    }
    if p50 <= 1.0 {
        eprintln!("FAIL: median group-commit batch {p50:.2} did not exceed 1");
        std::process::exit(1);
    }
    println!(
        "exec_bench --txn: PASS — fsyncs/commit {:.2}, median batch {p50:.1}",
        fsyncs as f64 / commits as f64
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let trace = std::env::args().any(|a| a == "--trace");
    let parallel = std::env::args().any(|a| a == "--parallel");
    let txn = std::env::args().any(|a| a == "--txn");
    let (n_rows, iters) = if smoke { (20_000, 3) } else { (60_000, 10) };

    if txn {
        let clock = WallClock::new();
        txn_throughput(&clock, smoke);
        return;
    }

    let mut rng = StdRng::seed_from_u64(42);
    let db = Database::new();
    if let Err(e) = setup(&db, n_rows, &mut rng) {
        eprintln!("bench setup failed: {e}");
        std::process::exit(2);
    }

    let clock = WallClock::new();
    if !trace && !parallel {
        decode_gate(n_rows, &mut rng, &clock);
    }
    if trace {
        trace_overhead(&db, &clock, smoke);
        return;
    }
    if parallel {
        region_overhead(&db, &clock, smoke);
        parallel_scaling(&db, &clock, iters);
        return;
    }
    let fns = BuiltinFns;
    let mut total_row = 0.0f64;
    let mut total_batch = 0.0f64;
    println!(
        "exec_bench: {n_rows} rows, {iters} iteration(s)/executor, batch_size={BATCH_SIZE}{}",
        if smoke { " (smoke)" } else { "" }
    );
    for sql in WORKLOAD {
        let plan = plan_query(&db, sql);
        // one warmup run per executor so page decoding is cache-warm
        let ctx = ExecContext::new(&db.catalog, &fns);
        let warm_rows = execute(&plan, &ctx).map(|r| r.len());
        let ctx = ExecContext::new(&db.catalog, &fns);
        let warm_batch = execute_batched_parallel(&plan, &ctx, BATCH_SIZE, 1).map(|r| r.len());
        match (warm_rows, warm_batch) {
            (Ok(a), Ok(b)) if a == b => {}
            (Ok(a), Ok(b)) => {
                eprintln!("executors disagree ({a} vs {b} rows): {sql}");
                std::process::exit(1);
            }
            (r, b) => {
                eprintln!("warmup failed ({r:?} / {b:?}): {sql}");
                std::process::exit(2);
            }
        }

        let (row_secs, out_rows) = time_runs(&clock, iters, || {
            let ctx = ExecContext::new(&db.catalog, &fns);
            execute(&plan, &ctx).map(|r| r.len())
        });
        let (batch_secs, _) = time_runs(&clock, iters, || {
            let ctx = ExecContext::new(&db.catalog, &fns);
            execute_batched_parallel(&plan, &ctx, BATCH_SIZE, 1).map(|r| r.len())
        });
        total_row += row_secs;
        total_batch += batch_secs;
        println!(
            "  {:7.2}ms row | {:7.2}ms batch | {:5.2}x | {out_rows} rows | {sql}",
            row_secs * 1e3,
            batch_secs * 1e3,
            row_secs / batch_secs.max(1e-9),
        );
    }

    let speedup = total_row / total_batch.max(1e-9);
    println!(
        "exec_bench: overall speedup {speedup:.2}x (row {:.1}ms, batch {:.1}ms best pass)",
        total_row * 1e3,
        total_batch * 1e3
    );
}
