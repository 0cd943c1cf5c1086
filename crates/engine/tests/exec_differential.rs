//! Differential oracle: the vectorized executor must produce exactly the
//! same results as the reference row interpreter (`aimdb_oracle`, a
//! dev-dependency with its own aggregate fold) on every query.
//!
//! A seeded generator produces well-formed SELECTs over four tables — two
//! dense, one NULL-heavy (~40% NULLs in every column, so three-valued
//! logic, NULL join keys and NULL-skipping aggregates are exercised
//! constantly) and one empty — then every query is planned once and run
//! through both executors. Results must match: positionally when the
//! query has an ORDER BY, as multisets otherwise. Batch sizes cycle
//! through {1, 7, 64, 1024} so chunk-boundary bugs can't hide behind a
//! batch larger than the tables.
//!
//! `PREDICT` gets its own hand-written corpus at the bottom: the batch
//! executor runs the model snapshot bound into the plan, the row executor
//! looks the model up by name row by row, and a deterministic stub model
//! hook (the engine stays free of ML) lets the two be compared across
//! batch sizes {1, 7, 64, 1024} × workers {1, 2, 4, 8}.

mod common;

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use rand::prelude::*;
use rand::rngs::StdRng;

use aimdb_common::{Result, Row, Value};
use aimdb_engine::exec::ExecContext;
use aimdb_engine::exec_batch::execute_batched_parallel;
use aimdb_engine::plan::{PhysOp, PhysicalPlan};
use aimdb_engine::{Database, Snapshot};
use aimdb_oracle::execute;
use aimdb_sql::expr::{BuiltinFns, ScalarFns};
use aimdb_sql::{parse, Statement};

use common::{ByName, StubModels};

/// (table, numeric columns, text columns)
const TABLES: [(&str, &[&str], &[&str]); 3] = [
    (
        "users",
        &["users.id", "users.age", "users.score"],
        &["users.name"],
    ),
    (
        "orders",
        &["orders.oid", "orders.user_id", "orders.amount"],
        &["orders.tag"],
    ),
    (
        "sparse",
        &["sparse.k", "sparse.v", "sparse.w"],
        &["sparse.s"],
    ),
];

fn setup(db: &Database, rng: &mut StdRng) -> Result<()> {
    db.execute("CREATE TABLE users (id INT, age INT, name TEXT, score FLOAT)")?;
    db.execute("CREATE TABLE orders (oid INT, user_id INT, amount FLOAT, tag TEXT)")?;
    db.execute("CREATE TABLE sparse (k INT, v INT, w FLOAT, s TEXT)")?;
    db.execute("CREATE TABLE void (a INT, b TEXT, c FLOAT)")?;
    db.execute("CREATE INDEX idx_age ON users (age)")?;
    db.execute("CREATE INDEX idx_k ON sparse (k)")?;

    let names = ["ann", "bob", "cal", "dee", "eli"];
    let tags = ["new", "ship", "done", "hold"];
    for chunk in (0..200).collect::<Vec<i64>>().chunks(50) {
        let rows: Vec<String> = chunk
            .iter()
            .map(|&i| {
                format!(
                    "({i}, {}, '{}', {:.2})",
                    rng.gen_range(18..80),
                    names[rng.gen_range(0..names.len())],
                    rng.gen_range(0.0..100.0)
                )
            })
            .collect();
        db.execute(&format!("INSERT INTO users VALUES {}", rows.join(",")))?;
    }
    for chunk in (0..300).collect::<Vec<i64>>().chunks(50) {
        let rows: Vec<String> = chunk
            .iter()
            .map(|&i| {
                format!(
                    "({i}, {}, {:.2}, '{}')",
                    rng.gen_range(0..200),
                    rng.gen_range(1.0..500.0),
                    tags[rng.gen_range(0..tags.len())]
                )
            })
            .collect();
        db.execute(&format!("INSERT INTO orders VALUES {}", rows.join(",")))?;
    }
    // NULL-heavy: every column independently NULL with p = 0.4
    for chunk in (0..150).collect::<Vec<i64>>().chunks(50) {
        let rows: Vec<String> = chunk
            .iter()
            .map(|&i| {
                let k = if rng.gen_bool(0.4) {
                    "NULL".to_string()
                } else {
                    format!("{}", i % 40)
                };
                let v = if rng.gen_bool(0.4) {
                    "NULL".to_string()
                } else {
                    format!("{}", rng.gen_range(-20..20))
                };
                let w = if rng.gen_bool(0.4) {
                    "NULL".to_string()
                } else {
                    format!("{:.2}", rng.gen_range(-5.0..5.0))
                };
                let s = if rng.gen_bool(0.4) {
                    "NULL".to_string()
                } else {
                    format!("'s{}'", i % 6)
                };
                format!("({k}, {v}, {w}, {s})")
            })
            .collect();
        db.execute(&format!("INSERT INTO sparse VALUES {}", rows.join(",")))?;
    }
    db.execute("ANALYZE")?;
    Ok(())
}

fn numeric_col(rng: &mut StdRng, ti: usize) -> String {
    let cols = TABLES[ti].1;
    cols[rng.gen_range(0..cols.len())].to_string()
}

fn text_col(rng: &mut StdRng, ti: usize) -> String {
    let cols = TABLES[ti].2;
    cols[rng.gen_range(0..cols.len())].to_string()
}

fn predicate(rng: &mut StdRng, ti: usize) -> String {
    match rng.gen_range(0..8) {
        0 => format!(
            "{} {} {}",
            numeric_col(rng, ti),
            ["<", "<=", ">", ">=", "=", "<>"][rng.gen_range(0..6)],
            rng.gen_range(-10..120)
        ),
        1 => format!(
            "{} BETWEEN {} AND {}",
            numeric_col(rng, ti),
            rng.gen_range(-10..50),
            rng.gen_range(50..200)
        ),
        2 => format!(
            "{} IN ({}, {}, {})",
            numeric_col(rng, ti),
            rng.gen_range(0..40),
            rng.gen_range(40..80),
            rng.gen_range(80..120)
        ),
        3 => format!(
            "{} LIKE '%{}%'",
            text_col(rng, ti),
            ['a', 'e', 'o', 's'][rng.gen_range(0..4)]
        ),
        4 => format!(
            "{} IS {}NULL",
            numeric_col(rng, ti),
            ["", "NOT "][rng.gen_range(0..2)]
        ),
        5 => format!(
            "{} > {} AND {} IS NOT NULL",
            numeric_col(rng, ti),
            rng.gen_range(0..60),
            text_col(rng, ti)
        ),
        6 => format!(
            "ABS({}) >= {} OR {} < {}",
            numeric_col(rng, ti),
            rng.gen_range(0..30),
            numeric_col(rng, ti),
            rng.gen_range(0..100)
        ),
        _ => format!("NOT ({} > {})", numeric_col(rng, ti), rng.gen_range(0..80)),
    }
}

/// A random well-formed SELECT; the NULL-heavy table participates in
/// every shape, and two shapes target the empty table directly.
fn gen_query(rng: &mut StdRng) -> String {
    match rng.gen_range(0..8) {
        // single-table projection + filter (+ order/limit)
        0 | 1 => {
            let ti = rng.gen_range(0..TABLES.len());
            let (t, _, _) = TABLES[ti];
            let nc = numeric_col(rng, ti);
            let tc = text_col(rng, ti);
            let bare = nc
                .rsplit_once('.')
                .map_or(nc.as_str(), |(_, b)| b)
                .to_string();
            let (proj, sort_key) = match rng.gen_range(0..3) {
                0 => ("*".to_string(), bare),
                1 => (format!("{nc}, {tc}"), bare),
                _ => (format!("{nc} + 1, UPPER({tc})"), "col0".to_string()),
            };
            let mut q = format!("SELECT {proj} FROM {t} WHERE {}", predicate(rng, ti));
            if rng.gen_bool(0.5) {
                q.push_str(&format!(" ORDER BY {sort_key}"));
                if rng.gen_bool(0.5) {
                    q.push_str(" DESC");
                }
            }
            if rng.gen_bool(0.4) {
                q.push_str(&format!(" LIMIT {}", rng.gen_range(1..40)));
            }
            q
        }
        // two-table join; sparse.k as a key exercises NULL join keys
        2 => {
            let (lt, rt, lk, rk) = [
                ("users", "orders", "users.id", "orders.user_id"),
                ("users", "sparse", "users.id", "sparse.k"),
                ("orders", "sparse", "orders.user_id", "sparse.k"),
            ][rng.gen_range(0..3)];
            let ti = TABLES
                .iter()
                .position(|(n, _, _)| *n == lt)
                .unwrap_or_default();
            format!(
                "SELECT {lk}, {rk} FROM {lt} JOIN {rt} ON {lk} = {rk} WHERE {}",
                predicate(rng, ti)
            )
        }
        // aggregate + group by (NULL group keys group together)
        3 => {
            let ti = rng.gen_range(0..TABLES.len());
            let (t, _, _) = TABLES[ti];
            let g = text_col(rng, ti);
            let a = numeric_col(rng, ti);
            let agg = ["COUNT(*)", "SUM", "AVG", "MIN", "MAX"][rng.gen_range(0..5)];
            let agg = if agg == "COUNT(*)" {
                agg.to_string()
            } else {
                format!("{agg}({a})")
            };
            let mut q = format!("SELECT {g}, {agg} FROM {t} GROUP BY {g}");
            if rng.gen_bool(0.5) {
                let bare = g.rsplit_once('.').map_or(g.as_str(), |(_, b)| b);
                q.push_str(&format!(" ORDER BY {bare}"));
            }
            q
        }
        // global aggregate with filter (COUNT(col) skips NULLs)
        4 => {
            let ti = rng.gen_range(0..TABLES.len());
            let (t, _, _) = TABLES[ti];
            let a = numeric_col(rng, ti);
            format!(
                "SELECT COUNT(*), COUNT({a}), AVG({a}) FROM {t} WHERE {}",
                predicate(rng, ti)
            )
        }
        // empty table: scans, sorts and limits over zero rows
        5 => {
            let mut q = format!(
                "SELECT a, c FROM void WHERE {}",
                ["a > 5", "b LIKE '%x%'", "c IS NULL", "a IN (1, 2, 3)"][rng.gen_range(0..4)]
            );
            if rng.gen_bool(0.5) {
                q.push_str(" ORDER BY a");
            }
            if rng.gen_bool(0.5) {
                q.push_str(" LIMIT 5");
            }
            q
        }
        // empty table: global aggregate still yields one row; grouped
        // aggregate yields none; joins against it yield none
        6 => match rng.gen_range(0..3) {
            0 => "SELECT COUNT(*), SUM(a), MIN(c) FROM void".to_string(),
            1 => "SELECT b, COUNT(*) FROM void GROUP BY b".to_string(),
            _ => "SELECT users.id, void.a FROM users JOIN void ON users.id = void.a".to_string(),
        },
        // scalar expressions, no FROM
        _ => format!(
            "SELECT ABS({}), LENGTH('oracle'), {} * {}",
            -rng.gen_range(1..50i64),
            rng.gen_range(1..9),
            rng.gen_range(1..9)
        ),
    }
}

/// Plan once, run through both executors.
#[allow(clippy::type_complexity)]
fn run_both(db: &Database, sql: &str, bs: usize) -> (Result<Vec<Row>>, Result<Vec<Row>>) {
    let stmts = parse(sql).unwrap_or_else(|e| panic!("unparseable SQL ({e}): {sql}"));
    let Some(Statement::Select(sel)) = stmts.into_iter().next() else {
        panic!("generator produced a non-SELECT: {sql}");
    };
    let plan = db
        .plan(&sel)
        .unwrap_or_else(|e| panic!("planner failed ({e}): {sql}"));
    let fns = BuiltinFns;
    let row_ctx = ExecContext::new(&db.catalog, &fns);
    let row_result = execute(&plan, &row_ctx);
    let batch_ctx = ExecContext::new(&db.catalog, &fns);
    let batch_result = execute_batched_parallel(&plan, &batch_ctx, bs, 1);
    (row_result, batch_result)
}

/// Plan once, run the row oracle, then the morsel-parallel batch
/// executor at each requested worker count, every run reading through
/// `snap` (latest committed without one).
#[allow(clippy::type_complexity)]
fn run_matrix(
    db: &Database,
    sql: &str,
    bs: usize,
    worker_counts: &[usize],
    snap: Option<Snapshot>,
) -> (Result<Vec<Row>>, Vec<Result<Vec<Row>>>) {
    let stmts = parse(sql).unwrap_or_else(|e| panic!("unparseable SQL ({e}): {sql}"));
    let Some(Statement::Select(sel)) = stmts.into_iter().next() else {
        panic!("generator produced a non-SELECT: {sql}");
    };
    let plan = db
        .plan(&sel)
        .unwrap_or_else(|e| panic!("planner failed ({e}): {sql}"));
    let fns = BuiltinFns;
    let row_ctx = ExecContext::new(&db.catalog, &fns);
    row_ctx.set_snapshot(snap);
    let row_result = execute(&plan, &row_ctx);
    let parallel_results = worker_counts
        .iter()
        .map(|&w| {
            let ctx = ExecContext::new(&db.catalog, &fns);
            ctx.set_snapshot(snap);
            execute_batched_parallel(&plan, &ctx, bs, w)
        })
        .collect();
    (row_result, parallel_results)
}

/// Multiset canonicalization: sort rows lexicographically by value.
fn canon(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| a.values().cmp(b.values()));
    rows
}

/// EXPLAIN ANALYZE's per-node actuals come from the instrumented
/// vectorized pipeline; the result row count it reports — both the
/// report total and the root node's actual rows — must equal what the
/// differential oracle produced for the same query.
fn check_analyze_row_counts(db: &Database, sql: &str, oracle_rows: u64, qi: usize) {
    let stmts = parse(sql).unwrap_or_else(|e| panic!("unparseable SQL ({e}): {sql}"));
    let Some(Statement::Select(sel)) = stmts.into_iter().next() else {
        panic!("generator produced a non-SELECT: {sql}");
    };
    let report = db
        .explain_analyze(&sel)
        .unwrap_or_else(|e| panic!("EXPLAIN ANALYZE failed [{qi}] ({e}): {sql}"));
    assert_eq!(
        report.result_rows, oracle_rows,
        "[{qi}] EXPLAIN ANALYZE result_rows vs oracle: {sql}"
    );
    let root = report
        .root()
        .unwrap_or_else(|| panic!("[{qi}] EXPLAIN ANALYZE report has no nodes: {sql}"));
    assert_eq!(
        root.rows, oracle_rows,
        "[{qi}] root node actual rows vs oracle: {sql}"
    );
}

#[test]
fn differential_oracle_over_generated_corpus() {
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let db = Database::new();
    setup(&db, &mut rng).expect("corpus setup");

    const N: usize = 1200;
    let batch_sizes = [1usize, 7, 64, 1024];
    let mut mismatches = 0usize;
    let mut executed = 0usize;
    for qi in 0..N {
        let sql = gen_query(&mut rng);
        let bs = batch_sizes[qi % batch_sizes.len()];
        match run_both(&db, &sql, bs) {
            (Ok(rr), Ok(br)) => {
                executed += 1;
                let same = if sql.contains(" ORDER BY ") {
                    rr == br
                } else {
                    canon(rr.clone()) == canon(br.clone())
                };
                if !same {
                    mismatches += 1;
                    eprintln!(
                        "MISMATCH [{qi}] bs={bs}: row={} rows, batch={} rows\n  sql: {sql}",
                        rr.len(),
                        br.len()
                    );
                }
                // EXPLAIN ANALYZE runs the same instrumented pipeline;
                // its reported root actuals must agree with the oracle.
                if qi % 25 == 0 {
                    check_analyze_row_counts(&db, &sql, rr.len() as u64, qi);
                }
            }
            // both failing is agreement; the generator shouldn't produce
            // these, but if it does the executors still concur
            (Err(_), Err(_)) => {}
            (Ok(_), Err(e)) => {
                mismatches += 1;
                eprintln!("MISMATCH [{qi}] bs={bs}: row ok, batch err ({e})\n  sql: {sql}");
            }
            (Err(e), Ok(_)) => {
                mismatches += 1;
                eprintln!("MISMATCH [{qi}] bs={bs}: batch ok, row err ({e})\n  sql: {sql}");
            }
        }
    }
    assert!(
        executed >= N * 9 / 10,
        "generator produced too many failing queries: {executed}/{N} executed"
    );
    assert_eq!(mismatches, 0, "{mismatches} differential mismatches");
}

/// Thread-count differential matrix: the morsel-parallel executor must
/// agree with the row-executor oracle at every worker count, and the
/// parallel results themselves must be bit-identical across worker
/// counts — morsel-ordered merging makes thread count unobservable.
///
/// Worker counts {1, 2, 4, 8} all run on every query; batch sizes
/// cycle through {1, 64, 1024} so each (workers, batch size) cell of
/// the matrix sees hundreds of queries.
#[test]
fn thread_count_differential_matrix() {
    let mut rng = StdRng::seed_from_u64(0x30A5E1);
    let db = Database::new();
    setup(&db, &mut rng).expect("corpus setup");

    const N: usize = 1200;
    const WORKERS: [usize; 4] = [1, 2, 4, 8];
    let batch_sizes = [1usize, 64, 1024];
    let mut mismatches = 0usize;
    let mut executed = 0usize;
    for qi in 0..N {
        let sql = gen_query(&mut rng);
        let bs = batch_sizes[qi % batch_sizes.len()];
        let (row_result, parallel_results) = run_matrix(&db, &sql, bs, &WORKERS, None);
        let rr = match row_result {
            Ok(rr) => rr,
            // both sides failing is agreement; verify every worker
            // count concurs and move on
            Err(_) => {
                for (w, pr) in WORKERS.iter().zip(&parallel_results) {
                    if pr.is_ok() {
                        mismatches += 1;
                        eprintln!(
                            "MISMATCH [{qi}] w={w} bs={bs}: row err, parallel ok\n  sql: {sql}"
                        );
                    }
                }
                continue;
            }
        };
        executed += 1;
        let ordered = sql.contains(" ORDER BY ");
        let rr_canon = canon(rr.clone());
        let mut first_parallel: Option<Vec<Row>> = None;
        for (w, pr) in WORKERS.iter().zip(&parallel_results) {
            let br = match pr {
                Ok(br) => br.clone(),
                Err(e) => {
                    mismatches += 1;
                    eprintln!(
                        "MISMATCH [{qi}] w={w} bs={bs}: row ok, parallel err ({e})\n  sql: {sql}"
                    );
                    continue;
                }
            };
            let same = if ordered {
                rr == br
            } else {
                rr_canon == canon(br.clone())
            };
            if !same {
                mismatches += 1;
                eprintln!(
                    "MISMATCH [{qi}] w={w} bs={bs}: row={} rows, parallel={} rows\n  sql: {sql}",
                    rr.len(),
                    br.len()
                );
            }
            // determinism across thread counts: positional, bitwise
            match &first_parallel {
                None => first_parallel = Some(br),
                Some(base) => {
                    if *base != br {
                        mismatches += 1;
                        eprintln!(
                            "NONDETERMINISM [{qi}] w={w} bs={bs}: differs from w={}\n  sql: {sql}",
                            WORKERS[0]
                        );
                    }
                }
            }
        }
    }
    assert!(
        executed >= N * 9 / 10,
        "generator produced too many failing queries: {executed}/{N} executed"
    );
    assert_eq!(mismatches, 0, "{mismatches} thread-matrix mismatches");
}

/// The knob path end-to-end: `SET exec_parallelism = N` must be
/// invisible in query results served through `Database::execute`.
#[test]
fn exec_parallelism_knob_is_result_invisible() {
    let mut rng = StdRng::seed_from_u64(0xCAB);
    let db = Database::new();
    setup(&db, &mut rng).expect("corpus setup");
    let workload = [
        "SELECT users.age, COUNT(*), MIN(users.id), MAX(users.id) FROM users \
         GROUP BY users.age ORDER BY age",
        "SELECT COUNT(*), COUNT(sparse.v), SUM(sparse.v) FROM sparse",
        "SELECT users.id, users.score FROM users WHERE users.age > 40 ORDER BY id DESC LIMIT 17",
        "SELECT sparse.s, COUNT(*) FROM sparse WHERE sparse.v IS NOT NULL GROUP BY sparse.s",
        "SELECT AVG(orders.amount), MIN(orders.tag) FROM orders WHERE orders.user_id < 120",
    ];
    db.execute("SET exec_parallelism = 1").expect("knob");
    let baseline: Vec<Vec<Row>> = workload
        .iter()
        .map(|sql| db.execute(sql).expect("serial run").rows().to_vec())
        .collect();
    for w in [2usize, 4, 8] {
        db.execute(&format!("SET exec_parallelism = {w}"))
            .expect("knob");
        for (sql, expect) in workload.iter().zip(&baseline) {
            let got = db.execute(sql).expect("parallel run").rows().to_vec();
            assert_eq!(&got, expect, "workers={w}: {sql}");
        }
    }
}

/// `i64::MIN / -1` and `i64::MIN % -1` wrap, as `+`, `-` and `*` do:
/// in the row oracle, at every worker count, with and without FROM, and
/// through `Database::execute` at `exec_parallelism` 1 and 2 (where a
/// morsel worker used to panic on the quotient).
#[test]
fn int_division_overflow_wraps_at_every_worker_count() {
    let db = join_keys_tables();
    let min = Value::Int(i64::MIN);
    let over_table = "SELECT (0 - 9223372036854775807 - 1) / (0 - 1), \
                      (0 - 9223372036854775807 - 1) % (0 - 1), id FROM jl";
    for sql in ["SELECT (0 - 9223372036854775807 - 1) / (0 - 1)", over_table] {
        let rows = assert_matrix_matches_in_order(&db, sql);
        assert!(!rows.is_empty(), "{sql}");
        assert!(rows.iter().all(|r| r.get(0) == &min), "{sql}: {rows:?}");
    }
    for w in [1, 2] {
        db.execute(&format!("SET exec_parallelism = {w}"))
            .expect("knob");
        let rows = db.execute(over_table).expect("query").rows().to_vec();
        assert_eq!(rows.len(), 21, "workers={w}");
        for r in rows {
            assert_eq!(
                &r.values()[..2],
                &[min.clone(), Value::Int(0)],
                "workers={w}"
            );
        }
    }
}

/// A SELECT without FROM takes its ORDER BY and LIMIT like any other.
#[test]
fn order_by_and_limit_apply_without_from() {
    let db = join_keys_tables();
    let cases = [
        ("SELECT 1 AS a LIMIT 0", 0),
        ("SELECT 1 AS a ORDER BY a LIMIT 1", 1),
    ];
    for (sql, n) in cases {
        assert_eq!(assert_matrix_matches_in_order(&db, sql).len(), n, "{sql}");
    }
    for w in [1, 2] {
        db.execute(&format!("SET exec_parallelism = {w}"))
            .expect("knob");
        for (sql, n) in cases {
            let r = db.execute(sql).expect("query");
            assert_eq!(r.rows().len(), n, "workers={w}: {sql}");
        }
    }
}

/// Aggregates over Text and Bool arguments with NULLs, position by
/// position against the row oracle. The generated corpus aggregates
/// numeric columns only, whose NULL lanes the executor drops before its
/// fold; these reach the fold with NULL values, so a COUNT(x) that
/// counted NULLs, or a MIN/MAX that let one win, would differ from the
/// oracle's own fold.
#[test]
fn aggregates_over_nullable_text_and_bool_match_row_oracle_in_order() {
    let mut rng = StdRng::seed_from_u64(7);
    let db = Database::new();
    setup(&db, &mut rng).expect("corpus setup");
    let queries = [
        "SELECT COUNT(s), MIN(s), MAX(s), COUNT(*) FROM sparse",
        "SELECT k, COUNT(s), MAX(s) FROM sparse GROUP BY k",
        "SELECT COUNT(v > 0), MIN(w < 0), MAX(w < 0) FROM sparse",
        "SELECT s, COUNT(k = 3), COUNT(*) FROM sparse GROUP BY s",
    ];
    for sql in queries {
        let rows = assert_matrix_matches_in_order(&db, sql);
        assert!(!rows.is_empty(), "{sql}");
    }
    // 150 rows, each column NULL with p = 0.4: COUNT(s) must skip some
    let global = assert_matrix_matches_in_order(&db, queries[0]);
    let (count_s, count_all) = (global[0].get(0), global[0].get(3));
    assert!(
        count_s < count_all,
        "COUNT(s) {count_s:?} vs COUNT(*) {count_all:?}"
    );
}

/// Hand-picked edge queries the random generator could plausibly miss:
/// NULL arithmetic in projections, all-NULL aggregates, NULL sort keys.
#[test]
fn null_heavy_edges_match() {
    let mut rng = StdRng::seed_from_u64(7);
    let db = Database::new();
    setup(&db, &mut rng).expect("corpus setup");
    let queries = [
        "SELECT k + v, w * 2 FROM sparse",
        "SELECT SUM(v), AVG(v), MIN(v), MAX(v), COUNT(v) FROM sparse WHERE k IS NULL",
        "SELECT s, SUM(w) FROM sparse GROUP BY s ORDER BY s",
        "SELECT v, k FROM sparse ORDER BY v, k LIMIT 20",
        "SELECT COUNT(*) FROM sparse WHERE v > 0 OR v <= 0",
        "SELECT k, v FROM sparse WHERE v BETWEEN -5 AND 5 ORDER BY k DESC",
        "SELECT users.id, sparse.v FROM users JOIN sparse ON users.id = sparse.k \
         WHERE sparse.v IS NOT NULL",
    ];
    for sql in queries {
        for bs in [1usize, 3, 1024] {
            let (rr, br) = run_both(&db, sql, bs);
            let rr = rr.unwrap_or_else(|e| panic!("row executor failed ({e}): {sql}"));
            let br = br.unwrap_or_else(|e| panic!("batch executor failed ({e}): {sql}"));
            let same = if sql.contains(" ORDER BY ") {
                rr == br
            } else {
                canon(rr) == canon(br)
            };
            assert!(same, "bs={bs}: {sql}");
        }
    }
}

#[test]
fn empty_table_edges_match() {
    let mut rng = StdRng::seed_from_u64(9);
    let db = Database::new();
    setup(&db, &mut rng).expect("corpus setup");
    let queries = [
        "SELECT * FROM void",
        "SELECT a + 1 FROM void WHERE b LIKE 'x%' ORDER BY col0 LIMIT 3",
        "SELECT COUNT(*), SUM(a), AVG(c), MIN(b), MAX(a) FROM void",
        "SELECT b, COUNT(*) FROM void GROUP BY b",
        "SELECT void.a, users.id FROM void JOIN users ON void.a = users.id",
        "SELECT users.id, void.a FROM users JOIN void ON users.id = void.a",
    ];
    for sql in queries {
        for bs in [1usize, 1024] {
            let (rr, br) = run_both(&db, sql, bs);
            let rr = rr.unwrap_or_else(|e| panic!("row executor failed ({e}): {sql}"));
            let br = br.unwrap_or_else(|e| panic!("batch executor failed ({e}): {sql}"));
            assert_eq!(canon(rr), canon(br), "bs={bs}: {sql}");
        }
    }
}

/// `PREDICT` in WHERE, in projections and as an aggregate argument, with
/// cheap conjuncts before and after it, over dense, NULL-heavy and empty
/// tables. A NULL reaching a model is a type error; whether it reaches
/// one depends on the conjunct cascade, which both executors must apply
/// alike — so results must agree in rows *and* in error category.
#[test]
fn predict_corpus_matches_row_reference() {
    let mut rng = StdRng::seed_from_u64(0x9ED1C7);
    let db = Database::new();
    setup(&db, &mut rng).expect("corpus setup");
    db.set_model_hook(Arc::new(StubModels));
    let _ = parking_lot::witness::take_violations();

    // (sql, whether it must succeed)
    let corpus = [
        ("SELECT id FROM users WHERE PREDICT(lin, age, score) > 20", true),
        ("SELECT id, PREDICT(lin, age, score), PREDICT(cls, age) FROM users WHERE age < 40 ORDER BY id", true),
        ("SELECT AVG(PREDICT(lin, age, score)), SUM(PREDICT(cls, age)), COUNT(*) FROM users", true),
        ("SELECT name, MAX(PREDICT(lin, age, score)), COUNT(*) FROM users GROUP BY name ORDER BY name", true),
        ("SELECT id FROM users WHERE PREDICT(cls, age) = 1 AND score > 50", true),
        ("SELECT id FROM users WHERE score > 50 AND PREDICT(cls, age) = 1", true),
        ("SELECT id FROM users WHERE id < 150 AND PREDICT(lin, age, score) > 10 AND name LIKE '%a%' ORDER BY id DESC LIMIT 9", true),
        ("SELECT id FROM users WHERE age > 25 AND PREDICT(cls, age) = 0", true),
        ("SELECT id FROM users WHERE PREDICT(lin, age, score) IN (PREDICT(lin, age, 0), 3)", true),
        ("SELECT users.id, orders.oid FROM users JOIN orders ON users.id = orders.user_id \
          WHERE PREDICT(lin, users.age, orders.amount) > -50 AND orders.amount > 100", true),
        // NULL-heavy: cheap conjuncts shield the model, wherever written
        ("SELECT k FROM sparse WHERE v IS NOT NULL AND w IS NOT NULL AND PREDICT(lin, v, w) > 0", true),
        ("SELECT k FROM sparse WHERE PREDICT(lin, v, w) > 0 AND v IS NOT NULL AND w IS NOT NULL", true),
        ("SELECT COUNT(*), SUM(PREDICT(cls, v)) FROM sparse WHERE v > -100", true),
        ("SELECT PREDICT(cls, v) FROM sparse WHERE v IS NOT NULL", true),
        // ... and without a shield the NULL arrives, in both executors
        ("SELECT k FROM sparse WHERE PREDICT(lin, v, w) > 0", false),
        ("SELECT k FROM sparse WHERE v IS NOT NULL AND PREDICT(lin, v, w) > 0", false),
        ("SELECT PREDICT(cls, v) FROM sparse", false),
        ("SELECT AVG(PREDICT(cls, v)) FROM sparse", false),
        ("SELECT k FROM sparse WHERE ABS(v) >= 0 AND PREDICT(cls, s) = 1", false),
        // empty table: nothing to predict, one row from the aggregate
        ("SELECT PREDICT(lin, a, c) FROM void", true),
        ("SELECT COUNT(*), AVG(PREDICT(cls, a)) FROM void WHERE PREDICT(lin, a, c) > 1", true),
        // no FROM: one row, its models bound as over a table
        ("SELECT PREDICT(lin, 4, 2), PREDICT(cls, 31) AS c", true),
        ("SELECT PREDICT(cls, 1) + 1 AS p ORDER BY p LIMIT 1", true),
    ];
    let fns = ByName(StubModels);
    for (sql, ok) in corpus {
        let stmts = parse(sql).unwrap_or_else(|e| panic!("unparseable SQL ({e}): {sql}"));
        let Some(Statement::Select(sel)) = stmts.into_iter().next() else {
            panic!("not a SELECT: {sql}");
        };
        let plan = match db.plan(&sel) {
            Ok(plan) => plan,
            // a text argument never gets as far as an executor
            Err(e) => {
                assert!(
                    !ok && e.category() == "type_mismatch",
                    "planner ({e}): {sql}"
                );
                continue;
            }
        };
        let want = execute(&plan, &ExecContext::new(&db.catalog, &fns));
        assert_eq!(want.is_ok(), ok, "row reference {want:?}: {sql}");
        for bs in [1usize, 7, 64, 1024] {
            for workers in [1usize, 2, 4, 8] {
                // the batch executor gets no PREDICT by name: bound models only
                let ctx = ExecContext::new(&db.catalog, &BuiltinFns);
                let got = execute_batched_parallel(&plan, &ctx, bs, workers);
                match (&want, got) {
                    (Ok(want), Ok(got)) => {
                        let same = if sql.contains(" ORDER BY ") {
                            *want == got
                        } else {
                            canon(want.clone()) == canon(got)
                        };
                        assert!(same, "bs={bs} workers={workers}: {sql}");
                    }
                    (Err(want), Err(got)) => assert_eq!(
                        want.category(),
                        got.category(),
                        "bs={bs} workers={workers}: {sql}"
                    ),
                    (want, got) => {
                        panic!("bs={bs} workers={workers}: row {want:?} vs batch {got:?}: {sql}")
                    }
                }
            }
        }
    }
    if parking_lot::witness::enabled() {
        let v = parking_lot::witness::take_violations();
        assert!(v.is_empty(), "lock-order violations: {v:?}");
    }
}

/// Move a scan's pushed-down predicate into a `Filter` node right above
/// it, so the operator that pulls past empty morsels is a `FilterOp`.
fn lift_scan_filter(plan: &mut PhysicalPlan) {
    match &mut plan.op {
        PhysOp::SeqScan { filter, .. } => {
            if let Some(predicate) = filter.take() {
                let scan = plan.clone();
                plan.op = PhysOp::Filter {
                    input: Box::new(scan),
                    predicate,
                };
            }
        }
        PhysOp::Filter { input, .. }
        | PhysOp::Project { input, .. }
        | PhysOp::Exchange { input }
        | PhysOp::Aggregate { input, .. } => lift_scan_filter(input),
        _ => {}
    }
}

/// Morsel boundaries. `band % 3 = 1` rejects two 600-row bands in three: each rejected
/// stretch covers more than two of the largest (16-page) morsels, so at
/// every worker count whole morsels filter to empty and the operator
/// above the scan pulls past them inside one call. Each query runs as
/// planned (predicate in the scan) and with the predicate lifted into a
/// `Filter` node; workers {2, 4, 8} × batch sizes {1, 7, 1024} must match
/// the serial run position by position. The corpus holds a fused grouped
/// aggregate and a float `SUM`, which stays on the serial fold.
/// `runs`: 9000 rows over well over 100 heap pages, `band` = `id / 600`.
fn runs_table() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE runs (id INT, band INT, g INT, x FLOAT, pad TEXT)")
        .expect("create");
    for chunk in (0..9000i64).collect::<Vec<_>>().chunks(500) {
        let rows: Vec<String> = chunk
            .iter()
            .map(|&i| {
                format!(
                    "({i}, {}, {}, {}.25, 'row{i:0>40}')",
                    i / 600,
                    i % 7,
                    i % 13
                )
            })
            .collect();
        db.execute(&format!("INSERT INTO runs VALUES {}", rows.join(",")))
            .expect("insert");
    }
    db.execute("ANALYZE").expect("analyze");
    db
}

#[test]
fn empty_morsels_keep_serial_order() {
    let db = runs_table();
    let queries = [
        "SELECT id, x FROM runs WHERE band % 3 = 1",
        "SELECT id * 2, g FROM runs WHERE band % 3 = 1 AND g < 5",
        // fused into the workers: COUNT/MIN/MAX and SUM over an Int column
        "SELECT g, COUNT(*), MIN(id), MAX(x), SUM(band) FROM runs WHERE band % 3 = 1 GROUP BY g",
        // a float SUM: morsel-ordered batches feed the serial fold
        "SELECT SUM(x), COUNT(*) FROM runs WHERE band % 3 = 1",
        // every morsel is empty
        "SELECT g, COUNT(*) FROM runs WHERE band < 0 GROUP BY g",
    ];
    let fns = BuiltinFns;
    for sql in queries {
        let Some(Statement::Select(sel)) = parse(sql).expect("parse").into_iter().next() else {
            panic!("not a SELECT: {sql}");
        };
        let planned = db.plan(&sel).expect("plan");
        let mut lifted = planned.clone();
        lift_scan_filter(&mut lifted);
        let want = execute(&planned, &ExecContext::new(&db.catalog, &fns)).expect("row run");
        for plan in [&planned, &lifted] {
            let serial =
                execute_batched_parallel(plan, &ExecContext::new(&db.catalog, &fns), 1024, 1)
                    .expect("serial run");
            assert_eq!(canon(serial.clone()), canon(want.clone()), "serial: {sql}");
            for workers in [2usize, 4, 8] {
                for bs in [1usize, 7, 1024] {
                    let ctx = ExecContext::new(&db.catalog, &fns);
                    let got =
                        execute_batched_parallel(plan, &ctx, bs, workers).expect("parallel run");
                    assert_eq!(got, serial, "workers={workers} bs={bs}: {sql}\n{plan:?}");
                }
            }
        }
    }
}

/// `jl` (21 rows) and `jr` (61 rows): join inputs whose keys cover the
/// hash join's key semantics — duplicates on both sides (N:M), NULLs on
/// both sides, an Int key against a Float column of integral values,
/// text keys, and 2^53 against 2^53 + 1 (one `f64`, two `i64`s).
/// `jnone` is empty.
fn join_keys_tables() -> Database {
    let db = Database::new();
    for ddl in [
        "CREATE TABLE jl (id INT, k INT, s TEXT)",
        "CREATE TABLE jr (id INT, k INT, f FLOAT, s TEXT)",
        "CREATE TABLE jnone (k INT, s TEXT)",
    ] {
        db.execute(ddl).expect("create");
    }
    let or_null = |null: bool, v: String| if null { "NULL".to_string() } else { v };
    let mut jl: Vec<String> = (0..20i64)
        .map(|i| {
            let k = or_null(i % 5 == 4, (i % 7).to_string());
            let s = or_null(i % 6 == 5, format!("'w{}'", i % 4));
            format!("({i}, {k}, {s})")
        })
        .collect();
    jl.push("(20, 9007199254740992, 'big')".into());
    let mut jr: Vec<String> = (0..60i64)
        .map(|i| {
            let k = or_null(i % 9 == 8, (i % 11).to_string());
            let f = or_null(i % 10 == 9, format!("{}.0", i % 8));
            let s = or_null(i % 7 == 6, format!("'w{}'", i % 5));
            format!("({i}, {k}, {f}, {s})")
        })
        .collect();
    jr.push("(60, 9007199254740993, 1.5, 'big')".into());
    db.execute(&format!("INSERT INTO jl VALUES {}", jl.join(",")))
        .expect("insert jl");
    db.execute(&format!("INSERT INTO jr VALUES {}", jr.join(",")))
        .expect("insert jr");
    db.execute("ANALYZE").expect("analyze");
    db
}

/// Run `sql` through the row oracle and the batch executor at workers
/// {1, 2, 4, 8} × batch sizes {1, 7, 1024}; every run must equal the
/// oracle position by position. Returns the oracle's rows.
fn assert_matrix_matches_in_order(db: &Database, sql: &str) -> Vec<Row> {
    assert_matrix_matches_in_order_at(db, sql, None)
}

/// [`assert_matrix_matches_in_order`], every run reading through `snap`.
fn assert_matrix_matches_in_order_at(db: &Database, sql: &str, snap: Option<Snapshot>) -> Vec<Row> {
    const WORKERS: [usize; 4] = [1, 2, 4, 8];
    let mut want = Vec::new();
    for bs in [1usize, 7, 1024] {
        let (rr, prs) = run_matrix(db, sql, bs, &WORKERS, snap);
        want = rr.unwrap_or_else(|e| panic!("row executor failed ({e}): {sql}"));
        for (w, pr) in WORKERS.iter().zip(prs) {
            let pr = pr.unwrap_or_else(|e| panic!("batch executor failed ({e}): {sql}"));
            assert_eq!(pr, want, "workers={w} bs={bs}: {sql}");
        }
    }
    want
}

/// Join-key semantics, position by position against the row oracle:
/// join output order (probe order × build-insertion order, columns left
/// then right) is part of the executor's contract, so no `canon`. The
/// build side is the smaller input, so `jl ⋈ jr` builds on the left and
/// `jr ⋈ jl` on the right.
#[test]
fn join_key_semantics_match_row_oracle_in_order() {
    let db = join_keys_tables();
    let queries = [
        // N:M duplicates and NULLs on both sides; build left, then right
        "SELECT jl.id, jr.id, jl.s FROM jl JOIN jr ON jl.k = jr.k",
        "SELECT jr.id, jl.id, jr.f FROM jr JOIN jl ON jr.k = jl.k",
        // Int key against integral floats, both ways round
        "SELECT jl.id, jr.id, jr.f FROM jl JOIN jr ON jl.k = jr.f",
        "SELECT jr.id, jl.id FROM jr JOIN jl ON jr.f = jl.k",
        // text keys
        "SELECT jl.id, jr.id, jr.s FROM jl JOIN jr ON jl.s = jr.s",
        // an equality plus a residual
        "SELECT jl.id, jr.id FROM jl JOIN jr ON jl.k = jr.k AND jr.id > jl.id + 20",
        // an empty build side, on either side
        "SELECT jnone.k, jr.id FROM jnone JOIN jr ON jnone.k = jr.k",
        "SELECT jr.id, jnone.s FROM jr JOIN jnone ON jr.s = jnone.s",
    ];
    for sql in queries {
        let Some(Statement::Select(sel)) = parse(sql).expect("parse").into_iter().next() else {
            panic!("not a SELECT: {sql}");
        };
        let plan = db.plan(&sel).expect("plan");
        assert!(
            plan.explain().contains("HashJoin"),
            "{sql}\n{}",
            plan.explain()
        );
        assert_matrix_matches_in_order(&db, sql);
    }
    // 2^53 and 2^53 + 1 share a hash but are different keys
    let (rr, prs) = run_matrix(
        &db,
        "SELECT jl.id, jr.id FROM jl JOIN jr ON jl.k = jr.k WHERE jl.id = 20",
        1024,
        &[1],
        None,
    );
    assert_eq!(rr.expect("row run"), Vec::<Row>::new());
    for pr in prs {
        assert_eq!(pr.expect("batch run"), Vec::<Row>::new());
    }
}

/// `SUM`/`AVG` over an Int column fold into an exact integer total, so
/// a fused partial sum past 2^53 does not depend on where the morsels
/// split: `bigs` holds 2^53 in its first row and 1 in the other 8999.
#[test]
fn int_sum_past_2_53_is_exact_at_every_worker_count() {
    let db = Database::new();
    db.execute("CREATE TABLE bigs (id INT, k INT)")
        .expect("create");
    for chunk in (0..9000i64).collect::<Vec<_>>().chunks(500) {
        let rows: Vec<String> = chunk
            .iter()
            .map(|&i| format!("({i}, {})", if i == 0 { 1i64 << 53 } else { 1 }))
            .collect();
        db.execute(&format!("INSERT INTO bigs VALUES {}", rows.join(",")))
            .expect("insert");
    }
    db.execute("ANALYZE").expect("analyze");
    let exact = ((1i64 << 53) + 8999) as f64;
    assert_eq!(
        assert_matrix_matches_in_order(&db, "SELECT SUM(k), AVG(k) FROM bigs"),
        vec![Row::new(vec![
            Value::Float(exact),
            Value::Float(exact / 9000.0)
        ])]
    );
    let grouped = assert_matrix_matches_in_order(
        &db,
        "SELECT id % 2, SUM(k), COUNT(*) FROM bigs GROUP BY id % 2",
    );
    assert_eq!(
        grouped[0].get(1),
        &Value::Float(((1i64 << 53) + 4499) as f64)
    );
}

/// GROUP BY key semantics, position by position against the row oracle:
/// first-seen group order is part of the executor's contract, so no
/// `canon`. NULL keys group together and apart from 0, 2^53 and 2^53 + 1
/// are two groups, and multi-column keys mix NULLs in either column.
#[test]
fn group_key_semantics_match_row_oracle_in_order() {
    let runs = runs_table();
    let runs_queries = [
        // 9000 distinct text keys: the key table grows many times
        "SELECT pad, COUNT(*) FROM runs GROUP BY pad",
        // two-column key, fused into the workers
        "SELECT g, band, COUNT(*), SUM(id), MAX(x) FROM runs GROUP BY g, band",
        // the same key with a float SUM, which stays on the serial fold
        "SELECT g, band, SUM(x) FROM runs GROUP BY g, band",
        // an expression key
        "SELECT id % 2500, COUNT(*), SUM(band) FROM runs GROUP BY id % 2500",
    ];
    let got: Vec<_> = runs_queries
        .iter()
        .map(|sql| assert_matrix_matches_in_order(&runs, sql))
        .collect();
    assert_eq!(got[0].len(), 9000);

    let joins = join_keys_tables();
    twins_table(&joins);
    let join_queries = [
        // two-column keys with NULLs in either column
        "SELECT k, s, COUNT(*), SUM(id) FROM jr GROUP BY k, s",
        "SELECT s, k, COUNT(*), MIN(id) FROM jl GROUP BY s, k",
        // an Int key whose NULL lanes hold 0 next to real 0 keys
        "SELECT k, COUNT(*) FROM jl GROUP BY k",
        // a Float key with NULLs
        "SELECT f, COUNT(*), MAX(s) FROM jr GROUP BY f",
    ];
    let got: Vec<_> = join_queries
        .iter()
        .map(|sql| assert_matrix_matches_in_order(&joins, sql))
        .collect();
    assert!(got[2].iter().any(|r| r.get(0) == &Value::Null));
    assert!(got[2].iter().any(|r| r.get(0) == &Value::Int(0)));
    // 2^53 and 2^53 + 1 share a hash but are two groups
    assert_eq!(
        assert_matrix_matches_in_order(&joins, "SELECT k, COUNT(*) FROM twins GROUP BY k"),
        vec![
            Row::new(vec![Value::Int(1 << 53), Value::Int(2)]),
            Row::new(vec![Value::Int((1 << 53) + 1), Value::Int(2)]),
            Row::new(vec![Value::Null, Value::Int(1)]),
        ]
    );
}

/// ORDER BY semantics, position by position against the row oracle: the
/// sort is stable, compares keys as `Value`s (DESC reversed, first
/// non-equal key wins), and its output is handed out in batch-size
/// slices, so a result longer than a batch spans many of them.
#[test]
fn sort_semantics_match_row_oracle_in_order() {
    let runs = runs_table();
    let runs_queries = [
        // mixed directions over all 9000 rows
        "SELECT id, g, x FROM runs ORDER BY g DESC, x, id DESC",
        // 600-row ties, already in key order
        "SELECT id, band FROM runs ORDER BY band",
        // ~1300-row ties out of key order: only a stable sort keeps heap
        // order inside each
        "SELECT id, g FROM runs ORDER BY g",
        // a text key
        "SELECT pad, id FROM runs ORDER BY pad DESC",
        // a fused aggregate that emits more than one slice, under a sort
        "SELECT id % 2500, COUNT(*) AS n, MIN(id) AS m FROM runs GROUP BY id % 2500 \
         ORDER BY n DESC, m",
        // the filter keeps no rows
        "SELECT id, pad FROM runs WHERE band < 0 ORDER BY id",
    ];
    let got: Vec<_> = runs_queries
        .iter()
        .map(|sql| assert_matrix_matches_in_order(&runs, sql))
        .collect();
    assert_eq!(got[0].len(), 9000);
    assert_eq!(got[1][600].get(0), &Value::Int(600));
    assert_eq!(got[4].len(), 2500);
    assert!(got[5].is_empty());

    let joins = join_keys_tables();
    twins_table(&joins);
    // NULLs in both keys
    assert_matrix_matches_in_order(&joins, "SELECT id, k, f FROM jr ORDER BY f DESC, k");
    // 2^53 and 2^53 + 1 compare exactly; NULL sorts first, so last here
    assert_eq!(
        assert_matrix_matches_in_order(&joins, "SELECT k FROM twins ORDER BY k DESC"),
        [(1i64 << 53) + 1, (1 << 53) + 1, 1 << 53, 1 << 53]
            .into_iter()
            .map(|k| Row::new(vec![Value::Int(k)]))
            .chain([Row::new(vec![Value::Null])])
            .collect::<Vec<_>>()
    );
    // a SELECT without FROM: one VALUES row
    assert_eq!(
        assert_matrix_matches_in_order(&joins, "SELECT 2 + 3 AS a, 'x' AS b ORDER BY a"),
        vec![Row::new(vec![Value::Int(5), Value::Text("x".into())])]
    );
}

/// ORDER BY keys the select list does not output sort under the final
/// projection: a column that is not selected, an aggregate that is not
/// selected, a GROUP BY key that is not selected, and an output alias
/// next to an unselected column, each with and without LIMIT. Keys tie
/// (`f` repeats, several groups share a sum), so only a stable sort over
/// the same input order matches the oracle position by position.
#[test]
fn order_by_unselected_columns_matches_row_oracle_in_order() {
    let jk = join_keys_tables();
    let cases: [(&str, usize); 8] = [
        ("SELECT id FROM jr ORDER BY f", 61),
        ("SELECT id FROM jr ORDER BY f LIMIT 5", 5),
        ("SELECT k FROM jr GROUP BY k ORDER BY SUM(f)", 13),
        (
            "SELECT k FROM jr GROUP BY k ORDER BY SUM(f) DESC LIMIT 3",
            3,
        ),
        ("SELECT COUNT(*) FROM jr GROUP BY k ORDER BY k", 13),
        ("SELECT COUNT(*) FROM jr GROUP BY k ORDER BY k LIMIT 4", 4),
        ("SELECT id AS x FROM jr ORDER BY f DESC, x", 61),
        ("SELECT id AS x FROM jr ORDER BY f DESC, x LIMIT 7", 7),
    ];
    for (sql, n) in cases {
        assert_eq!(assert_matrix_matches_in_order(&jk, sql).len(), n, "{sql}");
    }
}

/// A sort under the final projection leaves the plan's root schema the
/// select list, and a query whose keys are all in the select list still
/// sorts above it.
#[test]
fn order_by_unselected_columns_keeps_the_select_list_schema() {
    let jk = join_keys_tables();
    let plan = |sql: &str| {
        let Some(Statement::Select(sel)) = parse(sql).expect("parse").into_iter().next() else {
            panic!("not a SELECT: {sql}");
        };
        jk.plan(&sel).expect("plan")
    };
    let names = |p: &PhysicalPlan| -> Vec<String> {
        p.schema.columns().iter().map(|c| c.name.clone()).collect()
    };
    let sorted_under_projection = |p: &PhysicalPlan| match &p.op {
        PhysOp::Project { input, .. } => matches!(input.op, PhysOp::Sort { .. }),
        _ => false,
    };
    for (sql, cols) in [
        ("SELECT id FROM jr ORDER BY f", ["id"]),
        ("SELECT k FROM jr GROUP BY k ORDER BY SUM(f)", ["k"]),
    ] {
        let p = plan(sql);
        assert_eq!(names(&p), cols, "{sql}");
        assert!(sorted_under_projection(&p), "{sql}:\n{}", p.explain());
        let p = plan(&format!("{sql} LIMIT 2"));
        assert_eq!(names(&p), cols, "{sql} LIMIT 2");
        let PhysOp::Limit { input, .. } = &p.op else {
            panic!("no LIMIT at the root:\n{}", p.explain());
        };
        assert!(sorted_under_projection(input), "{sql}:\n{}", p.explain());
    }
    let p = plan("SELECT k, SUM(f) AS total FROM jr GROUP BY k ORDER BY total DESC, k");
    assert_eq!(names(&p), ["k", "total"]);
    assert!(matches!(p.op, PhysOp::Sort { .. }), "{}", p.explain());
}

/// `users` and the NULL-heavy `sparse` with the generated corpus's
/// columns and indexes (`idx_age`, `idx_k`), but 4000 rows each and
/// about 10 per key, so the planner probes the index for a key or a
/// few adjacent keys rather than scanning.
fn indexed_tables() -> Database {
    let mut rng = StdRng::seed_from_u64(0x1D5CA);
    let db = Database::new();
    for ddl in [
        "CREATE TABLE users (id INT, age INT, name TEXT, score FLOAT)",
        "CREATE TABLE sparse (k INT, v INT, w FLOAT, s TEXT)",
        "CREATE INDEX idx_age ON users (age)",
        "CREATE INDEX idx_k ON sparse (k)",
    ] {
        db.execute(ddl).expect("create");
    }
    let names = ["ann", "bob", "cal", "dee", "eli"];
    let maybe = |rng: &mut StdRng, v: String| if rng.gen_bool(0.4) { "NULL".into() } else { v };
    for chunk in (0..4000i64).collect::<Vec<_>>().chunks(500) {
        let users: Vec<String> = chunk
            .iter()
            .map(|&i| {
                let name = names[rng.gen_range(0..names.len())];
                let (age, score) = (rng.gen_range(0..400), rng.gen_range(0.0..100.0));
                format!("({i}, {age}, '{name}', {score:.2})")
            })
            .collect();
        db.execute(&format!("INSERT INTO users VALUES {}", users.join(",")))
            .expect("insert users");
        let sparse: Vec<String> = chunk
            .iter()
            .map(|&i| {
                let k = maybe(&mut rng, format!("{}", i % 240));
                let (v, w) = (rng.gen_range(-20..20), rng.gen_range(-5.0..5.0));
                let v = maybe(&mut rng, format!("{v}"));
                let w = maybe(&mut rng, format!("{w:.2}"));
                let s = maybe(&mut rng, format!("'s{}'", i % 6));
                format!("({k}, {v}, {w}, {s})")
            })
            .collect();
        db.execute(&format!("INSERT INTO sparse VALUES {}", sparse.join(",")))
            .expect("insert sparse");
    }
    db.execute("ANALYZE").expect("analyze");
    db
}

/// Plan `sql` and check that it reads its table through an index.
fn assert_index_scan(db: &Database, sql: &str) {
    let Some(Statement::Select(sel)) = parse(sql).expect("parse").into_iter().next() else {
        panic!("not a SELECT: {sql}");
    };
    let explain = db.plan(&sel).expect("plan").explain();
    assert!(explain.contains("IndexScan"), "{sql}\n{explain}");
}

/// Index scans decode each fetched tuple straight into the batch's
/// lanes; position by position against the row oracle, which fetches
/// `Row`s, on point probes, open and closed ranges, a NULL-heavy key,
/// Text payloads and a residual that keeps nothing — and through an open
/// transaction's snapshot after it updated, deleted and inserted rows
/// the index still points at.
#[test]
fn index_scan_fetch_matches_row_oracle_in_order() {
    let db = indexed_tables();
    let queries = [
        // point probe, Text payload
        "SELECT id, name, age FROM users WHERE age = 30",
        // open range, above and below
        "SELECT name, id, score FROM users WHERE age > 396",
        "SELECT id, age FROM users WHERE age < 3",
        // closed range, as BETWEEN and as two conjuncts
        "SELECT id, score, name FROM users WHERE age BETWEEN 40 AND 43",
        "SELECT id, score, name FROM users WHERE age >= 40 AND age <= 43",
        // NULL-heavy key and payload columns
        "SELECT k, v, w, s FROM sparse WHERE k = 7",
        "SELECT s, k FROM sparse WHERE k BETWEEN 30 AND 33",
    ];
    let results: Vec<Vec<Row>> = queries
        .iter()
        .map(|sql| {
            assert_index_scan(&db, sql);
            let rows = assert_matrix_matches_in_order(&db, sql);
            assert!(!rows.is_empty(), "the probe should find rows: {sql}");
            rows
        })
        .collect();
    assert!(results[5].iter().any(|r| r.values().contains(&Value::Null)));
    // a residual that keeps no rows
    let none = "SELECT id, name FROM users WHERE age = 30 AND score < 0";
    assert_index_scan(&db, none);
    assert!(assert_matrix_matches_in_order(&db, none).is_empty());

    // an open transaction moves rows off, onto and out of the probed
    // keys; its snapshot sees that, every other reader the old rows
    let h = db.begin_txn().expect("begin");
    for sql in [
        "UPDATE users SET age = 31, name = 'moved' WHERE age = 30",
        "UPDATE users SET name = 'renamed' WHERE age = 33",
        "DELETE FROM users WHERE age = 32",
        "INSERT INTO users VALUES (1000, 30, 'fresh', 1.5)",
        "UPDATE sparse SET s = 'upd' WHERE k = 7",
    ] {
        db.execute_in(&h, sql).expect("txn write");
    }
    let snapshot_queries = [
        "SELECT id, name, age FROM users WHERE age = 30",
        "SELECT id, name, age FROM users WHERE age = 31",
        "SELECT id, name FROM users WHERE age BETWEEN 30 AND 33",
        "SELECT k, s FROM sparse WHERE k = 7",
    ];
    for sql in snapshot_queries {
        assert_index_scan(&db, sql);
        let mine = assert_matrix_matches_in_order_at(&db, sql, Some(h.snapshot()));
        let theirs = assert_matrix_matches_in_order(&db, sql);
        assert_ne!(mine, theirs, "the transaction's writes should show: {sql}");
    }
    db.rollback_txn(&h).expect("rollback");
}

/// `twins`: 2^53 and 2^53 + 1, twice each, then a NULL.
fn twins_table(db: &Database) {
    db.execute("CREATE TABLE twins (k INT)").expect("create");
    db.execute(
        "INSERT INTO twins VALUES (9007199254740992), (9007199254740993), \
         (9007199254740992), (9007199254740993), (NULL)",
    )
    .expect("insert");
}

/// A function registry that panics on `ABS`.
struct PanicOnAbs;

impl ScalarFns for PanicOnAbs {
    fn call(&self, name: &str, args: &[Value]) -> Result<Value> {
        assert!(!name.eq_ignore_ascii_case("ABS"), "ABS called");
        BuiltinFns.call(name, args)
    }
}

/// A panic on a morsel worker surfaces as an execution error of the
/// statement, not as a panic of the caller.
#[test]
fn worker_panic_is_an_execution_error() {
    let db = runs_table();
    let Some(Statement::Select(sel)) = parse("SELECT ABS(id) FROM runs WHERE g = 3")
        .expect("parse")
        .into_iter()
        .next()
    else {
        panic!("not a SELECT");
    };
    let plan = db.plan(&sel).expect("plan");
    let ctx = ExecContext::new(&db.catalog, &PanicOnAbs);
    match execute_batched_parallel(&plan, &ctx, 1024, 2) {
        Err(e) => assert_eq!(e.category(), "execution", "{e}"),
        Ok(rows) => panic!("ran to completion with {} rows", rows.len()),
    }
}

/// `one`: five rows on one heap page, so its scan is one morsel.
fn one_page_table() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE one (id INT, g INT)")
        .expect("create");
    db.execute("INSERT INTO one VALUES (-1, 3), (2, 3), (-3, 1), (4, 3), (5, 0)")
        .expect("insert");
    db
}

/// Plan `sql`, which must put an `Exchange` at its root's input.
fn plan_exchange(db: &Database, sql: &str) -> PhysicalPlan {
    let Some(Statement::Select(sel)) = parse(sql).expect("parse").into_iter().next() else {
        panic!("not a SELECT: {sql}");
    };
    let plan = db.plan(&sel).expect("plan");
    assert!(
        plan.explain().contains("Exchange"),
        "{sql}: {}",
        plan.explain()
    );
    plan
}

/// A function registry that notes the thread of every call.
#[derive(Default)]
struct ThreadLog(Mutex<Vec<ThreadId>>);

impl ScalarFns for ThreadLog {
    fn call(&self, name: &str, args: &[Value]) -> Result<Value> {
        self.0
            .lock()
            .expect("log")
            .push(std::thread::current().id());
        BuiltinFns.call(name, args)
    }
}

/// Run `plan` at `workers` and return the distinct threads its function
/// calls ran on.
fn call_threads(db: &Database, plan: &PhysicalPlan, workers: usize) -> HashSet<ThreadId> {
    let log = ThreadLog::default();
    let ctx = ExecContext::new(&db.catalog, &log);
    execute_batched_parallel(plan, &ctx, 1024, workers).expect("run");
    let calls = log.0.into_inner().expect("log");
    assert!(!calls.is_empty(), "no function was called");
    calls.into_iter().collect()
}

/// A region runs on `min(workers, morsels)` workers, the calling thread
/// being the first: a one-morsel region runs wholly on the caller, and a
/// many-morsel region on at most `workers` threads, the caller one of
/// them.
#[test]
fn a_region_runs_on_the_caller_and_at_most_one_thread_per_morsel() {
    let me = std::thread::current().id();
    let one = one_page_table();
    let plan = plan_exchange(&one, "SELECT ABS(id) FROM one WHERE g = 3");
    for workers in [2usize, 4, 8] {
        let threads = call_threads(&one, &plan, workers);
        assert_eq!(threads, HashSet::from([me]), "workers={workers}");
    }
    // the caller starts the other workers before it claims a morsel, so
    // on a busy host they may drain the dispenser first; over ten runs
    // it must take part at least once
    let runs = runs_table();
    let plan = plan_exchange(&runs, "SELECT ABS(id) FROM runs WHERE g = 3");
    let mut caller_worked = false;
    for _ in 0..10 {
        let threads = call_threads(&runs, &plan, 4);
        assert!(threads.len() <= 4, "{} threads", threads.len());
        caller_worked |= threads.contains(&me);
    }
    assert!(caller_worked, "the caller ran no morsel");
}

/// `PREDICT` in a SELECT without FROM runs as the same call over a
/// table row does.
#[test]
fn predict_without_from_matches_the_call_over_a_table() {
    let db = one_page_table();
    db.set_model_hook(Arc::new(StubModels));
    let lone = db.execute("SELECT PREDICT(lin, 4, 3)").expect("no FROM");
    let over = db
        .execute("SELECT PREDICT(lin, id, g) FROM one WHERE id = 4")
        .expect("over one");
    assert_eq!(lone.rows(), over.rows());
    assert_eq!(lone.rows(), &[Row::new(vec![Value::Float(2.25)])]);
}

/// A panic on the worker that runs on the calling thread is an execution
/// error too: a one-morsel region starts no thread to catch it.
#[test]
fn caller_worker_panic_is_an_execution_error() {
    let db = one_page_table();
    let plan = plan_exchange(&db, "SELECT ABS(id) FROM one WHERE g = 3");
    let ctx = ExecContext::new(&db.catalog, &PanicOnAbs);
    match execute_batched_parallel(&plan, &ctx, 1024, 2) {
        Err(e) => assert_eq!(e.category(), "execution", "{e}"),
        Ok(rows) => panic!("ran to completion with {} rows", rows.len()),
    }
}

/// The `cols=[…]` list of every scan in `sql`'s plan, in EXPLAIN's line
/// order.
fn scan_cols(db: &Database, sql: &str) -> Vec<String> {
    let Some(Statement::Select(sel)) = parse(sql).expect("parse").into_iter().next() else {
        panic!("not a SELECT: {sql}");
    };
    let explain = db.plan(&sel).expect("plan").explain();
    explain
        .lines()
        .filter(|l| l.contains("Scan "))
        .map(|l| {
            let at = l.find("cols=[").unwrap_or_else(|| panic!("no cols: {l}"));
            let end = at + l[at..].find(']').expect("closing bracket");
            l[at + "cols=".len()..=end].to_string()
        })
        .collect()
}

/// Scans decode only the columns some operator above them uses, so
/// every width above them narrows too: position by position against the
/// row oracle (which projects whole rows itself) on workers {1, 2, 4, 8}
/// × batch sizes {1, 7, 1024}, with the columns each scan reads pinned
/// by EXPLAIN — a zero-width `COUNT(*)` (through morsels, and on both
/// sides of a cross join), a self-join whose aliases prune differently,
/// `SELECT *`, a column read only by a join key, a hash-join residual, a
/// filter above a join or a scan filter, a sort over an aggregate (ORDER
/// BY names select-list columns only), an unreferenced Text column, and
/// narrowed index scans, one over a two-conjunct range.
#[test]
fn pruned_scans_match_row_oracle_in_order() {
    let runs = runs_table();
    let jk = join_keys_tables();
    let idx = indexed_tables();
    let cases: [(&Database, &str, &[&str]); 14] = [
        (&runs, "SELECT COUNT(*) FROM runs", &["[]"]),
        (
            &runs,
            "SELECT COUNT(*), MAX(band) FROM runs WHERE g = 3",
            &["[band, g]"],
        ),
        (&jk, "SELECT COUNT(*) FROM jl, jr", &["[]", "[]"]),
        // `pad` is Text and never read
        (
            &runs,
            "SELECT id, x FROM runs WHERE band = 2 ORDER BY x DESC, id",
            &["[id, band, x]"],
        ),
        (
            &jk,
            "SELECT a.id, b.f FROM jr a JOIN jr b ON a.k = b.id",
            &["[id, k]", "[id, f]"],
        ),
        (
            &jk,
            "SELECT * FROM jl JOIN jr ON jl.k = jr.k",
            &["[id, k, s]", "[id, k, f, s]"],
        ),
        (
            &jk,
            "SELECT jl.s FROM jl JOIN jr ON jl.k = jr.k",
            &["[k, s]", "[k]"],
        ),
        (
            &jk,
            "SELECT jl.s FROM jl JOIN jr ON jl.k = jr.k AND jl.id = jr.id",
            &["[id, k, s]", "[id, k]"],
        ),
        (
            &jk,
            "SELECT jl.id FROM jl JOIN jr ON jl.k = jr.k WHERE jr.f > jl.id",
            &["[id, k]", "[k, f]"],
        ),
        // ORDER BY binds to the select list, so it reads through it
        (
            &jk,
            "SELECT k, SUM(f) AS total FROM jr GROUP BY k ORDER BY total DESC, k",
            &["[k, f]"],
        ),
        (&jk, "SELECT id FROM jr WHERE f > 2.0", &["[id, f]"]),
        (
            &idx,
            "SELECT COUNT(*) FROM users WHERE age = 30",
            &["[age]"],
        ),
        (
            &idx,
            "SELECT id FROM users WHERE age >= 40 AND age <= 43",
            &["[id, age]"],
        ),
        (&idx, "SELECT s FROM sparse WHERE k = 7", &["[k, s]"]),
    ];
    for (db, sql, cols) in cases {
        let mut got = scan_cols(db, sql);
        let mut want: Vec<String> = cols.iter().map(|c| c.to_string()).collect();
        // which side of a join EXPLAIN prints first is the planner's call
        got.sort();
        want.sort();
        assert_eq!(got, want, "{sql}");
        if sql.contains("users") || sql.contains("sparse") {
            assert_index_scan(db, sql);
        }
        let rows = assert_matrix_matches_in_order(db, sql);
        assert!(!rows.is_empty(), "{sql}");
    }

    // PREDICT reads its feature columns and nothing else; the row oracle
    // calls the model by name, the batch executor the bound version
    idx.set_model_hook(Arc::new(StubModels));
    let sql = "SELECT PREDICT(lin, age, score) FROM users";
    assert_eq!(scan_cols(&idx, sql), ["[age, score]"]);
    let Some(Statement::Select(sel)) = parse(sql).expect("parse").into_iter().next() else {
        panic!("not a SELECT: {sql}");
    };
    let plan = idx.plan(&sel).expect("plan");
    let want =
        execute(&plan, &ExecContext::new(&idx.catalog, &ByName(StubModels))).expect("row run");
    assert_eq!(want.len(), 4000);
    for bs in [1usize, 7, 1024] {
        for workers in [1usize, 2, 4, 8] {
            let ctx = ExecContext::new(&idx.catalog, &BuiltinFns);
            let got = execute_batched_parallel(&plan, &ctx, bs, workers).expect("batch run");
            assert_eq!(got, want, "bs={bs} workers={workers}: {sql}");
        }
    }
}
