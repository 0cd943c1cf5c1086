//! UPDATE/DELETE differential: the index is only a candidate filter.
//!
//! One seeded statement stream runs against a database whose tables are
//! indexed and against a twin that dropped every index. DML on the first
//! probes an index wherever the planner says so, DML on the twin always
//! scans; the two must agree on every statement's affected count or error
//! category, on what each transaction reads back of its own writes, and on
//! the final contents — including after a statement that failed inside a
//! transaction, which must leave nothing of itself behind.

use aimdb::common::{AimError, Row, Value};
use aimdb::engine::{Database, QueryResult, TxnHandle};
use rand::{Rng, SeedableRng, StdRng};

const ROWS: i64 = 1200;

/// `t(id, k, d, g, v, f)`: `id` never changes and orders the dumps; `k` is
/// unique and NULL on every 50th row, `d` holds every key twice, `g` has
/// seven values (the planner scans for it, index or not), `f` is a float.
fn build(indexed: bool) -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE t (id INT NOT NULL, k INT, d INT, g INT, v INT, f FLOAT)")
        .unwrap();
    for col in ["k", "d", "g", "f"] {
        db.execute(&format!("CREATE INDEX t_{col} ON t ({col})"))
            .unwrap();
    }
    let rows = (0..ROWS)
        .map(|i| {
            vec![
                Value::Int(i),
                if i % 50 == 7 {
                    Value::Null
                } else {
                    Value::Int(i)
                },
                Value::Int(i / 2),
                Value::Int(i % 7),
                Value::Int(0),
                Value::Float(i as f64 * 0.5),
            ]
        })
        .collect();
    db.insert_rows("t", rows).unwrap();
    db.execute("ANALYZE").unwrap();
    if !indexed {
        for col in ["k", "d", "g", "f"] {
            db.execute(&format!("DROP INDEX t_{col}")).unwrap();
        }
    }
    db
}

/// What a statement did, reduced to what both databases must agree on.
fn outcome(r: Result<QueryResult, AimError>) -> Result<Vec<Row>, &'static str> {
    match r {
        Ok(QueryResult::Affected(n)) => Ok(vec![Row::new(vec![Value::Int(n as i64)])]),
        Ok(QueryResult::Rows { rows, .. }) => Ok(rows),
        Ok(QueryResult::Text(t)) => panic!("unexpected text result {t}"),
        Err(e) => Err(e.category()),
    }
}

struct Pair {
    indexed: Database,
    scanned: Database,
}

impl Pair {
    /// Run `sql` on both sides — inside the given pair of transactions, or
    /// autocommitted — and require the same outcome.
    fn both(&self, txns: Option<&(TxnHandle, TxnHandle)>, sql: &str) -> Result<Vec<Row>, &str> {
        let run = |db: &Database, h: Option<&TxnHandle>| match h {
            Some(h) => db.execute_in(h, sql),
            None => db.execute(sql),
        };
        let a = outcome(run(&self.indexed, txns.map(|t| &t.0)));
        let b = outcome(run(&self.scanned, txns.map(|t| &t.1)));
        assert_eq!(a, b, "diverged on: {sql}");
        a
    }

    fn begin(&self) -> (TxnHandle, TxnHandle) {
        (
            self.indexed.begin_txn().unwrap(),
            self.scanned.begin_txn().unwrap(),
        )
    }

    fn end(&self, txns: (TxnHandle, TxnHandle), commit: bool) {
        if commit {
            self.indexed.commit_txn(&txns.0).unwrap();
            self.scanned.commit_txn(&txns.1).unwrap();
        } else {
            self.indexed.rollback_txn(&txns.0).unwrap();
            self.scanned.rollback_txn(&txns.1).unwrap();
        }
    }

    fn same_contents(&self, when: &str) {
        let dump = "SELECT id, k, d, g, v, f FROM t ORDER BY id, v, k";
        let a = self.indexed.execute(dump).unwrap();
        let b = self.scanned.execute(dump).unwrap();
        assert_eq!(a.rows(), b.rows(), "contents diverged {when}");
    }
}

fn explain(db: &Database, sql: &str) -> String {
    match db.execute(&format!("EXPLAIN {sql}")).unwrap() {
        QueryResult::Text(t) => t,
        other => panic!("{other:?}"),
    }
}

/// One random write statement. Every shape the issue names is here: point,
/// narrow and wide range, residual conjuncts, NULL and float literals,
/// duplicate keys, key-changing updates.
fn random_dml(rng: &mut StdRng) -> String {
    let c = rng.gen_range(0i64..ROWS + 20);
    let w = rng.gen_range(0i64..12);
    match rng.gen_range(0u32..16) {
        0 => format!("UPDATE t SET v = v + 1 WHERE k = {c}"),
        1 => format!("DELETE FROM t WHERE k = {c}"),
        2 => format!("UPDATE t SET v = v + 1 WHERE k >= {c} AND k <= {}", c + w),
        3 => format!("UPDATE t SET v = v + 2 WHERE k BETWEEN {c} AND {}", c + w),
        4 => format!("DELETE FROM t WHERE k > {c} AND k < {}", c + w / 3),
        5 => format!("UPDATE t SET v = v + 1 WHERE k = {c} AND g = {}", c % 7),
        6 => format!("UPDATE t SET v = v + 1 WHERE d = {} AND v >= 0", c / 2),
        7 => format!("UPDATE t SET v = v + 1 WHERE d = {}.0", c / 2),
        8 => format!("UPDATE t SET v = v + 1 WHERE k = {c}.5"),
        9 => "UPDATE t SET v = v + 1 WHERE k = NULL".to_string(),
        10 => format!("UPDATE t SET k = k + 1 WHERE k = {c}"),
        11 => format!("UPDATE t SET k = k + 1 WHERE k >= {c} AND k <= {}", c + w),
        12 => format!("UPDATE t SET d = d + 1, v = v + 1 WHERE d = {}", c / 2),
        13 => format!("UPDATE t SET v = v + 1 WHERE f = {}.5", c / 2),
        14 => format!("UPDATE t SET v = v + 1 WHERE g = {} AND k < {w}", c % 7),
        _ => format!("DELETE FROM t WHERE {c} = k AND f >= 0.0"),
    }
}

#[test]
fn indexed_and_scanned_dml_agree_on_one_statement_stream() {
    let pair = Pair {
        indexed: build(true),
        scanned: build(false),
    };
    // the comparison means something only if the two sides really search
    // differently
    let point = "UPDATE t SET v = v + 1 WHERE k = 5";
    assert!(explain(&pair.indexed, point).contains("IndexScan t.k = 5"));
    assert!(explain(&pair.scanned, point).contains("SeqScan t"));
    let dups = "DELETE FROM t WHERE d = 9";
    assert!(explain(&pair.indexed, dups).contains("IndexScan t.d = 9"));
    pair.same_contents("after the load");
    // a closed range written as two conjuncts probes one index range (k
    // is NULL at 107, 157, 207, ...)
    for (sql, affected) in [
        ("UPDATE t SET v = v + 1 WHERE k >= 100 AND k <= 110", 10),
        ("DELETE FROM t WHERE k > 200 AND k < 204", 3),
        ("UPDATE t SET k = k + 1 WHERE k <= 305 AND k >= 300", 6),
    ] {
        let plan = explain(&pair.indexed, sql);
        assert!(plan.contains("IndexScan t.k ["), "{sql}: {plan}");
        let n = pair.both(None, sql).unwrap();
        assert_eq!(n, vec![Row::new(vec![Value::Int(affected)])], "{sql}");
    }
    pair.same_contents("after the two-conjunct range writes");

    let mut rng = StdRng::seed_from_u64(0x5eed_d1ff);
    for round in 0..400u32 {
        match rng.gen_range(0u32..10) {
            // autocommit statements
            0..=5 => {
                let _ = pair.both(None, &random_dml(&mut rng));
            }
            // a transaction that reads its own writes back through the
            // index and rewrites them, then commits or rolls back
            6 | 7 => {
                let txns = pair.begin();
                let c = rng.gen_range(0i64..ROWS);
                let by_key = format!("SELECT id, v FROM t WHERE k = {c} ORDER BY id");
                pair.both(Some(&txns), &format!("UPDATE t SET v = 1000 WHERE k = {c}"))
                    .unwrap();
                let seen = pair.both(Some(&txns), &by_key).unwrap();
                assert!(seen.iter().all(|r| r.get(1) == &Value::Int(1000)));
                pair.both(
                    Some(&txns),
                    &format!("UPDATE t SET v = v + 1 WHERE k = {c}"),
                )
                .unwrap();
                let seen = pair.both(Some(&txns), &by_key).unwrap();
                assert!(seen.iter().all(|r| r.get(1) == &Value::Int(1001)));
                for _ in 0..rng.gen_range(0u32..4) {
                    let _ = pair.both(Some(&txns), &random_dml(&mut rng));
                }
                if rng.gen_range(0u32..3) == 0 {
                    pair.both(Some(&txns), &format!("DELETE FROM t WHERE k = {c}"))
                        .unwrap();
                    assert!(pair.both(Some(&txns), &by_key).unwrap().is_empty());
                }
                pair.end(txns, rng.gen_range(0u32..3) > 0);
            }
            // a predicate that raises on a row in the middle of a key
            // range: a statement reads and filters every row it will write
            // before it writes any, so inside a transaction it fails whole
            // on both sides and leaves the range as it was, whatever order
            // the index hands the keys out in
            8 => {
                let lo = rng.gen_range(0i64..ROWS);
                let range = format!("k >= {lo} AND k <= {}", lo + 8);
                let in_range = format!("SELECT id, v FROM t WHERE {range} ORDER BY id");
                let before = pair.both(None, &in_range).unwrap();
                if before.is_empty() {
                    continue;
                }
                let pick = before[rng.gen_range(0..before.len())]
                    .get(0)
                    .as_i64()
                    .unwrap();
                let raises =
                    format!("UPDATE t SET v = v + 100 WHERE {range} AND 1 / (id - {pick}) <= 1");
                let txns = pair.begin();
                assert_eq!(pair.both(Some(&txns), &raises), Err("execution"));
                assert_eq!(
                    pair.both(Some(&txns), &in_range).unwrap(),
                    before,
                    "a failed statement left writes behind: {raises}"
                );
                pair.end(txns, true);
                // autocommitted, the same statement leaves no trace
                assert_eq!(pair.both(None, &raises), Err("execution"));
            }
            // two transactions race for one row: the first updater wins on
            // both sides, the second gets the same retryable error
            _ => {
                let c = rng.gen_range(0i64..ROWS);
                let hit = format!("UPDATE t SET v = v + 10 WHERE k = {c}");
                let (first, second) = (pair.begin(), pair.begin());
                let won = pair.both(Some(&first), &hit).unwrap();
                let lost = pair.both(Some(&second), &hit);
                if won[0].get(0) == &Value::Int(0) {
                    assert_eq!(lost, Ok(won), "nobody to race for");
                } else {
                    assert_eq!(lost, Err("write_conflict"));
                }
                pair.end(second, false);
                pair.end(first, true);
            }
        }
        if round % 50 == 49 {
            pair.same_contents(&format!("after round {round}"));
        }
    }
    pair.same_contents("at the end");
    // and the indexes still answer for what the heap holds
    for c in (0..ROWS).step_by(37) {
        pair.both(
            None,
            &format!("SELECT id, v FROM t WHERE k = {c} ORDER BY id"),
        )
        .unwrap();
    }
}
