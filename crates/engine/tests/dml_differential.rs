//! UPDATE/DELETE differential: the engine's writes against the
//! row-at-a-time reference, `aimdb_oracle::dml`.
//!
//! The engine plans an UPDATE or DELETE's read as the SELECT it implies
//! and runs it through the batch executor, with every model bound once
//! for the statement; the reference puts the WHERE to every visible row
//! and evaluates SET on each row it keeps, `PREDICT` looked up by name
//! one row per call. A seeded statement stream over an indexed table
//! that holds NULLs — `PREDICT` in SET and WHERE, float and NULL
//! literals, key-changing updates, predicates and assignments that raise
//! — must give the same affected count or error category as the
//! reference and leave the table holding what the reference expects,
//! after every statement. A counting model hook then shows that a
//! statement binds each model it uses once, however many rows it reads.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rand::prelude::*;
use rand::rngs::StdRng;

use aimdb_common::{AimError, Result, Row, Value};
use aimdb_engine::{Database, ModelHook, QueryResult};
use aimdb_sql::ast::ModelKind;
use aimdb_sql::parser::parse_one;
use aimdb_sql::{BoundModel, Statement};

use common::{ByName, StubModels};

const ROWS: i64 = 2000;

/// `t(id, k, g, v, f, s)` under `hook`: `id` is unique and never changes;
/// `k` is indexed, unique and NULL on every 13th row; `g` has seven
/// values; `v` is NULL on every 11th row; `f` is an indexed float.
fn build(hook: Arc<dyn ModelHook>) -> Database {
    let db = Database::new();
    db.set_model_hook(hook);
    db.execute("CREATE TABLE t (id INT NOT NULL, k INT, g INT, v INT, f FLOAT, s TEXT)")
        .expect("create");
    for col in ["k", "f"] {
        db.execute(&format!("CREATE INDEX t_{col} ON t ({col})"))
            .expect("index");
    }
    let or_null = |null: bool, v: Value| if null { Value::Null } else { v };
    let rows = (0..ROWS)
        .map(|i| {
            vec![
                Value::Int(i),
                or_null(i % 13 == 6, Value::Int(i)),
                Value::Int(i % 7),
                or_null(i % 11 == 4, Value::Int(i % 100)),
                Value::Float(i as f64 * 0.5),
                Value::Text(format!("s{}", i % 5)),
            ]
        })
        .collect();
    db.insert_rows("t", rows).expect("load");
    db.execute("ANALYZE").expect("analyze");
    db
}

fn contents(db: &Database) -> Vec<Row> {
    canon(db.execute("SELECT * FROM t").expect("dump").rows().to_vec())
}

fn canon(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| a.values().cmp(b.values()));
    rows
}

/// One random UPDATE or DELETE. A statement can raise in one way at
/// most — division by zero, or `PREDICT` over a NULL — so the two sides'
/// first errors have one category whichever row each meets it on.
/// Conjuncts that can raise or that predict come after the ones an
/// index can answer, which an index probe never puts to a row outside
/// its range.
fn random_dml(rng: &mut StdRng) -> String {
    let c = rng.gen_range(-5..ROWS + 5);
    let w = rng.gen_range(0..15i64);
    let pick = c + rng.gen_range(0..=w);
    let safe_where = [
        format!("k = {c}"),
        format!("k >= {c} AND k <= {}", c + w),
        format!("k BETWEEN {c} AND {} AND g = {}", c + w, c.rem_euclid(7)),
        format!("k = {c}.5"),
        format!("k = {c}.0 AND v IS NULL"),
        "k = NULL".to_string(),
        "k IS NULL AND g < 3".to_string(),
        format!("g = {} AND v > {w}", c.rem_euclid(7)),
        format!("f >= {c}.25 AND f <= {}.75", c + w),
        format!("k >= {c} AND k <= {} AND PREDICT(cls, g * 10) = 1", c + w),
        format!(
            "g = {} AND PREDICT(lin, id, g) > {}",
            c.rem_euclid(7),
            c / 4
        ),
        format!("s = 's{}' AND id < {c}", w % 5),
    ];
    let raising_where = [
        format!("k >= {c} AND k <= {} AND 1 / (id - {pick}) <= 1", c + w),
        format!("k >= {c} AND k <= {} AND PREDICT(cls, v) = 0", c + w),
    ];
    let safe_set = [
        "v = v + 1",
        "k = k + 1",
        "k = NULL, s = NULL",
        "f = PREDICT(lin, id, g)",
        "v = PREDICT(lin, id, g) * 2",
        "f = f + 0.5, v = NULL",
        "s = 'upd', g = g + 1",
        "k = k + 100000, f = 1.5",
        "v = v / 3, f = f * 2",
    ];
    let raising_set = [
        format!("v = 1 / (id - {pick})"),
        "f = PREDICT(lin, v, g)".to_string(),
        "id = NULL".to_string(),
    ];
    let (wh, set) = match rng.gen_range(0..10u32) {
        0 | 1 => (raising_where.choose(rng), None),
        2 | 3 => (safe_where.choose(rng), raising_set.choose(rng).cloned()),
        _ => (safe_where.choose(rng), None),
    };
    let wh = wh.expect("non-empty");
    if rng.gen_range(0..4u32) == 0 {
        return format!("DELETE FROM t WHERE {wh}");
    }
    let set = set.unwrap_or_else(|| safe_set.choose(rng).expect("non-empty").to_string());
    if rng.gen_range(0..12u32) == 0 {
        return format!("UPDATE t SET {set}");
    }
    format!("UPDATE t SET {set} WHERE {wh}")
}

/// What the reference expects `sql` to do to `db`: the rows it removes
/// and the rows it puts in their place.
fn reference(db: &Database, sql: &str) -> Result<Vec<(Row, Option<Row>)>> {
    let fns = ByName(StubModels);
    match parse_one(sql).expect("parse") {
        Statement::Update {
            table,
            assignments,
            where_clause,
        } => aimdb_oracle::dml(
            &db.catalog,
            &table,
            Some(&assignments),
            where_clause.as_ref(),
            &fns,
            None,
        ),
        Statement::Delete {
            table,
            where_clause,
        } => aimdb_oracle::dml(&db.catalog, &table, None, where_clause.as_ref(), &fns, None),
        other => panic!("not DML: {other:?}"),
    }
}

#[test]
fn dml_matches_the_row_reference_after_every_statement() {
    let db = build(Arc::new(StubModels));
    let explain = |sql: &str| match db.execute(&format!("EXPLAIN {sql}")).expect("explain") {
        QueryResult::Text(t) => t,
        other => panic!("{other:?}"),
    };
    // the stream reaches rows through the index as well as by scanning
    assert!(explain("UPDATE t SET v = v + 1 WHERE k = 5").contains("IndexScan t.k = 5"));
    assert!(explain("DELETE FROM t WHERE k >= 5 AND k <= 9").contains("IndexScan t.k [5..9]"));
    assert!(explain("DELETE FROM t WHERE g = 3").contains("SeqScan t"));

    let mut model = contents(&db);
    let mut rng = StdRng::seed_from_u64(0x0d31_e7e5);
    let (mut written, mut failed) = (0, 0);
    for _ in 0..400 {
        let sql = random_dml(&mut rng);
        let want = reference(&db, &sql);
        match (want, db.execute(&sql)) {
            (Ok(changes), Ok(QueryResult::Affected(n))) => {
                assert_eq!(n, changes.len(), "affected count: {sql}");
                for (before, after) in changes {
                    let at = model
                        .iter()
                        .position(|r| *r == before)
                        .unwrap_or_else(|| panic!("{sql}: wrote a row the table lacks"));
                    model.swap_remove(at);
                    model.extend(after);
                }
                model = canon(model);
                written += n;
            }
            (Err(want), Err(got)) => {
                assert_eq!(got.category(), want.category(), "{sql}: {got} vs {want}");
                failed += 1;
            }
            (want, got) => panic!("{sql}: the reference gave {want:?}, the engine {got:?}"),
        }
        assert_eq!(contents(&db), model, "contents after: {sql}");
    }
    // the stream wrote, and its errors were met too
    assert!(
        written > 1000 && failed > 10,
        "{written} rows, {failed} errors"
    );
}

/// A model hook that counts `bind` calls.
#[derive(Default)]
struct CountingModels {
    binds: AtomicUsize,
}

impl ModelHook for CountingModels {
    fn create_model(
        &self,
        db: &Database,
        name: &str,
        kind: ModelKind,
        table: &str,
        features: &[String],
        label: Option<&str>,
        params: &[(String, Value)],
    ) -> Result<String> {
        StubModels.create_model(db, name, kind, table, features, label, params)
    }

    fn drop_model(&self, name: &str) -> Result<()> {
        StubModels.drop_model(name)
    }

    fn bind(&self, name: &str, arity: usize) -> Result<Arc<dyn BoundModel>> {
        self.binds.fetch_add(1, Ordering::Relaxed);
        StubModels.bind(name, arity)
    }
}

#[test]
fn a_statement_binds_each_model_once() {
    let hook = Arc::new(CountingModels::default());
    let db = build(Arc::clone(&hook) as Arc<dyn ModelHook>);
    // (statement, models it uses, rows it must write at least)
    let cases = [
        (
            "UPDATE t SET f = PREDICT(lin, id, g) WHERE PREDICT(cls, g * 10) = 1",
            2,
            100,
        ),
        (
            "UPDATE t SET v = PREDICT(lin, g, id) WHERE PREDICT(lin, id, g) > 10",
            1,
            100,
        ),
        ("DELETE FROM t WHERE PREDICT(cls, g * 10) = 1", 1, 100),
    ];
    for (sql, models, rows) in cases {
        let before = hook.binds.load(Ordering::Relaxed);
        let QueryResult::Affected(n) = db.execute(sql).expect(sql) else {
            panic!("{sql}: not a DML result");
        };
        let binds = hook.binds.load(Ordering::Relaxed) - before;
        assert!(n >= rows, "{sql}: wrote {n} rows");
        assert_eq!(binds, models, "{sql}: {binds} binds over {n} rows");
    }
}

#[test]
fn an_unknown_model_fails_before_any_row_is_read() {
    let db = build(Arc::new(StubModels));
    // no row matches, so the reference never looks the model up
    for sql in [
        "UPDATE t SET f = PREDICT(nope, id) WHERE k = -1",
        "DELETE FROM t WHERE k = -1 AND PREDICT(nope, id) > 0",
    ] {
        assert_eq!(reference(&db, sql).map(|c| c.len()), Ok(0), "{sql}");
        let err = db.execute(sql).expect_err(sql);
        assert_eq!(err.category(), "not_found", "{sql}: {err}");
    }
}

#[test]
fn int_division_overflow_wraps_in_an_update() {
    let db = Database::new();
    db.execute("CREATE TABLE w (id INT, v INT, r INT)")
        .expect("create");
    db.insert_rows(
        "w",
        vec![vec![Value::Int(1), Value::Int(i64::MIN), Value::Int(7)]],
    )
    .expect("load");
    let r = db
        .execute("UPDATE w SET v = v / (0 - 1), r = v % (0 - 1) WHERE id = 1")
        .expect("update");
    assert_eq!(r, QueryResult::Affected(1));
    let r = db.execute("SELECT v, r FROM w").expect("select");
    assert_eq!(r.rows()[0].values(), &[Value::Int(i64::MIN), Value::Int(0)]);
}

/// A value the table refuses (a coercion or a NOT NULL) on a later row
/// fails the UPDATE before any row is written, so inside a transaction
/// the rows before it still read as they were.
#[test]
fn a_refused_value_fails_the_update_with_nothing_written() {
    let db = Database::new();
    db.execute("CREATE TABLE n (id INT NOT NULL, v INT, s TEXT)")
        .expect("create");
    db.execute("INSERT INTO n VALUES (1, 1, NULL), (2, NULL, 'x')")
        .expect("insert");
    let h = db.begin_txn().expect("begin");
    for (sql, why) in [
        ("UPDATE n SET v = s", "cannot coerce"),
        ("UPDATE n SET id = v", "NOT NULL"),
    ] {
        let err = db.execute_in(&h, sql).expect_err(sql);
        assert_eq!(err.category(), "type_mismatch", "{sql}: {err}");
        assert!(err.to_string().contains(why), "{sql}: {err}");
        let r = db.execute_in(&h, "SELECT id, v FROM n").expect("read");
        assert_eq!(
            canon(r.rows().to_vec()),
            vec![
                Row::new(vec![Value::Int(1), Value::Int(1)]),
                Row::new(vec![Value::Int(2), Value::Null]),
            ],
            "after {sql}"
        );
    }
    db.rollback_txn(&h).expect("rollback");
}

/// The constants of `INSERT … VALUES` and of `PREDICT … GIVEN`: what
/// they store, what they raise, and that a model gets the same inputs
/// either way it is asked.
#[test]
fn constants_in_values_and_given_evaluate_as_written() {
    let db = Database::new();
    db.set_model_hook(Arc::new(StubModels));
    db.execute("CREATE TABLE c (a INT, b INT)").expect("create");
    db.execute("INSERT INTO c VALUES (ABS(-7), -(0 - 9223372036854775807 - 1))")
        .expect("insert");
    let r = db.execute("SELECT a, b FROM c").expect("select");
    assert_eq!(r.rows()[0].values(), &[Value::Int(7), Value::Int(i64::MIN)]);

    let err = db
        .execute("INSERT INTO c VALUES (x, 1)")
        .expect_err("a column");
    assert_eq!(err, AimError::NotFound("column x".into()));
    let err = db
        .execute("INSERT INTO c VALUES (PREDICT(lin, 1, 2), 1)")
        .expect_err("PREDICT in VALUES");
    assert_eq!(err.category(), "not_found", "{err}");
    let r = db.execute("SELECT COUNT(*) FROM c").expect("count");
    assert_eq!(r.rows()[0].values(), &[Value::Int(1)]);

    let given = db.execute("PREDICT lin GIVEN (1 + 1, 2)").expect("given");
    let select = db.execute("SELECT PREDICT(lin, 2, 2)").expect("select");
    assert_eq!(given.rows(), select.rows());
    assert_eq!(given.rows()[0].values(), &[Value::Float(1.5)]);
}

/// A multi-row INSERT whose later row raises (in evaluation, in a
/// coercion or on a NOT NULL) fails before any row is written, so
/// inside a transaction the rows before it are not there to commit.
#[test]
fn a_failing_values_row_fails_the_insert_with_nothing_written() {
    let db = Database::new();
    db.execute("CREATE TABLE t (id INT NOT NULL, v INT)")
        .expect("create");
    let h = db.begin_txn().expect("begin");
    for (sql, why) in [
        (
            "INSERT INTO t VALUES (1, 1), (2, 1 / 0)",
            "division by zero",
        ),
        ("INSERT INTO t VALUES (3, 3), (4, 'x')", "cannot coerce"),
        ("INSERT INTO t VALUES (5, 5), (NULL, 6)", "NOT NULL"),
    ] {
        let err = db.execute_in(&h, sql).expect_err(sql);
        assert!(err.to_string().contains(why), "{sql}: {err}");
        let r = db.execute_in(&h, "SELECT COUNT(*) FROM t").expect("read");
        assert_eq!(r.rows()[0].values(), &[Value::Int(0)], "after {sql}");
    }
    db.commit_txn(&h).expect("commit");
    let r = db.execute("SELECT COUNT(*) FROM t").expect("count");
    assert_eq!(r.rows()[0].values(), &[Value::Int(0)]);
}
