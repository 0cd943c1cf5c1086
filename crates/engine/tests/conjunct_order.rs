//! The planner orders a filter's conjuncts by what their function calls
//! cost per row, stably — so a query that calls no function plans exactly
//! as it was written, and inference runs last, behind every cheaper
//! conjunct — and `EXPLAIN` shows both the order and the bound model.

mod common;

use std::sync::Arc;

use aimdb_engine::plan::{PhysOp, PhysicalPlan};
use aimdb_engine::{Database, QueryResult};
use aimdb_sql::parser::parse_one;
use aimdb_sql::{Expr, Statement};

use common::StubModels;

fn db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE users (id INT, age INT, name TEXT)")
        .unwrap();
    let rows: Vec<String> = (0..200)
        .map(|i| format!("({i}, {}, 'u{i}')", 18 + i % 60))
        .collect();
    db.execute(&format!("INSERT INTO users VALUES {}", rows.join(",")))
        .unwrap();
    db.execute("ANALYZE").unwrap();
    db.set_model_hook(Arc::new(StubModels));
    db
}

fn plan(db: &Database, sql: &str) -> PhysicalPlan {
    let Statement::Select(sel) = parse_one(sql).unwrap() else {
        panic!("not a SELECT: {sql}")
    };
    db.plan(&sel).unwrap()
}

/// The scan at the bottom of a single-table plan, and its conjuncts.
fn scan_conjuncts(plan: &PhysicalPlan) -> (&PhysicalPlan, Vec<&Expr>) {
    let mut node = plan;
    while let Some(child) = node.children().first() {
        node = child;
    }
    match &node.op {
        PhysOp::SeqScan {
            filter: Some(f), ..
        } => (node, f.conjuncts()),
        other => panic!("expected a filtered SeqScan, got {other:?}"),
    }
}

fn explain(db: &Database, sql: &str) -> String {
    match db.execute(&format!("EXPLAIN {sql}")).unwrap() {
        QueryResult::Text(t) => t,
        other => panic!("EXPLAIN returned {other:?}"),
    }
}

#[test]
fn conjuncts_without_functions_keep_their_written_order() {
    let db = db();
    let sql = "SELECT id FROM users WHERE name LIKE 'u1%' AND age > 30 AND id < 150";
    let p = plan(&db, sql);
    let (_, cs) = scan_conjuncts(&p);
    assert!(matches!(cs[0], Expr::Like { .. }), "{cs:?}");
    assert!(format!("{:?}", cs[1]).contains("users.age"), "{cs:?}");
    assert!(format!("{:?}", cs[2]).contains("users.id"), "{cs:?}");
    let text = explain(&db, sql);
    assert!(!text.contains(" THEN "), "{text}");
    assert!(text.contains("filter=Binary {"), "{text}");
}

#[test]
fn inference_runs_behind_every_cheaper_conjunct() {
    let db = db();
    let sql = "SELECT id FROM users \
               WHERE PREDICT(cls, age) = 1 AND id < 20 AND ABS(age) > 3 AND name LIKE 'u1%'";
    let p = plan(&db, sql);
    let (scan, cs) = scan_conjuncts(&p);
    let order: Vec<String> = cs.iter().map(|c| format!("{c:?}")).collect();
    assert!(order[0].contains("users.id"), "{order:?}");
    assert!(order[1].contains("Like"), "{order:?}");
    assert!(order[2].contains("ABS"), "{order:?}");
    assert!(order[3].contains("Predict"), "{order:?}");

    // EXPLAIN names the model version and spells the cascade out
    let text = explain(&db, sql);
    assert!(text.contains("model: cls v1 stub"), "{text}");
    assert_eq!(text.matches(" THEN ").count(), 3, "{text}");

    // inference is charged per row that reaches it: alone it pays for the
    // whole table, behind `id < 20` for a tenth of it
    let alone = plan(&db, "SELECT id FROM users WHERE PREDICT(cls, age) = 1");
    let bare = plan(&db, "SELECT id FROM users WHERE age = 1");
    let (alone, _) = scan_conjuncts(&alone);
    let (bare, _) = scan_conjuncts(&bare);
    assert!(
        alone.est_cost > bare.est_cost + 5.0,
        "{alone:?} vs {bare:?}"
    );
    assert!(scan.est_cost < alone.est_cost, "{scan:?} vs {alone:?}");

    // the answer is the same wherever PREDICT was written
    let moved = "SELECT id FROM users \
                 WHERE id < 20 AND name LIKE 'u1%' AND PREDICT(cls, age) = 1 AND ABS(age) > 3";
    assert_eq!(db.execute(sql).unwrap(), db.execute(moved).unwrap());
    assert_eq!(explain(&db, sql), explain(&db, moved));
}

#[test]
fn projections_and_aggregates_name_their_models() {
    let db = db();
    // one lookup per model per statement: both calls share a snapshot
    let text = explain(
        &db,
        "SELECT id, PREDICT(lin, age, id), PREDICT(LIN, id, age) FROM users",
    );
    assert!(
        text.contains("Project [id, predict, predict_1] models=[lin v1 stub]"),
        "{text}"
    );
    let text = explain(
        &db,
        "SELECT AVG(PREDICT(lin, age, id)), MAX(PREDICT(cls, age)) FROM users",
    );
    assert!(
        text.contains("Aggregate groups=0 aggs=2 models=[lin v1 stub, cls v1 stub]"),
        "{text}"
    );
}
