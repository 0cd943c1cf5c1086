//! Cross-crate integration: SQL front end → optimizer → executor →
//! storage, including the AISQL surface provided by `aimdb-db4ai`.

use aimdb::common::Value;
use aimdb::db4ai::ModelRuntime;
use aimdb::engine::{Database, QueryResult};

fn scalar_i64(db: &Database, sql: &str) -> i64 {
    db.execute(sql)
        .unwrap_or_else(|e| panic!("{sql}: {e}"))
        .scalar()
        .expect("one row")
        .as_i64()
        .expect("integer")
}

#[test]
fn full_relational_session() {
    let db = Database::new();
    db.run_script(
        "CREATE TABLE dept (did INT, dname TEXT); \
         CREATE TABLE emp (eid INT, did INT, salary FLOAT, name TEXT);",
    )
    .expect("ddl");
    let depts: Vec<String> = (0..10).map(|d| format!("({d}, 'dept{d}')")).collect();
    db.execute(&format!("INSERT INTO dept VALUES {}", depts.join(",")))
        .expect("load");
    let emps: Vec<String> = (0..1000)
        .map(|e| {
            format!(
                "({e}, {}, {}, 'emp{e}')",
                e % 10,
                1000.0 + (e % 97) as f64 * 10.0
            )
        })
        .collect();
    db.execute(&format!("INSERT INTO emp VALUES {}", emps.join(",")))
        .expect("load");
    db.execute("ANALYZE").expect("analyze");

    // join + aggregate + order + limit
    let r = db
        .execute(
            "SELECT d.dname, COUNT(*) AS n, AVG(e.salary) AS avg_sal FROM emp e \
             JOIN dept d ON e.did = d.did GROUP BY d.dname ORDER BY avg_sal DESC LIMIT 3",
        )
        .expect("join query");
    assert_eq!(r.rows().len(), 3);
    assert_eq!(r.rows()[0].get(1), &Value::Int(100));

    // secondary index + correctness of the indexed path
    db.execute("CREATE INDEX idx_eid ON emp (eid)")
        .expect("index");
    db.execute("ANALYZE").expect("analyze");
    let QueryResult::Text(plan) = db
        .execute("EXPLAIN SELECT * FROM emp WHERE eid = 77")
        .expect("explain")
    else {
        panic!("explain returns text")
    };
    assert!(plan.contains("IndexScan"), "{plan}");
    assert_eq!(
        scalar_i64(&db, "SELECT COUNT(*) FROM emp WHERE eid = 77"),
        1
    );

    // update/delete with predicates
    db.execute("UPDATE emp SET salary = salary * 2 WHERE did = 3")
        .expect("update");
    assert_eq!(
        scalar_i64(
            &db,
            "SELECT COUNT(*) FROM emp WHERE salary >= 2000 AND did = 3"
        ),
        100
    );
    db.execute("DELETE FROM emp WHERE did = 9").expect("delete");
    assert_eq!(scalar_i64(&db, "SELECT COUNT(*) FROM emp"), 900);

    // transaction rollback across statement kinds
    let mut txn = None;
    db.execute_session(&mut txn, "BEGIN").expect("begin");
    db.execute_session(&mut txn, "DELETE FROM emp WHERE did = 0")
        .expect("txn delete");
    db.execute_session(&mut txn, "UPDATE emp SET name = 'zz' WHERE eid = 500")
        .expect("txn update");
    let r = db
        .execute_session(&mut txn, "SELECT COUNT(*) FROM emp")
        .expect("txn read");
    assert_eq!(r.scalar().expect("count"), &Value::Int(800));
    db.execute_session(&mut txn, "ROLLBACK").expect("rollback");
    assert!(txn.is_none());
    assert_eq!(scalar_i64(&db, "SELECT COUNT(*) FROM emp"), 900);
    let r = db
        .execute("SELECT name FROM emp WHERE eid = 500")
        .expect("select");
    assert_eq!(r.rows()[0].get(0), &Value::Text("emp500".into()));
}

#[test]
fn aisql_lifecycle_end_to_end() {
    let db = Database::new();
    let rt = ModelRuntime::install(&db);
    db.execute("CREATE TABLE sensor (t INT, temp FLOAT, humid FLOAT, fail INT)")
        .expect("ddl");
    let rows: Vec<String> = (0..400)
        .map(|t| {
            let temp = 15.0 + (t % 50) as f64;
            let humid = (t % 100) as f64;
            let fail = if temp > 50.0 && humid > 60.0 { 1 } else { 0 };
            format!("({t}, {temp}, {humid}, {fail})")
        })
        .collect();
    db.execute(&format!("INSERT INTO sensor VALUES {}", rows.join(",")))
        .expect("load");

    // train, predict, use inside a query
    db.execute("CREATE MODEL failing KIND TREE ON sensor (temp, humid) LABEL fail")
        .expect("train");
    let hot = db
        .execute("PREDICT failing GIVEN (64.9, 99)")
        .expect("predict")
        .scalar()
        .expect("value")
        .as_f64()
        .expect("f64");
    assert_eq!(hot, 1.0);
    let flagged = scalar_i64(
        &db,
        "SELECT COUNT(*) FROM sensor WHERE PREDICT(failing, temp, humid) = 1",
    );
    let truth = scalar_i64(&db, "SELECT COUNT(*) FROM sensor WHERE fail = 1");
    assert!(
        (flagged - truth).abs() <= truth / 10 + 2,
        "{flagged} vs {truth}"
    );

    // registry metadata reachable through the runtime handle
    rt.with_registry(|reg| {
        let (meta, _) = reg.latest("failing").expect("registered");
        assert_eq!(meta.kind, "tree");
        assert_eq!(meta.features, vec!["temp", "humid"]);
        assert!(
            meta.train_metric > 0.9,
            "train accuracy {}",
            meta.train_metric
        );
        assert!(reg.export_catalog().expect("export").contains("failing"));
    });

    // retrain creates v2; drop removes everything
    db.execute("CREATE MODEL failing KIND NB ON sensor (temp, humid) LABEL fail")
        .expect("retrain");
    rt.with_registry(|reg| assert_eq!(reg.latest("failing").expect("v2").0.version, 2));
    db.execute("DROP MODEL failing").expect("drop");
    assert!(db.execute("PREDICT failing GIVEN (1, 1)").is_err());
}

#[test]
fn knobs_affect_real_io() {
    let db = Database::new();
    db.execute("CREATE TABLE big (a INT, b INT)").expect("ddl");
    let tuples: Vec<String> = (0..20_000).map(|i| format!("({i}, {})", i % 7)).collect();
    db.execute(&format!("INSERT INTO big VALUES {}", tuples.join(",")))
        .expect("load");

    // tiny buffer pool → repeated scans must miss
    db.execute("SET buffer_pool_pages = 2").expect("set");
    db.buffer_pool().reset_stats();
    db.execute("SELECT COUNT(*) FROM big").expect("scan");
    db.execute("SELECT COUNT(*) FROM big").expect("scan");
    let small = db.buffer_pool().stats().hit_rate();

    // big pool → the second scan hits
    db.execute("SET buffer_pool_pages = 4096").expect("set");
    db.buffer_pool().reset_stats();
    db.execute("SELECT COUNT(*) FROM big").expect("scan");
    db.execute("SELECT COUNT(*) FROM big").expect("scan");
    let large = db.buffer_pool().stats().hit_rate();
    assert!(
        large > small + 0.2,
        "hit rate should respond to the knob: small={small:.2} large={large:.2}"
    );
}
