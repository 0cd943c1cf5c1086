//! Cross-crate integration: the AI4DB advisors against a live engine —
//! recommendations must translate into *measured* improvements, not just
//! what-if numbers.

use aimdb::ai4db::index_advisor::{advise_greedy, apply_advice, workload_from_sql};
use aimdb::ai4db::knob::{tune_random, DbEnv, WorkloadType};
use aimdb::ai4db::neo;
use aimdb::engine::Database;
use aimdb::sql::Statement;

fn measured_cost(db: &Database, sql: &str) -> f64 {
    let Statement::Select(sel) = aimdb::sql::parser::parse_one(sql).expect("parse") else {
        panic!("not a select")
    };
    let plan = db.plan(&sel).expect("plan");
    db.run_plan_measured(&plan).expect("run").1
}

#[test]
fn index_advice_improves_measured_latency() {
    let db = Database::new();
    db.execute("CREATE TABLE t (id INT, grp INT, val FLOAT)")
        .expect("ddl");
    let tuples: Vec<String> = (0..10_000)
        .map(|i| format!("({i}, {}, {})", i % 40, (i % 997) as f64))
        .collect();
    db.execute(&format!("INSERT INTO t VALUES {}", tuples.join(",")))
        .expect("load");
    db.execute("ANALYZE").expect("analyze");

    let probe = "SELECT val FROM t WHERE id = 4321";
    let before = measured_cost(&db, probe);

    let wl = workload_from_sql(&[(probe, 10.0)]).expect("workload");
    let advice = advise_greedy(&db, &wl, 1).expect("advise");
    assert_eq!(advice.indexes, vec![("t".into(), "id".into())]);
    apply_advice(&db, &advice).expect("apply");
    db.execute("ANALYZE").expect("analyze");

    let after = measured_cost(&db, probe);
    assert!(
        after < before / 5.0,
        "index should cut measured cost: before {before:.1} after {after:.1}"
    );
}

#[test]
fn knob_tuning_reduces_measured_workload_cost() {
    let db = Database::new();
    db.execute("CREATE TABLE t (a INT, b INT)").expect("ddl");
    let tuples: Vec<String> = (0..15_000).map(|i| format!("({i}, {})", i % 100)).collect();
    db.execute(&format!("INSERT INTO t VALUES {}", tuples.join(",")))
        .expect("load");
    db.execute("ANALYZE").expect("analyze");
    let queries = vec!["SELECT COUNT(*) FROM t WHERE a < 8000".to_string()];

    // adversarial starting point
    db.execute("SET buffer_pool_pages = 1").expect("set");
    let mut env = DbEnv::new(&db, queries, WorkloadType::Olap);
    let report = tune_random(&mut env, 10, 3);
    assert!(report.best_throughput > 0.0);
    // tuner must have moved the pool well above the floor
    let chosen = aimdb::ai4db::knob::level_value("buffer_pool_pages", report.best_config[0]);
    assert!(chosen > 1, "tuner stuck at the floor: {chosen}");
}

#[test]
fn neo_full_loop_runs_against_engine() {
    let rep = neo::run_experiment(4, 9).expect("neo");
    assert!(rep.neo_latency <= rep.baseline_latency * 1.2);
    assert!(rep.candidates_per_query >= 2.0);
}
