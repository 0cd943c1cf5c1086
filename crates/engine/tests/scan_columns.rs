//! What the planner's scans read.
//!
//! Every scan reads only the table columns some operator above it uses
//! (EXPLAIN prints them as `cols=[…]`), so the star-schema queries carry
//! no column no operator reads through their joins; and a closed range
//! written as two conjuncts on an indexed column probes the index like
//! the same range written with BETWEEN.

use aimdb_engine::{Database, QueryResult};

fn explain(db: &Database, sql: &str) -> String {
    match db.execute(&format!("EXPLAIN {sql}")).expect("explain") {
        QueryResult::Text(t) => t,
        other => panic!("EXPLAIN returned {other:?}"),
    }
}

/// The star schema of the SSB workload, with a few rows per table.
fn ssb_db() -> Database {
    let db = Database::new();
    for sql in [
        "CREATE TABLE nation (n_id INT, n_region INT, n_name TEXT)",
        "CREATE TABLE dates (d_id INT, d_year INT, d_month INT)",
        "CREATE TABLE cust (c_id INT, c_nation INT, c_segment TEXT)",
        "CREATE TABLE part (p_id INT, p_brand INT, p_category INT, p_color TEXT)",
        "CREATE TABLE supp (s_id INT, s_nation INT)",
        "CREATE TABLE lineorder (lo_id INT, lo_cust INT, lo_part INT, lo_supp INT, \
         lo_date INT, lo_qty INT, lo_price INT, lo_disc INT, lo_rev INT)",
        "INSERT INTO nation VALUES (0, 0, 'n0'), (1, 1, 'n1')",
        "INSERT INTO dates VALUES (0, 2015, 1), (1, 2016, 2)",
        "INSERT INTO cust VALUES (0, 0, 'AUTO'), (1, 1, 'BUILDING')",
        "INSERT INTO part VALUES (0, 4, 3, 'red'), (1, 5, 3, 'plum')",
        "INSERT INTO supp VALUES (0, 0), (1, 1)",
        "INSERT INTO lineorder VALUES (0, 0, 0, 0, 0, 5, 100, 2, 490), \
         (1, 1, 1, 1, 1, 7, 200, 3, 1358)",
        "ANALYZE",
    ] {
        db.execute(sql).expect("setup");
    }
    db
}

#[test]
fn ssb_q1_reads_two_of_lineorders_nine_columns() {
    let db = ssb_db();
    let sql = "SELECT COUNT(*), SUM(lo_rev), SUM(lo_qty) FROM lineorder";
    let plan = explain(&db, sql);
    assert!(
        plan.contains("SeqScan lineorder cols=[lo_qty, lo_rev]"),
        "{plan}"
    );
    let rows = db.execute(sql).expect("run");
    assert_eq!(rows.rows().len(), 1);
    assert_eq!(rows.rows()[0].values()[0], aimdb_common::Value::Int(2));
}

/// The six-table star: the joins carry only keys and what the grouping
/// and the aggregate read, never `p_color`, `n_name` or `c_segment`; the
/// result's columns are the select list's, as without pruning.
#[test]
fn star_join_carries_no_dead_columns() {
    let db = ssb_db();
    let sql = "SELECT n.n_region, d.d_year, SUM(l.lo_rev) FROM lineorder l \
               JOIN cust c ON l.lo_cust = c.c_id \
               JOIN nation n ON c.c_nation = n.n_id \
               JOIN dates d ON l.lo_date = d.d_id \
               JOIN supp s ON l.lo_supp = s.s_id \
               JOIN part p ON l.lo_part = p.p_id \
               WHERE p.p_category = 3 \
               GROUP BY n.n_region, d.d_year ORDER BY n.n_region, d.d_year";
    let plan = explain(&db, sql);
    for dead in [
        "p_color",
        "n_name",
        "c_segment",
        "d_month",
        "lo_price",
        "p_brand",
    ] {
        assert!(!plan.contains(dead), "{dead} is read:\n{plan}");
    }
    for scan in [
        "SeqScan lineorder cols=[lo_cust, lo_part, lo_supp, lo_date, lo_rev]",
        "SeqScan part cols=[p_id, p_category]",
        "SeqScan supp cols=[s_id]",
        "SeqScan nation cols=[n_id, n_region]",
    ] {
        assert!(plan.contains(scan), "no {scan}:\n{plan}");
    }
    match db.execute(sql).expect("run") {
        QueryResult::Rows { schema, rows } => {
            let names: Vec<&str> = schema.columns().iter().map(|c| c.name.as_str()).collect();
            assert_eq!(names, ["n_region", "d_year", "sum"]);
            assert_eq!(rows.len(), 2);
        }
        other => panic!("{other:?}"),
    }
}

/// `users`: 4000 rows, ten per `age`, indexed on `age`.
fn users_db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE users (id INT, age INT, name TEXT)")
        .expect("create");
    db.execute("CREATE INDEX idx_age ON users (age)")
        .expect("index");
    let rows: Vec<String> = (0..4000)
        .map(|i| format!("({i}, {}, 'u{i}')", i % 400))
        .collect();
    db.execute(&format!("INSERT INTO users VALUES {}", rows.join(",")))
        .expect("insert");
    db.execute("ANALYZE").expect("analyze");
    db
}

#[test]
fn two_range_conjuncts_probe_the_index_like_between() {
    let db = users_db();
    let between = explain(&db, "SELECT id FROM users WHERE age BETWEEN 40 AND 43");
    let index_line = between
        .lines()
        .find(|l| l.contains("IndexScan"))
        .unwrap_or_else(|| panic!("BETWEEN does not probe:\n{between}"))
        .trim()
        .to_string();
    for sql in [
        "SELECT id FROM users WHERE age >= 40 AND age <= 43",
        "SELECT id FROM users WHERE age <= 43 AND age >= 40",
        // a third conjunct narrows nothing past BETWEEN's range
        "SELECT id FROM users WHERE age >= 40 AND age <= 43 AND age >= 12",
    ] {
        let plan = explain(&db, sql);
        assert!(
            plan.contains(&index_line),
            "{sql}:\n{plan}\nwant {index_line}"
        );
        let got = db.execute(sql).expect("run");
        assert_eq!(got.rows().len(), 40, "{sql}");
    }
    // one bound alone is still too wide to probe
    let open = explain(&db, "SELECT id FROM users WHERE age >= 40");
    assert!(open.contains("SeqScan"), "{open}");
}
