//! Session lifecycle suite: connection-drop rollback with MVCC snapshot
//! release, one statement classifier (the parser) deciding whose
//! transaction a statement belongs to, `SET`/`SHOW` over the wire acting
//! on the database's knobs, and snapshot-atomic visibility of commits
//! across concurrent sessions.

use std::sync::Arc;
use std::time::{Duration, Instant};

use aimdb_common::Value;
use aimdb_engine::Database;
use aimdb_server::{Client, Server, ServerConfig};

fn serve(db: Database) -> (Server, Arc<Database>) {
    let db = Arc::new(db);
    let server = Server::start(
        Arc::clone(&db),
        ServerConfig {
            tuner_enabled: false,
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    (server, db)
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn dropped_connection_rolls_back_and_releases_the_snapshot() {
    let db = Database::new();
    db.execute("CREATE TABLE kv (k INT, v TEXT)")
        .expect("create");
    db.execute("INSERT INTO kv VALUES (1, 'one'), (2, 'two')")
        .expect("seed");
    let (server, db) = serve(db);

    let mut c = Client::connect(server.local_addr()).expect("connect");
    c.query_ok("BEGIN").expect("begin");
    c.query_ok("DELETE FROM kv WHERE k = 1").expect("delete");
    wait_until("the wire txn to register", || db.active_txn_count() == 1);

    // the open snapshot pins the vacuum horizon: commits from other
    // sessions must not advance it past the reader's timestamp
    let pinned = db.vacuum_horizon();
    db.execute("INSERT INTO kv VALUES (3, 'three')")
        .expect("commit elsewhere");
    assert_eq!(
        db.vacuum_horizon(),
        pinned,
        "horizon must stay pinned while the wire txn is open"
    );

    // kill the connection without COMMIT/ROLLBACK/Close
    drop(c);
    wait_until("the handler to roll back", || db.active_txn_count() == 0);

    // the delete was rolled back, the horizon advanced, and a
    // checkpoint (which requires quiescence) goes through
    assert_eq!(db.execute("SELECT k FROM kv").expect("q").rows().len(), 3);
    assert!(
        db.vacuum_horizon() > pinned,
        "horizon must advance once the abandoned snapshot is released"
    );
    db.checkpoint_now().expect("checkpoint after release");
    server.shutdown().expect("shutdown");
}

/// The parser classifies statements, not a prefix match on the text: a
/// leading comment changes nothing. (Before, `-- note\nBEGIN` missed the
/// session's transaction path and opened a transaction on the *database*,
/// which swallowed other connections' autocommit writes and which any
/// connection's `-- note\nROLLBACK` could discard.)
#[test]
fn a_comment_does_not_change_whose_transaction_it_is() {
    let db = Database::new();
    db.execute("CREATE TABLE kv (k INT, v TEXT)")
        .expect("create");
    let (server, db) = serve(db);
    let addr = server.local_addr();
    let text = |s: &str| aimdb_engine::QueryResult::Text(s.into());

    let mut a = Client::connect(addr).expect("a");
    let mut b = Client::connect(addr).expect("b");
    let mut reader = Client::connect(addr).expect("reader");
    let keys = |c: &mut Client| -> Vec<Value> {
        let r = c.query_ok("SELECT k FROM kv ORDER BY k").expect("read");
        r.rows().iter().map(|r| r.values()[0].clone()).collect()
    };

    a.query_ok("-- note\nBEGIN").expect("begin");
    a.query_ok("INSERT INTO kv VALUES (1, 'a')").expect("a ins");
    assert_eq!(db.active_txn_count(), 1, "the transaction is A's session's");

    // B autocommits: acknowledged means committed and visible to anyone
    let committed = db.kpis().txns_committed;
    b.query_ok("INSERT INTO kv VALUES (2, 'b')").expect("b ins");
    assert_eq!(db.kpis().txns_committed, committed + 1);
    assert_eq!(keys(&mut reader), [Value::Int(2)], "B's row, not A's");
    assert_eq!(keys(&mut a), [Value::Int(1)], "A: its snapshot + its own");

    // B has no transaction, so its ROLLBACK has nothing to act on
    let e = b.query_ok("-- note\nROLLBACK").expect_err("nothing open");
    assert_eq!(e.category(), "execution");
    assert!(e.to_string().contains("no open transaction"), "{e}");
    assert_eq!(keys(&mut reader), [Value::Int(2)], "B's write survived");

    // A drops without COMMIT: its session rolls back, its row never shows
    drop(a);
    wait_until("A's handler to roll back", || db.active_txn_count() == 0);
    assert_eq!(keys(&mut reader), [Value::Int(2)]);

    // the same holds for the knob statements
    assert_eq!(
        b.query_ok("-- c\nSET work_mem_kb = 128").expect("set"),
        b.query_ok("SET work_mem_kb = 128").expect("set")
    );
    assert_eq!(
        b.query_ok("-- c\nSHOW work_mem_kb").expect("show"),
        text("work_mem_kb = 128")
    );

    b.close().expect("close b");
    reader.close().expect("close reader");
    server.shutdown().expect("shutdown");
}

/// `SET`/`SHOW` over the wire are the engine's statements on the
/// database's knobs — the write path the admission tuner actuates
/// through — while prepared statements are the session's own.
#[test]
fn set_over_the_wire_writes_the_databases_knobs() {
    let db = Database::new();
    db.execute("CREATE TABLE t (x INT)").expect("create");
    let (server, db) = serve(db);
    let addr = server.local_addr();
    let text = |s: &str| aimdb_engine::QueryResult::Text(s.into());

    let mut c1 = Client::connect(addr).expect("c1");
    let mut c2 = Client::connect(addr).expect("c2");
    let show = |c: &mut Client| c.query_ok("SHOW work_mem_kb").expect("show");
    assert_eq!(show(&mut c2), text("work_mem_kb = 4096"));

    // c1's SET is visible to c2, to db.knobs and to a later connection;
    // knob statements touch no table, so an open transaction takes them
    c1.query_ok("BEGIN").expect("begin");
    let r = c1.query_ok("SET Work_Mem_KB = 128").expect("set");
    assert_eq!(r, text("SET work_mem_kb = 128"));
    c1.query_ok("COMMIT").expect("commit");
    assert_eq!(show(&mut c1), text("work_mem_kb = 128"));
    assert_eq!(show(&mut c2), text("work_mem_kb = 128"));
    assert_eq!(db.knobs.get("work_mem_kb").expect("global"), 128);
    c1.close().expect("close");
    let mut c3 = Client::connect(addr).expect("c3");
    assert_eq!(show(&mut c3), text("work_mem_kb = 128"));

    // a knob the engine acts on takes effect, whoever set it
    c3.query_ok("SET buffer_pool_pages = 8").expect("set pool");
    assert_eq!(db.buffer_pool().capacity(), 8);

    // out-of-range values are clamped, unknown knobs are not_found
    let r = c3.query_ok("SET work_mem_kb = 999999999").expect("clamp");
    assert_eq!(r, text("SET work_mem_kb = 65536"));
    for sql in ["SET no_such_knob = 1", "SHOW no_such_knob"] {
        let e = c3.query_ok(sql).expect_err("unknown knob");
        assert_eq!(e.category(), "not_found", "{sql}");
    }

    // prepared statements are session-local
    c3.parse("mine", "SELECT x FROM t WHERE x = ?")
        .expect("parse");
    let e = match c2.execute("mine", &[Value::Int(1)]) {
        Ok(_) => panic!("c2 must not see c3's prepared statement"),
        Err(e) => e,
    };
    assert_eq!(e.category(), "not_found");

    c2.close().expect("close c2");
    c3.close().expect("close c3");
    server.shutdown().expect("shutdown");
}

#[test]
fn concurrent_sessions_see_snapshot_atomic_commits() {
    let db = Database::new();
    db.execute("CREATE TABLE acct (id INT, bal INT)")
        .expect("create");
    db.execute("INSERT INTO acct VALUES (1, 50), (2, 50)")
        .expect("seed");
    let (server, _db) = serve(db);
    let addr = server.local_addr();

    let writer = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("writer connect");
        for i in 0..30i64 {
            let a = 50 - (i % 40);
            let b = 100 - a;
            c.query_ok("BEGIN").expect("begin");
            c.query_ok(&format!("UPDATE acct SET bal = {a} WHERE id = 1"))
                .expect("update 1");
            c.query_ok(&format!("UPDATE acct SET bal = {b} WHERE id = 2"))
                .expect("update 2");
            c.query_ok("COMMIT").expect("commit");
        }
        c.close().expect("writer close");
    });
    let reader = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("reader connect");
        for _ in 0..60 {
            let r = c.query_ok("SELECT SUM(bal) FROM acct").expect("sum");
            let total = r.rows()[0].values()[0].clone();
            // the invariant holds in every snapshot: a reader may see the
            // state before or after a commit, never between its updates
            assert!(
                total == Value::Int(100) || total == Value::Float(100.0),
                "partial transaction visible: {total:?}"
            );
        }
        c.close().expect("reader close");
    });
    writer.join().expect("writer");
    reader.join().expect("reader");
    server.shutdown().expect("shutdown");
}

/// A `PREDICT` that cannot run is refused when the statement is planned,
/// so it is refused even when no row would have reached the model — and
/// the category the client sees is the one the first row used to raise.
#[test]
fn model_errors_keep_their_wire_category() {
    let db = Database::new();
    aimdb_db4ai::ModelRuntime::install(&db);
    db.execute("CREATE TABLE p (id INT, age INT, name TEXT, days FLOAT)")
        .expect("create");
    db.execute("INSERT INTO p VALUES (1, 30, 'a', 2.0), (2, 50, 'b', 3.0), (3, 70, 'c', 4.5)")
        .expect("seed");
    db.execute("CREATE MODEL stay KIND LINEAR ON p (age) LABEL days")
        .expect("train");
    let (server, _db) = serve(db);
    let mut c = Client::connect(server.local_addr()).expect("connect");

    for (sql, category) in [
        ("SELECT id FROM p WHERE PREDICT(nope, age) > 1", "not_found"),
        ("SELECT id FROM p WHERE PREDICT(stay, age, id) > 1", "model"),
        (
            "SELECT id FROM p WHERE PREDICT(stay, name) > 1",
            "type_mismatch",
        ),
        // no survivors, so before this change no error either
        (
            "SELECT id FROM p WHERE id < 0 AND PREDICT(nope, age) > 1",
            "not_found",
        ),
        (
            "SELECT id FROM p WHERE id < 0 AND PREDICT(stay, age, id) > 1",
            "model",
        ),
        (
            "SELECT id FROM p WHERE id < 0 AND PREDICT(stay, name) > 1",
            "type_mismatch",
        ),
    ] {
        match c.query_ok(sql) {
            Ok(r) => panic!("{sql}: accepted, returned {r:?}"),
            Err(e) => assert_eq!(e.category(), category, "{sql}: {e}"),
        }
    }
    // the session survives every one of them
    let r = c
        .query_ok("SELECT COUNT(*) FROM p WHERE PREDICT(stay, age) > 0")
        .expect("well-formed PREDICT");
    assert_eq!(r.rows()[0].values()[0], Value::Int(3));
    c.close().expect("close");
    server.shutdown().expect("shutdown");
}
