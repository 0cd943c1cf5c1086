//! MVCC snapshot isolation + group-commit WAL, end to end.
use std::sync::Arc;

use aimdb::common::Value;
use aimdb::engine::Database;
use aimdb::storage::{Disk, FaultInjector, FaultPlan, PageStore};

fn scalar(db: &Database, sql: &str) -> i64 {
    let r = db.execute(sql).expect(sql);
    match r.scalar().expect("scalar") {
        Value::Int(n) => *n,
        other => panic!("{sql} -> {other:?}"),
    }
}

fn main() {
    let db = Database::new();
    db.execute("CREATE TABLE acct (id INT, v INT)").unwrap();
    db.execute("INSERT INTO acct VALUES (1, 100), (2, 200)")
        .unwrap();
    db.execute("SET group_commit_window = 150").unwrap();

    // Snapshot isolation: a txn's writes are invisible until commit.
    let t1 = db.begin_txn().unwrap();
    db.execute_in(&t1, "UPDATE acct SET v = 111 WHERE id = 1")
        .unwrap();
    assert_eq!(scalar(&db, "SELECT v FROM acct WHERE id = 1"), 100);
    println!("uncommitted write invisible to plain readers: OK");

    // First-updater-wins: a second txn touching the claimed row conflicts.
    let t2 = db.begin_txn().unwrap();
    let err = db
        .execute_in(&t2, "UPDATE acct SET v = 999 WHERE id = 1")
        .unwrap_err();
    assert!(err.to_string().contains("write conflict"), "{err}");
    db.rollback_txn(&t2).unwrap();
    println!("first-updater-wins conflict raised and retryable: OK");

    let cts = db.commit_txn(&t1).unwrap();
    assert_eq!(scalar(&db, "SELECT v FROM acct WHERE id = 1"), 111);
    println!("commit at ts {cts} published atomically: OK");

    // Group commit under concurrent writers: fewer fsyncs than commits.
    let flushes0 = db.wal.flush_count();
    let commits0 = db.kpis().txns_committed;
    std::thread::scope(|s| {
        for w in 0..4i64 {
            let db = &db;
            s.spawn(move || {
                for op in 0..50 {
                    let h = db.begin_txn().unwrap();
                    db.execute_in(
                        &h,
                        &format!("UPDATE acct SET v = {op} WHERE id = {}", w % 2 + 1),
                    )
                    .map(|_| db.commit_txn(&h).unwrap())
                    .unwrap_or_else(|_| {
                        db.rollback_txn(&h).unwrap();
                        0
                    });
                }
            });
        }
    });
    let commits = db.kpis().txns_committed - commits0;
    let fsyncs = db.wal.flush_count() - flushes0;
    println!("group commit: {commits} commits over {fsyncs} fsyncs");
    assert!(commits > 0 && fsyncs < commits, "no batching observed");

    // Crash + recover through the fault injector: committed state survives.
    let inj = Arc::new(FaultInjector::new(
        Arc::new(Disk::new()),
        FaultPlan::crash_after(u64::MAX),
    ));
    let store: Arc<dyn PageStore> = inj.clone();
    let fdb = Database::with_store(store);
    fdb.execute("CREATE TABLE k (id INT, v INT)").unwrap();
    let h = fdb.begin_txn().unwrap();
    fdb.execute_in(&h, "INSERT INTO k VALUES (7, 42)").unwrap();
    fdb.commit_txn(&h).unwrap();
    drop(fdb);
    let (rdb, _report) = Database::recover(inj.underlying()).unwrap();
    assert_eq!(scalar(&rdb, "SELECT v FROM k WHERE id = 7"), 42);
    println!("committed txn survived recovery: OK");
    println!("mvcc: all assertions passed");
}
