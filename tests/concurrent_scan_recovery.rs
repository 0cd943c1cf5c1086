//! Concurrency stress: reader threads running morsel-parallel scans
//! against a writer doing batched inserts and checkpoints — first on a
//! healthy store, then in a seeded loop of lives on a fault-injected
//! store that crashes mid-workload and must recover cleanly.
//!
//! Since the MVCC PR, every plain statement runs against a read
//! snapshot frozen at statement start, so a scan racing a multi-row
//! INSERT sees it entirely or not at all: live counts move in whole
//! batches, never backwards, and live groups are always complete.
//! After quiesce — and after crash recovery — the state is exact and
//! identical at every parallelism level.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use aimdb::common::Value;
use aimdb::engine::Database;
use aimdb::storage::{Disk, FaultInjector, FaultPlan, PageStore, TornMode};
use rand::{Rng, SeedableRng, StdRng};

/// Rows per INSERT statement ("batch"). After quiesce or recovery the
/// total row count must be a multiple of this and every group complete.
const BATCH: i64 = 7;
const READERS: usize = 3;

// Shared-reference scans from multiple threads require these bounds;
// losing them is a compile-time regression, not a flaky test.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
};

fn count_rows(db: &Database) -> i64 {
    let r = db.execute("SELECT COUNT(*) FROM t").expect("count");
    match r.scalar().expect("count scalar") {
        Value::Int(n) => *n,
        other => panic!("COUNT(*) returned {other:?}"),
    }
}

/// (group key, group count) pairs from a grouped parallel aggregate.
fn group_counts(db: &Database) -> Vec<(i64, i64)> {
    let r = db
        .execute("SELECT b, COUNT(*) FROM t GROUP BY b ORDER BY b")
        .expect("grouped scan");
    r.rows()
        .iter()
        .map(|row| {
            let b = match row.get(0) {
                Value::Int(b) => *b,
                other => panic!("group key {other:?}"),
            };
            let n = match row.get(1) {
                Value::Int(n) => *n,
                other => panic!("group count {other:?}"),
            };
            (b, n)
        })
        .collect()
}

fn insert_batch(db: &Database, b: i64) -> bool {
    let rows: Vec<String> = (0..BATCH).map(|x| format!("({b}, {x})")).collect();
    db.execute(&format!("INSERT INTO t VALUES {}", rows.join(",")))
        .is_ok()
}

/// In debug builds the lock shim's witness records every acquisition
/// that breaks the declared rank hierarchy; this suite must not trip it.
fn assert_lock_hierarchy_clean() {
    if parking_lot::witness::enabled() {
        let v = parking_lot::witness::take_violations();
        assert!(v.is_empty(), "lock-order violations: {v:?}");
    }
}

/// Readers hammer parallel scans while the writer appends; nothing
/// crashes, per-reader counts are monotone, groups never overfill, and
/// the quiesced state is exact and identical at every thread count.
#[test]
fn concurrent_parallel_scans_against_writer() {
    const TOTAL: i64 = 60;
    let db = Database::new();
    db.execute("CREATE TABLE t (b INT, x INT)").expect("ddl");
    db.execute("SET exec_parallelism = 4").expect("knob");
    db.execute("SET checkpoint_interval = 8").expect("knob");
    let done = AtomicBool::new(false);
    let scans = AtomicU64::new(0);

    thread::scope(|s| {
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                s.spawn(|| {
                    let mut last = 0i64;
                    while !done.load(Ordering::Relaxed) {
                        let n = count_rows(&db);
                        assert!(
                            n >= last && n <= TOTAL * BATCH,
                            "count went backwards or overshot: {last} -> {n}"
                        );
                        // Statement snapshots make each INSERT atomic to
                        // readers: a live scan never sees a partial batch.
                        assert_eq!(n % BATCH, 0, "live scan saw a torn batch: {n} rows");
                        last = n;
                        for (b, cnt) in group_counts(&db) {
                            assert!(
                                (0..TOTAL).contains(&b) && cnt == BATCH,
                                "torn or malformed group ({b}, {cnt})"
                            );
                        }
                        scans.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for b in 0..TOTAL {
            // halfway, wait for a reader to finish a scan (or die trying),
            // so reads and writes overlap however the threads are scheduled
            if b == TOTAL / 2 {
                while scans.load(Ordering::Relaxed) == 0 && !readers.iter().any(|r| r.is_finished())
                {
                    thread::yield_now();
                }
            }
            assert!(insert_batch(&db, b), "healthy store rejected insert {b}");
        }
        done.store(true, Ordering::Relaxed);
    });

    assert!(scans.load(Ordering::Relaxed) > 0, "readers never ran");
    // Quiesced: exact totals, complete groups, thread count unobservable.
    for workers in [1usize, 2, 4, 8] {
        db.execute(&format!("SET exec_parallelism = {workers}"))
            .expect("knob");
        assert_eq!(count_rows(&db), TOTAL * BATCH, "workers={workers}");
        let groups = group_counts(&db);
        assert_eq!(groups.len() as i64, TOTAL, "workers={workers}");
        for (b, cnt) in groups {
            assert_eq!(cnt, BATCH, "torn batch {b} at workers={workers}");
        }
    }
    assert_lock_hierarchy_clean();
}

/// One life: concurrent readers and writer on a store scripted to crash
/// mid-workload, then recovery from what survived. Returns whether the
/// crash fired and how many batches the writer committed.
fn crash_life(seed: u64) -> (bool, i64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let disk = Arc::new(Disk::new());
    let crash_at = rng.gen_range(40u64..400);
    let torn = match seed % 3 {
        0 => TornMode::DropAll,
        1 => TornMode::Prefix,
        _ => TornMode::CorruptLast,
    };
    let inj = Arc::new(FaultInjector::new(
        disk,
        FaultPlan::crash_after(crash_at).with_torn_tail(torn),
    ));
    let store: Arc<dyn PageStore> = inj.clone();
    let db = Database::with_store(store);
    db.execute("CREATE TABLE t (b INT, x INT)").expect("ddl");
    db.execute("SET exec_parallelism = 4").expect("knob");
    db.execute("SET checkpoint_interval = 16").expect("knob");

    const MAX_BATCHES: i64 = 200;
    let stop = AtomicBool::new(false);
    let committed = AtomicU64::new(0);
    let mut crashed = false;

    thread::scope(|s| {
        for _ in 0..READERS {
            s.spawn(|| {
                let mut last = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    match db.execute("SELECT COUNT(*) FROM t") {
                        Ok(r) => {
                            let n = match r.scalar() {
                                Ok(Value::Int(n)) => *n,
                                other => panic!("seed {seed}: COUNT(*) -> {other:?}"),
                            };
                            assert!(
                                n >= last && n <= MAX_BATCHES * BATCH,
                                "seed {seed}: count went backwards or overshot: {last} -> {n}"
                            );
                            assert_eq!(
                                n % BATCH,
                                0,
                                "seed {seed}: live scan saw a torn batch: {n} rows"
                            );
                            last = n;
                        }
                        // Reads only fail once the scripted crash fired;
                        // after that every statement fails, so stop.
                        Err(_) => {
                            assert!(inj.crashed(), "seed {seed}: reader error without a crash");
                            break;
                        }
                    }
                }
            });
        }
        for b in 0..MAX_BATCHES {
            if insert_batch(&db, b) {
                committed.fetch_add(1, Ordering::Relaxed);
            } else {
                assert!(inj.crashed(), "seed {seed}: writer error without a crash");
                crashed = true;
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
    });

    // Recovery reopens the raw disk, bypassing the dead injector. An Ok
    // INSERT flushed its commit record before returning (wal_sync = 1),
    // so recovery must reproduce exactly the committed batches — whole,
    // in spite of the torn tail, at every parallelism level.
    let (rdb, report) = Database::recover(inj.underlying())
        .unwrap_or_else(|e| panic!("seed {seed}: recovery failed: {e}"));
    let want = committed.load(Ordering::Relaxed) as i64;
    let mut counts = Vec::new();
    for workers in [1usize, 4, 8] {
        rdb.execute(&format!("SET exec_parallelism = {workers}"))
            .expect("knob");
        let n = count_rows(&rdb);
        assert_eq!(
            n,
            want * BATCH,
            "seed {seed} workers={workers}: recovered rows (report {report:?})"
        );
        counts.push(n);
        let groups = group_counts(&rdb);
        assert_eq!(
            groups.len() as i64,
            want,
            "seed {seed} workers={workers}: recovered group set"
        );
        for (b, cnt) in groups {
            assert!(
                (0..want).contains(&b) && cnt == BATCH,
                "seed {seed} workers={workers}: torn batch ({b}, {cnt}) after recovery"
            );
        }
    }
    assert!(counts.windows(2).all(|w| w[0] == w[1]));
    // The recovered database accepts new concurrent work.
    assert!(
        insert_batch(&rdb, want),
        "seed {seed}: post-recovery insert"
    );
    (crashed, want)
}

#[test]
fn concurrent_scan_crash_recover_loop() {
    let mut crashes = 0u64;
    let mut total_committed = 0i64;
    const LIVES: u64 = 10;
    for seed in 0..LIVES {
        let (crashed, committed) = crash_life(seed);
        if crashed {
            crashes += 1;
        }
        total_committed += committed;
    }
    // The crash budget sits well inside the workload: most lives must
    // actually die mid-flight, and some batches must land before they do.
    assert!(crashes >= LIVES / 2, "only {crashes}/{LIVES} lives crashed");
    assert!(total_committed > 0, "no life committed a single batch");
    assert_lock_hierarchy_clean();
}
