//! Fault-injected writer races under MVCC snapshot isolation.
//!
//! N writer transactions race M snapshot readers. Every writer updates
//! one *pair* of rows to the same unique value inside a single
//! transaction, so transactional atomicity is observable from outside:
//! a scan (live, quiesced, or recovered) that ever sees a value on only
//! one row of its pair has caught a torn transaction. Readers verify
//! pair integrity and snapshot repeatability while the store is healthy,
//! and the whole workload then runs in a seeded loop of lives on a
//! fault-injected store — torn WAL tails, transient I/O errors, and
//! scripted crashes — after which ARIES-lite redo recovery must rebuild
//! a prefix-consistent state: every acknowledged commit survives unless
//! superseded by a later (possibly unacknowledged but durable) one, and
//! no transaction is ever half-applied.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use aimdb::common::{AimError, Value};
use aimdb::engine::Database;
use aimdb::storage::{Disk, FaultInjector, FaultPlan, PageStore, TornMode};
use rand::{Rng, SeedableRng, StdRng};

/// Row pairs in the table; pair `p` is rows `2p` and `2p + 1`.
const PAIRS: i64 = 8;
const WRITERS: usize = 4;
const READERS: usize = 2;

/// One committed (or possibly-committed) transaction: which pair it
/// updated, the unique value it wrote, and its commit timestamp when the
/// commit was acknowledged.
#[derive(Debug, Clone, Copy)]
struct Receipt {
    pair: i64,
    value: i64,
    /// `Some(cts)` when `commit_txn` returned Ok; `None` when the commit
    /// was submitted but its fate is unknown (crash mid-commit).
    cts: Option<u64>,
}

/// In debug builds the lock shim's witness records every acquisition
/// that breaks the declared rank hierarchy; this suite must not trip it.
fn assert_lock_hierarchy_clean() {
    if parking_lot::witness::enabled() {
        let v = parking_lot::witness::take_violations();
        assert!(v.is_empty(), "lock-order violations: {v:?}");
    }
}

/// Seed the table in a single statement so a scripted fault can never
/// land between two halves of the initial state.
fn setup(db: &Database) {
    db.execute("CREATE TABLE pairs (id INT, v INT)")
        .expect("ddl");
    let rows: Vec<String> = (0..2 * PAIRS).map(|id| format!("({id}, 0)")).collect();
    db.execute(&format!("INSERT INTO pairs VALUES {}", rows.join(",")))
        .expect("seed rows");
}

/// Read `(id, v)` for all rows, sorted by id. Errors bubble up so crash
/// lives can stop cleanly.
fn read_rows(db: &Database) -> Result<Vec<(i64, i64)>, AimError> {
    let r = db.execute("SELECT id, v FROM pairs ORDER BY id")?;
    Ok(r.rows()
        .iter()
        .map(|row| {
            let id = match row.get(0) {
                Value::Int(n) => *n,
                other => panic!("id column returned {other:?}"),
            };
            let v = match row.get(1) {
                Value::Int(n) => *n,
                other => panic!("v column returned {other:?}"),
            };
            (id, v)
        })
        .collect())
}

/// Assert one scan's pair integrity: both rows of every pair hold the
/// same value. Any mismatch is a torn transaction made visible.
fn assert_pairs_consistent(rows: &[(i64, i64)], ctx: &str) -> Vec<i64> {
    assert_eq!(rows.len() as i64, 2 * PAIRS, "{ctx}: row count");
    let mut values = Vec::with_capacity(PAIRS as usize);
    for p in 0..PAIRS {
        let (ida, va) = rows[2 * p as usize];
        let (idb, vb) = rows[2 * p as usize + 1];
        assert_eq!((ida, idb), (2 * p, 2 * p + 1), "{ctx}: pair {p} ids");
        assert_eq!(va, vb, "{ctx}: torn pair {p}: {va} vs {vb}");
        values.push(va);
    }
    values
}

/// One writer transaction: update both rows of `pair` to `value`.
/// `Ok(receipt)` when the commit was submitted (acknowledged or not),
/// `Err(true)` on a write conflict (rolled back), `Err(false)` when the
/// statement failed for any other reason (fault or dead store).
fn write_pair(db: &Database, pair: i64, value: i64) -> Result<Receipt, bool> {
    let h = match db.begin_txn() {
        Ok(h) => h,
        Err(_) => return Err(false),
    };
    for id in [2 * pair, 2 * pair + 1] {
        match db.execute_in(&h, &format!("UPDATE pairs SET v = {value} WHERE id = {id}")) {
            Ok(_) => {}
            Err(AimError::WriteConflict(_)) => {
                // Roll back best-effort; on a dead store the abort record
                // simply never lands and recovery discards the txn anyway.
                let _ = db.rollback_txn(&h);
                return Err(true);
            }
            Err(_) => {
                let _ = db.rollback_txn(&h);
                return Err(false);
            }
        }
    }
    match db.commit_txn(&h) {
        Ok(cts) => Ok(Receipt {
            pair,
            value,
            cts: Some(cts),
        }),
        // The commit was submitted: its record may or may not have become
        // durable before the crash. Recovery may legitimately keep it.
        Err(_) => Ok(Receipt {
            pair,
            value,
            cts: None,
        }),
    }
}

/// One pair's receipts: the acknowledged (commit ts, value) with the
/// latest commit ts, and every unknown-fate value.
type PairReceipts = (Option<(u64, i64)>, Vec<i64>);

/// Per-pair oracle from the receipts: the last acknowledged value (by
/// commit timestamp) and the set of unknown-fate values.
fn pair_oracle(receipts: &[Receipt]) -> HashMap<i64, (Option<i64>, Vec<i64>)> {
    let mut oracle: HashMap<i64, PairReceipts> = HashMap::new();
    for r in receipts {
        let e = oracle.entry(r.pair).or_default();
        match r.cts {
            Some(cts) => {
                if e.0.map(|(best, _)| cts > best).unwrap_or(true) {
                    e.0 = Some((cts, r.value));
                }
            }
            None => e.1.push(r.value),
        }
    }
    oracle
        .into_iter()
        .map(|(p, (acked, unknown))| (p, (acked.map(|(_, v)| v), unknown)))
        .collect()
}

/// Check a quiesced or recovered state against the receipts: each pair
/// holds its last acknowledged value, or an unknown-fate value durably
/// ahead of it in the log, or its initial 0 if nothing acknowledged.
///
/// Same-pair transactions are serialized by first-updater-wins (the
/// second writer cannot even claim the row until the first committed),
/// so commit-timestamp order and WAL order agree per pair and the "last
/// acknowledged" value is well-defined.
fn assert_prefix_consistent(values: &[i64], receipts: &[Receipt], ctx: &str) {
    let oracle = pair_oracle(receipts);
    for p in 0..PAIRS {
        let v = values[p as usize];
        let (acked, unknown) = oracle.get(&p).cloned().unwrap_or((None, Vec::new()));
        let mut allowed: Vec<i64> = unknown;
        match acked {
            Some(a) => allowed.push(a),
            None => allowed.push(0),
        }
        assert!(
            allowed.contains(&v),
            "{ctx}: pair {p} holds {v}, allowed {allowed:?} (acked {acked:?})"
        );
    }
}

/// Healthy store: writers race readers with group commit enabled. No
/// scan may ever observe a torn pair, snapshot reads are repeatable, the
/// quiesced state matches the receipts exactly, and group commit must
/// have amortized fsyncs across commits.
#[test]
fn writer_races_healthy_store_with_group_commit() {
    let db = Database::new();
    setup(&db);
    db.execute("SET group_commit_window = 200").expect("knob");
    let flushes_before = db.wal.flush_count();
    let commits_before = db.kpis().txns_committed;

    const OPS_PER_WRITER: usize = 60;
    let receipts: Mutex<Vec<Receipt>> = Mutex::new(Vec::new());
    let conflicts = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let db = &db;

    thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let receipts = &receipts;
                let conflicts = &conflicts;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(w as u64);
                    for op in 0..OPS_PER_WRITER {
                        let pair = rng.gen_range(0i64..PAIRS);
                        let value = (w * 1_000_000 + op + 1) as i64;
                        match write_pair(db, pair, value) {
                            Ok(r) => {
                                assert!(r.cts.is_some(), "healthy commit unacknowledged");
                                receipts.lock().expect("receipts").push(r);
                            }
                            Err(true) => {
                                conflicts.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(false) => panic!("healthy store writer {w} hit an I/O error"),
                        }
                    }
                })
            })
            .collect();
        for _ in 0..READERS {
            let done = &done;
            s.spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    // Plain statement: a fresh read snapshot per scan.
                    let rows = read_rows(db).expect("healthy read");
                    assert_pairs_consistent(&rows, "live plain scan");
                    // Transaction handle: the snapshot is frozen, so two
                    // reads must agree even while writers commit between.
                    let h = db.begin_txn().expect("reader begin");
                    let first = db
                        .execute_in(&h, "SELECT SUM(v) FROM pairs")
                        .expect("sum 1");
                    let second = db
                        .execute_in(&h, "SELECT SUM(v) FROM pairs")
                        .expect("sum 2");
                    assert_eq!(
                        first.scalar().expect("sum 1 scalar"),
                        second.scalar().expect("sum 2 scalar"),
                        "snapshot read not repeatable"
                    );
                    db.rollback_txn(&h).expect("reader end");
                }
            });
        }
        for w in writers {
            w.join().expect("writer thread");
        }
        done.store(true, Ordering::Relaxed);
    });

    let receipts = receipts.into_inner().expect("receipts");
    assert!(!receipts.is_empty(), "no writer committed anything");

    let rows = read_rows(db).expect("quiesced read");
    let values = assert_pairs_consistent(&rows, "quiesced scan");
    assert_prefix_consistent(&values, &receipts, "quiesced state");

    // Group commit batched: strictly fewer fsyncs than commits.
    let flushed = db.wal.flush_count() - flushes_before;
    let committed = db.kpis().txns_committed - commits_before;
    assert!(committed as usize >= receipts.len());
    assert!(
        flushed < committed,
        "group commit never batched: {flushed} fsyncs for {committed} commits"
    );
    assert_lock_hierarchy_clean();
}

/// One fault-injected life: writers and readers race on a store scripted
/// to throw transient I/O errors and then crash; recovery from the torn
/// remains must be prefix-consistent with zero torn pairs.
fn crash_life(seed: u64) -> (bool, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let disk = Arc::new(Disk::new());
    let crash_at = rng.gen_range(50u64..330);
    let torn = match seed % 3 {
        0 => TornMode::DropAll,
        1 => TornMode::Prefix,
        _ => TornMode::CorruptLast,
    };
    // Transient errors strictly after seeding (a handful of ops — the
    // whole table is seeded in one statement) and before the earliest
    // possible crash point, so only workload statements ever see them.
    let transients = vec![rng.gen_range(10..40u64), rng.gen_range(10..40u64)];
    let inj = Arc::new(FaultInjector::new(
        disk,
        FaultPlan::crash_after(crash_at)
            .with_torn_tail(torn)
            .with_io_error_at(transients),
    ));
    let store: Arc<dyn PageStore> = inj.clone();
    let db = Database::with_store(store);
    setup(&db);
    db.execute("SET group_commit_window = 100").expect("knob");

    const MAX_OPS: usize = 400;
    let receipts: Mutex<Vec<Receipt>> = Mutex::new(Vec::new());
    let stop = AtomicBool::new(false);
    let dbr = &db;

    thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let receipts = &receipts;
                let inj = &inj;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed * 31 + w as u64);
                    for op in 0..MAX_OPS {
                        let pair = rng.gen_range(0i64..PAIRS);
                        let value = (w * 1_000_000 + op + 1) as i64;
                        match write_pair(dbr, pair, value) {
                            Ok(r) => receipts.lock().expect("receipts").push(r),
                            Err(true) => {}
                            Err(false) => {
                                // Transient faults abort one statement but
                                // the store stays alive; only the scripted
                                // crash ends this writer's life.
                                if inj.crashed() {
                                    break;
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        for _ in 0..READERS {
            let stop = &stop;
            let inj = &inj;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match read_rows(dbr) {
                        Ok(rows) => {
                            assert_pairs_consistent(&rows, "live scan under faults");
                        }
                        Err(_) => {
                            assert!(inj.crashed(), "seed {seed}: reader error without a crash");
                            break;
                        }
                    }
                }
            });
        }
        for w in writers {
            w.join().expect("writer thread");
        }
        stop.store(true, Ordering::Relaxed);
    });

    let crashed = inj.crashed();
    let receipts = receipts.into_inner().expect("receipts");

    // Recovery reopens the raw disk that survived, without the injector.
    let (rdb, _report) = Database::recover(inj.underlying())
        .unwrap_or_else(|e| panic!("seed {seed}: recovery failed: {e}"));
    let rows = read_rows(&rdb).unwrap_or_else(|e| panic!("seed {seed}: recovered read: {e}"));
    let values = assert_pairs_consistent(&rows, &format!("seed {seed}: recovered scan"));
    assert_prefix_consistent(&values, &receipts, &format!("seed {seed}: recovered state"));

    // The recovered database accepts new transactional work.
    let h = rdb.begin_txn().expect("post-recovery begin");
    for id in [0, 1] {
        rdb.execute_in(&h, &format!("UPDATE pairs SET v = 424242 WHERE id = {id}"))
            .unwrap_or_else(|e| panic!("seed {seed}: post-recovery update: {e}"));
    }
    rdb.commit_txn(&h).expect("post-recovery commit");
    let rows = read_rows(&rdb).expect("post-recovery read");
    let values = assert_pairs_consistent(&rows, "post-recovery scan");
    assert_eq!(values[0], 424242, "post-recovery write lost");

    let acked = receipts.iter().filter(|r| r.cts.is_some()).count();
    (crashed, acked)
}

#[test]
fn writer_races_crash_recover_loop() {
    const LIVES: u64 = 8;
    let mut crashes = 0u64;
    let mut total_acked = 0usize;
    for seed in 0..LIVES {
        let (crashed, acked) = crash_life(seed);
        if crashed {
            crashes += 1;
        }
        total_acked += acked;
    }
    // The crash budget sits inside the workload: most lives die mid-run,
    // and plenty of commits land before they do.
    assert!(crashes >= LIVES / 2, "only {crashes}/{LIVES} lives crashed");
    assert!(total_acked > 0, "no life acknowledged a single commit");
    assert_lock_hierarchy_clean();
}
