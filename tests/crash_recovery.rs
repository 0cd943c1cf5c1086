//! Crash-recovery harness: deterministic durability tests plus a
//! randomized loop of `random DML → crash → recover → verify`.
//!
//! The driver is one session: it owns its open transaction (an
//! `Option<TxnHandle>` passed to `execute_session`), as a server
//! connection does. The oracle is a logical shadow of committed state,
//! maintained purely from statement outcomes: a statement that returned
//! `Ok` outside an open transaction is durably committed (`wal_sync = 1` flushes the commit
//! record before the statement returns), a statement that returned `Err`
//! or sat in a never-committed transaction must leave no trace after
//! recovery.
//!
//! Run with `--features fault-injection` for a much longer randomized run.

use std::collections::BTreeMap;
use std::sync::Arc;

use aimdb::engine::Database;
use aimdb::storage::{Disk, FaultInjector, FaultPlan, PageStore, TornMode};
use rand::{Rng, SeedableRng, StdRng};

#[cfg(feature = "fault-injection")]
const RANDOM_ITERATIONS: u64 = 500;
#[cfg(not(feature = "fault-injection"))]
const RANDOM_ITERATIONS: u64 = 120;

// ---------------------------------------------------------------------------
// Deterministic cases.

#[test]
fn committed_data_survives_recovery() {
    let disk: Arc<Disk> = Arc::new(Disk::new());
    {
        let db = Database::with_store(disk.clone());
        db.execute("CREATE TABLE t (id INT NOT NULL, tag TEXT)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
            .unwrap();
        db.execute("UPDATE t SET tag = 'z' WHERE id = 2").unwrap();
        db.execute("DELETE FROM t WHERE id = 3").unwrap();
        db.execute("CREATE INDEX idx_id ON t (id)").unwrap();
        // db dropped without any shutdown ceremony: a crash.
    }
    let (db, report) = Database::recover(disk).unwrap();
    assert!(report.replayed > 0);
    assert_eq!(report.corrupt_tail_bytes, 0);
    assert_eq!(report.loser_txns, 0);
    let r = db.execute("SELECT id, tag FROM t ORDER BY id").unwrap();
    let rows: Vec<String> = r.rows().iter().map(|r| format!("{r:?}")).collect();
    assert_eq!(rows.len(), 2);
    assert!(rows[0].contains("Int(1)") && rows[0].contains("\"a\""));
    assert!(rows[1].contains("Int(2)") && rows[1].contains("\"z\""));
    // the index came back too
    let t = db.catalog.table("t").unwrap();
    assert!(t.index_on("id").is_some());
    // and the recovered database accepts new work
    db.execute("INSERT INTO t VALUES (9, 'post')").unwrap();
    assert_eq!(
        db.execute("SELECT COUNT(*) FROM t")
            .unwrap()
            .scalar()
            .unwrap(),
        &aimdb::common::Value::Int(3)
    );
}

#[test]
fn uncommitted_txn_is_discarded_by_recovery() {
    let disk: Arc<Disk> = Arc::new(Disk::new());
    {
        let db = Database::with_store(disk.clone());
        db.execute("CREATE TABLE t (id INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        let mut txn = None;
        db.execute_session(&mut txn, "BEGIN").unwrap();
        db.execute_session(&mut txn, "INSERT INTO t VALUES (2)")
            .unwrap();
        db.execute_session(&mut txn, "DELETE FROM t WHERE id = 1")
            .unwrap();
        // Force the uncommitted records onto the durable log, as if a
        // background flush ran just before the crash.
        db.wal.flush().unwrap();
    }
    let (db, report) = Database::recover(disk).unwrap();
    assert_eq!(report.loser_txns, 1);
    let r = db.execute("SELECT id FROM t").unwrap();
    assert_eq!(r.rows().len(), 1, "losers' effects must be gone");
    assert_eq!(r.rows()[0].get(0), &aimdb::common::Value::Int(1));
}

#[test]
fn crc_catches_torn_tail_record() {
    // Build a log with two committed inserts, then hand recovery a copy
    // whose tail frame was torn mid-write.
    let disk: Arc<Disk> = Arc::new(Disk::new());
    {
        let db = Database::with_store(disk.clone());
        db.execute("CREATE TABLE t (id INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        db.execute("INSERT INTO t VALUES (2)").unwrap();
    }
    let bytes = disk.wal_bytes().unwrap();

    // Torn: the final frame loses its last 4 bytes.
    let torn: Arc<Disk> = Arc::new(Disk::new());
    torn.wal_append(&bytes[..bytes.len() - 4]).unwrap();
    let (db, report) = Database::recover(torn).unwrap();
    assert!(report.corrupt_tail_bytes > 0, "torn tail must be detected");
    let n = db.execute("SELECT COUNT(*) FROM t").unwrap();
    // the second insert's commit was in the torn frame → only row 1 lives
    assert_eq!(n.scalar().unwrap(), &aimdb::common::Value::Int(1));

    // Corrupt: same length, one flipped bit in the tail frame.
    let flipped: Arc<Disk> = Arc::new(Disk::new());
    let mut mangled = bytes.clone();
    let last = mangled.len() - 1;
    mangled[last] ^= 0x01;
    flipped.wal_append(&mangled).unwrap();
    let (db, report) = Database::recover(flipped).unwrap();
    assert!(report.corrupt_tail_bytes > 0, "bit flip must fail the CRC");
    let n = db.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(n.scalar().unwrap(), &aimdb::common::Value::Int(1));
}

#[test]
fn checkpoint_bounds_replay() {
    let disk: Arc<Disk> = Arc::new(Disk::new());
    let total = 200u64;
    {
        let db = Database::with_store(disk.clone());
        db.execute("CREATE TABLE t (id INT)").unwrap();
        db.execute("SET checkpoint_interval = 16").unwrap();
        for i in 0..total {
            db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        assert!(
            db.wal.records_since_checkpoint() < 3 * total,
            "checkpoints should have reset the counter"
        );
    }
    let (db, report) = Database::recover(disk).unwrap();
    assert!(
        report.from_checkpoint,
        "replay must start from a checkpoint"
    );
    assert!(
        report.replayed < total,
        "checkpoint should bound replay to the log tail, replayed {} of {} inserts",
        report.replayed,
        total
    );
    let n = db.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(
        n.scalar().unwrap(),
        &aimdb::common::Value::Int(total as i64)
    );
    assert_eq!(db.kpis().recoveries, 1);
    assert_eq!(db.kpis().wal_records_replayed, report.replayed);
}

/// Recovery reads the log in one pass: every checkpoint replaces the one
/// before it and resets the tail, so only the last checkpoint and what
/// follows it decide the recovered state, while the report still counts
/// the whole log. The history is framed by hand so every field is exact.
#[test]
fn recovery_uses_only_the_last_of_many_checkpoints() {
    use aimdb::common::{DataType, Row, Schema, Value};
    use aimdb::engine::RecoveryReport;
    use aimdb::storage::wal::frame_record;
    use aimdb::storage::{CheckpointData, IndexSnapshot, LogRecord, PageId, RowId, TableSnapshot};

    let schema = Schema::from_pairs(&[("id", DataType::Int), ("tag", DataType::Text)]);
    let row = |id: i64, tag: &str| Row::new(vec![Value::Int(id), Value::Text(tag.into())]);
    let rid = RowId {
        page: PageId(0),
        slot: 0,
    };
    let insert = |txn: u64, id: i64, tag: &str| LogRecord::Insert {
        txn,
        table: "t".into(),
        rid,
        row: row(id, tag),
    };
    let checkpoint = |next_txn: u64, ids: &[(i64, &str)]| {
        LogRecord::Checkpoint(Box::new(CheckpointData {
            next_txn,
            tables: vec![TableSnapshot {
                name: "t".into(),
                schema: schema.clone(),
                rows: ids.iter().map(|(id, tag)| row(*id, tag)).collect(),
            }],
            indexes: vec![IndexSnapshot {
                name: "idx_id".into(),
                table: "t".into(),
                column: "id".into(),
            }],
        }))
    };

    let history = vec![
        LogRecord::CreateTable {
            name: "t".into(),
            schema: schema.clone(),
        },
        LogRecord::Begin { txn: 1 },
        insert(1, 1, "a"),
        LogRecord::Commit { txn: 1 },
        checkpoint(2, &[(1, "a")]),
        LogRecord::Begin { txn: 2 },
        insert(2, 2, "b"),
        LogRecord::Commit { txn: 2 },
        checkpoint(3, &[(1, "a"), (2, "b")]),
        LogRecord::Begin { txn: 3 },
        insert(3, 3, "c"),
        LogRecord::Commit { txn: 3 },
        checkpoint(4, &[(1, "a"), (2, "b"), (3, "c")]),
        // The tail. Txn 4 commits.
        LogRecord::Begin { txn: 4 },
        LogRecord::Update {
            txn: 4,
            table: "t".into(),
            old_rid: rid,
            new_rid: rid,
            before: row(2, "b"),
            after: row(2, "B"),
        },
        insert(4, 4, "d"),
        LogRecord::Commit { txn: 4 },
        // Txn 5 never reaches a terminal record: a loser.
        LogRecord::Begin { txn: 5 },
        insert(5, 5, "loser"),
        LogRecord::Delete {
            txn: 5,
            table: "t".into(),
            rid,
            before: row(1, "a"),
        },
        // Txn 6's commit failed to become durable and was annulled.
        LogRecord::Begin { txn: 6 },
        insert(6, 6, "annulled"),
        LogRecord::Commit { txn: 6 },
        LogRecord::Abort { txn: 6 },
        // Txn 9's commit is the torn frame: a loser too.
        LogRecord::Begin { txn: 9 },
        insert(9, 9, "torn"),
    ];
    let mut bytes = Vec::new();
    for (i, rec) in history.iter().enumerate() {
        bytes.extend_from_slice(&frame_record(i as u64 + 1, rec));
    }
    let torn = frame_record(history.len() as u64 + 1, &LogRecord::Commit { txn: 9 });
    bytes.extend_from_slice(&torn[..torn.len() - 3]);

    let disk: Arc<Disk> = Arc::new(Disk::new());
    disk.wal_append(&bytes).unwrap();
    let (db, report) = Database::recover(disk).unwrap();
    assert_eq!(
        report,
        RecoveryReport {
            total_records: history.len(),
            replayed: 2,
            from_checkpoint: true,
            committed_txns: 1,
            loser_txns: 2,
            corrupt_tail_bytes: torn.len() - 3,
        }
    );
    let r = db.execute("SELECT id, tag FROM t ORDER BY id").unwrap();
    let got: Vec<(i64, &str)> = r
        .rows()
        .iter()
        .map(|r| (r.get(0).as_i64().unwrap(), r.get(1).as_str().unwrap()))
        .collect();
    assert_eq!(got, [(1, "a"), (2, "B"), (3, "c"), (4, "d")]);
    assert!(db.catalog.table("t").unwrap().index_on("id").is_some());
    // Ids restart above every id in the old log, torn transaction included.
    assert!(db.begin_txn().unwrap().id > 9);
}

#[test]
fn injected_faults_surface_as_errors_not_panics() {
    let disk = Arc::new(Disk::new());
    let inj = Arc::new(FaultInjector::new(
        disk.clone(),
        FaultPlan::default().with_io_error_at(vec![4]),
    ));
    let store: Arc<dyn PageStore> = inj.clone();
    let db = Database::with_store(store);
    db.execute("CREATE TABLE t (id INT)").unwrap();
    // Hammer DML until the scripted transient error fires; every outcome
    // must be an Err, never a panic, and the store must stay usable.
    let mut saw_error = false;
    for i in 0..10 {
        if db.execute(&format!("INSERT INTO t VALUES ({i})")).is_err() {
            saw_error = true;
        }
    }
    assert!(saw_error, "the transient fault should have hit a statement");
    assert!(!inj.crashed());
    db.execute("INSERT INTO t VALUES (99)").unwrap();
}

#[test]
fn crash_hook_dumps_parseable_flight_snapshot() {
    let disk = Arc::new(Disk::new());
    let inj = Arc::new(FaultInjector::new(
        disk,
        FaultPlan::crash_after(12).with_torn_tail(TornMode::Prefix),
    ));
    let store: Arc<dyn PageStore> = inj.clone();
    let db = Database::with_store(store);
    db.execute("CREATE TABLE t (id INT, tag TEXT)").unwrap();

    // The hook fires at the exact store op where the scripted crash
    // lands, while the dying database's flight recorder still holds the
    // final statements — the post-mortem the ring buffer exists for.
    let dump: Arc<std::sync::Mutex<Option<String>>> = Arc::default();
    let flight = db.flight_recorder();
    let sink = Arc::clone(&dump);
    inj.set_crash_hook(move || {
        let text = flight.dump_json("scripted_crash").to_string_pretty();
        *sink.lock().unwrap() = Some(text);
    });

    let mut crashed = false;
    for i in 0..200 {
        if db
            .execute(&format!("INSERT INTO t VALUES ({i}, 'x')"))
            .is_err()
        {
            crashed = true;
            break;
        }
    }
    assert!(crashed && inj.crashed(), "scripted crash never fired");

    let text = dump.lock().unwrap().take().expect("crash hook ran");
    let doc = aimdb::common::json::Json::parse(&text).expect("snapshot parses");
    assert_eq!(
        doc.field("reason").unwrap().as_str().unwrap(),
        "scripted_crash"
    );
    let events = doc.field("events").unwrap().as_arr().unwrap();
    assert!(!events.is_empty(), "post-mortem must carry events");
    let kinds: Vec<&str> = events
        .iter()
        .map(|e| e.field("kind").unwrap().as_str().unwrap())
        .collect();
    assert!(kinds.contains(&"stmt_begin"), "{kinds:?}");
    assert!(kinds.contains(&"commit"), "{kinds:?}");

    // the post-mortem is a side channel: recovery itself is unaffected
    drop(db);
    let (rdb, _report) = Database::recover(inj.underlying()).unwrap();
    rdb.execute("SELECT COUNT(*) FROM t").unwrap();
}

// ---------------------------------------------------------------------------
// The log cut: every checkpoint drops the durable log in front of itself.

/// A small committed history with checkpoints in it: returns the ids the
/// table must hold afterwards.
fn write_history(db: &Database, rows: i64) -> Vec<i64> {
    db.execute("CREATE TABLE t (id INT NOT NULL, tag TEXT)")
        .unwrap();
    db.execute("CREATE INDEX t_id ON t (id)").unwrap();
    db.execute("SET checkpoint_interval = 16").unwrap();
    for i in 0..rows {
        db.execute(&format!("INSERT INTO t VALUES ({i}, 'r{i}')"))
            .unwrap();
    }
    db.execute("DELETE FROM t WHERE id = 3").unwrap();
    db.execute("UPDATE t SET tag = 'seen' WHERE id = 4")
        .unwrap();
    (0..rows).filter(|i| *i != 3).collect()
}

fn ids_of(db: &Database) -> Vec<i64> {
    db.execute("SELECT id FROM t ORDER BY id")
        .unwrap()
        .rows()
        .iter()
        .map(|r| r.get(0).as_i64().unwrap())
        .collect()
}

#[test]
fn durable_log_stays_within_one_checkpoint_and_one_interval() {
    use aimdb::storage::wal::frame_record;
    use aimdb::storage::{scan_wal, LogRecord};

    let disk: Arc<Disk> = Arc::new(Disk::new());
    let db = Database::with_store(disk.clone());
    let mut high_water = 0;
    db.execute("CREATE TABLE t (id INT NOT NULL, tag TEXT)")
        .unwrap();
    db.execute("SET checkpoint_interval = 16").unwrap();
    for i in 0..300 {
        db.execute(&format!("INSERT INTO t VALUES ({i}, 'r{i}')"))
            .unwrap();
        high_water = high_water.max(disk.wal_len());
    }
    // 300 autocommit inserts are 900 records: dozens of checkpoints. What
    // is durable is the last of them and the records since — at most one
    // interval plus the statement that tripped it.
    let scan = scan_wal(&disk.wal_bytes().unwrap());
    assert_eq!(scan.corrupt_tail_bytes, 0);
    let (lsn, first) = &scan.records[0];
    assert!(matches!(first, LogRecord::Checkpoint(_)), "{first:?}");
    let tail = &scan.records[1..];
    assert!(tail.len() <= 16 + 3, "{} records behind it", tail.len());
    assert!(tail
        .iter()
        .all(|(_, r)| !matches!(r, LogRecord::Checkpoint(_))));
    // and in bytes, at every moment of the run: one whole-table
    // checkpoint frame plus one interval of insert-sized records
    let frame = frame_record(*lsn, first).len();
    assert!(
        high_water <= frame + (16 + 3) * 64,
        "log reached {high_water} bytes; the last checkpoint frame is {frame}"
    );
    let (rdb, report) = Database::recover(disk).unwrap();
    assert!(report.from_checkpoint);
    assert_eq!(report.total_records, scan.records.len());
    assert_eq!(ids_of(&rdb).len(), 300);
}

/// Run `checkpoint_now` on a healthy history with the store scripted to
/// die `back` mutating operations before the checkpoint's last one — its
/// last is the cut, the one before it the append — and recover.
fn crash_in_checkpoint(back: u64, torn: TornMode) {
    let run = |plan: Option<(u64, TornMode)>| {
        let inj = Arc::new(FaultInjector::new(
            Arc::new(Disk::new()),
            FaultPlan::default(),
        ));
        let db = Database::with_store(inj.clone() as Arc<dyn PageStore>);
        let want = write_history(&db, 40);
        if let Some((at, torn)) = plan {
            inj.arm(FaultPlan::crash_after(at).with_torn_tail(torn));
        }
        let before = inj.ops();
        let outcome = db.checkpoint_now();
        (inj, want, before, outcome)
    };
    // a dry run counts the checkpoint's mutating operations
    let (inj, _, before, outcome) = run(None);
    outcome.unwrap();
    let cp_ops = inj.ops() - before;
    assert!(cp_ops >= 2, "a checkpoint appends, then cuts");

    let (inj, want, _, outcome) = run(Some((cp_ops - back, torn)));
    assert!(outcome.is_err() && inj.crashed(), "back {back} {torn:?}");
    let disk = inj.underlying();
    let (rdb, _) = Database::recover(disk.clone()).unwrap();
    assert_eq!(ids_of(&rdb), want, "back {back} {torn:?}");
    // recovery left one checkpoint and nothing else
    assert_eq!(
        aimdb::storage::scan_wal(&disk.wal_bytes().unwrap())
            .records
            .len(),
        1
    );
}

#[test]
fn crash_at_the_checkpoint_append_or_at_the_cut_loses_nothing() {
    for torn in [TornMode::DropAll, TornMode::Prefix, TornMode::CorruptLast] {
        crash_in_checkpoint(1, torn); // the append: the old log is whole
    }
    crash_in_checkpoint(0, TornMode::DropAll); // the cut: two checkpoints
}

/// Recovery ends with a checkpoint of its own. It used to empty the log
/// first, so dying at that append left nothing to recover from; now the
/// old log goes only once the new checkpoint is durable.
#[test]
fn crash_at_recoverys_own_checkpoint_loses_nothing() {
    let origin: Arc<Disk> = Arc::new(Disk::new());
    let want = write_history(&Database::with_store(origin.clone()), 40);
    let log = origin.wal_bytes().unwrap();
    let reopen = |plan: FaultPlan| {
        let disk = Arc::new(Disk::new());
        disk.wal_append(&log).unwrap();
        let inj = Arc::new(FaultInjector::new(disk, plan));
        let outcome = Database::recover(inj.clone() as Arc<dyn PageStore>);
        (inj, outcome.map(|(db, _)| ids_of(&db)))
    };
    let (inj, outcome) = reopen(FaultPlan::default());
    assert_eq!(outcome.unwrap(), want);
    let ops = inj.ops(); // the last is the cut, the one before it the append

    for (at, torn) in [
        (ops - 1, TornMode::DropAll),
        (ops - 1, TornMode::Prefix),
        (ops - 1, TornMode::CorruptLast),
        (ops, TornMode::DropAll),
    ] {
        let (inj, outcome) = reopen(FaultPlan::crash_after(at).with_torn_tail(torn));
        assert!(outcome.is_err() && inj.crashed(), "op {at} {torn:?}");
        let (rdb, _) = Database::recover(inj.underlying()).unwrap();
        assert_eq!(ids_of(&rdb), want, "op {at} {torn:?}");
        assert_eq!(
            rdb.execute("SELECT tag FROM t WHERE id = 4")
                .unwrap()
                .scalar()
                .unwrap(),
            &aimdb::common::Value::Text("seen".into())
        );
    }
}

// ---------------------------------------------------------------------------
// Randomized crash/recover loop.

type ShadowRows = Vec<(i64, String)>;

#[derive(Clone, Default)]
struct Shadow {
    tables: BTreeMap<String, ShadowRows>,
}

fn sorted(mut rows: ShadowRows) -> ShadowRows {
    rows.sort();
    rows
}

/// One life: random DML against a store scripted to crash, then recovery
/// from what survived, then a full state comparison against the shadow.
fn crash_iteration(seed: u64) -> bool {
    let mut rng = StdRng::seed_from_u64(seed);
    let disk = Arc::new(Disk::new());
    let crash_at = rng.gen_range(3u64..60);
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
    if seed % 2 == 1 {
        // put checkpoint appends and log cuts among the crash points
        db.execute("SET checkpoint_interval = 8").unwrap();
    }

    // Committed state (what recovery must reproduce) and the pending view
    // inside an open transaction (what recovery must discard on a crash).
    let mut committed = Shadow::default();
    let mut pending: Option<Shadow> = None;
    // The session's open transaction; `pending` is its shadow.
    let mut txn = None;
    let mut crashed = false;

    for step in 0..80u64 {
        assert_eq!(txn.is_some(), pending.is_some(), "seed {seed} step {step}");
        let view = pending.as_mut().unwrap_or(&mut committed);
        let action = rng.gen_range(0u32..100);
        let table = format!("t{}", rng.gen_range(0u32..2));
        let outcome: Result<(), aimdb::common::AimError> =
            if action < 10 && !view.tables.contains_key(&table) {
                // DDL is non-transactional and refused inside a transaction,
                // so it arrives as another connection's autocommit statement
                // would: it commits immediately even while the session's
                // transaction is open.
                db.execute(&format!("CREATE TABLE {table} (id INT, tag TEXT)"))
                    .map(|_| {
                        committed.tables.entry(table.clone()).or_default();
                        if let Some(p) = pending.as_mut() {
                            p.tables.entry(table.clone()).or_default();
                        }
                    })
            } else if !view.tables.contains_key(&table) {
                continue; // most actions need the table to exist
            } else if action < 45 {
                let k = rng.gen_range(1usize..=3);
                let vals: Vec<(i64, String)> = (0..k)
                    .map(|_| {
                        let id = rng.gen_range(0i64..30);
                        (id, format!("v{}", rng.gen_range(0u32..1000)))
                    })
                    .collect();
                let sql_rows: Vec<String> = vals
                    .iter()
                    .map(|(id, tag)| format!("({id}, '{tag}')"))
                    .collect();
                db.execute_session(
                    &mut txn,
                    &format!("INSERT INTO {table} VALUES {}", sql_rows.join(", ")),
                )
                .map(|_| {
                    let view = pending.as_mut().unwrap_or(&mut committed);
                    if let Some(t) = view.tables.get_mut(&table) {
                        t.extend(vals)
                    }
                })
            } else if action < 60 {
                let target = rng.gen_range(0i64..30);
                let tag = format!("u{step}");
                db.execute_session(
                    &mut txn,
                    &format!("UPDATE {table} SET tag = '{tag}' WHERE id = {target}"),
                )
                .map(|_| {
                    let view = pending.as_mut().unwrap_or(&mut committed);
                    if let Some(rows) = view.tables.get_mut(&table) {
                        for row in rows.iter_mut().filter(|(id, _)| *id == target) {
                            row.1 = tag.clone();
                        }
                    }
                })
            } else if action < 72 {
                let target = rng.gen_range(0i64..30);
                db.execute_session(
                    &mut txn,
                    &format!("DELETE FROM {table} WHERE id = {target}"),
                )
                .map(|_| {
                    let view = pending.as_mut().unwrap_or(&mut committed);
                    if let Some(rows) = view.tables.get_mut(&table) {
                        rows.retain(|(id, _)| *id != target);
                    }
                })
            } else if action < 80 && pending.is_none() {
                db.execute_session(&mut txn, "BEGIN").map(|_| {
                    pending = Some(committed.clone());
                })
            } else if action < 90 && pending.is_some() {
                if rng.gen_bool(0.7) {
                    db.execute_session(&mut txn, "COMMIT").map(|_| {
                        if let Some(p) = pending.take() {
                            committed = p;
                        }
                    })
                } else {
                    db.execute_session(&mut txn, "ROLLBACK").map(|_| {
                        pending = None;
                    })
                }
            } else {
                db.execute_session(&mut txn, &format!("SELECT COUNT(*) FROM {table}"))
                    .map(|_| ())
            };

        if outcome.is_err() {
            assert!(
                inj.crashed(),
                "seed {seed} step {step}: error without a crash: {outcome:?}"
            );
            crashed = true;
            break;
        }
    }

    // Recovery reopens the raw disk, exactly as a restart bypasses the
    // process that died.
    let (rdb, report) = Database::recover(inj.underlying())
        .unwrap_or_else(|e| panic!("seed {seed}: recovery failed: {e}"));

    let recovered_tables = rdb.catalog.table_names();
    let expect_tables: Vec<String> = committed.tables.keys().cloned().collect();
    assert_eq!(
        recovered_tables, expect_tables,
        "seed {seed}: table set diverged (report {report:?})"
    );
    for (name, want) in &committed.tables {
        let t = rdb.catalog.table(name).unwrap();
        let got: ShadowRows = t
            .scan()
            .unwrap()
            .into_iter()
            .map(|(_, row)| {
                (
                    row.get(0).as_i64().unwrap(),
                    row.get(1).as_str().unwrap().to_string(),
                )
            })
            .collect();
        assert_eq!(
            sorted(got),
            sorted(want.clone()),
            "seed {seed}: rows diverged in {name} (crashed={crashed}, report {report:?})"
        );
    }
    crashed
}

#[test]
fn randomized_crash_recover_loop() {
    let mut crashes = 0u64;
    for seed in 0..RANDOM_ITERATIONS {
        if crash_iteration(seed) {
            crashes += 1;
        }
    }
    // The crash point is drawn from the thick of the workload; the loop is
    // only meaningful if most lives actually die mid-flight.
    assert!(
        crashes >= RANDOM_ITERATIONS / 2,
        "only {crashes}/{RANDOM_ITERATIONS} iterations crashed"
    );
}
