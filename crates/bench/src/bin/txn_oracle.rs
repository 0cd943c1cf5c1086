//! Committed-history serializability oracle for MVCC + group commit.
//!
//! Runs thousands of randomized concurrent histories against the engine
//! and validates each one mechanically, two ways:
//!
//! **Healthy histories** — N writer threads run read-modify-write
//! transactions (`v ← a·v + b`, a non-commutative affine update) over a
//! small table, retrying on `WriteConflict`. Every committed transaction
//! is recorded with its commit timestamp and the exact ops it applied.
//! Because first-updater-wins pins each claimed row until its claimant
//! resolves, a committed transaction always read the latest committed
//! value of every row it wrote — so replaying the committed transactions
//! *serially, in commit-timestamp order* from the initial state must
//! reproduce the final database state bit-for-bit. Any lost update, torn
//! write, stale read, or commit-order anomaly breaks the replay.
//!
//! **Crash lives** — the same pair-write workload as the fault-injected
//! race suite: every transaction writes one *pair* of rows to the same
//! unique value through a `FaultInjector` scripted with transient I/O
//! errors and a crash point. After the crash, ARIES-lite redo recovery
//! must produce a state with zero torn pairs (no group-commit batch was
//! half-applied) that is prefix-consistent with the acknowledged
//! commits, and must accept new transactional work.
//!
//! ```text
//! txn_oracle                 # 10_000 histories (CI-independent full run)
//! txn_oracle --smoke         # ~300 histories (CI gate)
//! txn_oracle --histories N   # explicit count
//! txn_oracle --seed S        # base seed (default 1)
//! ```
//!
//! Exits nonzero on the first violated history, printing its seed so the
//! failure replays deterministically.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread;

use aimdb_common::{AimError, Value};
use aimdb_engine::Database;
use aimdb_storage::{Disk, FaultInjector, FaultPlan, PageStore, TornMode};
use rand::{Rng, SeedableRng, StdRng};
use std::sync::Arc;

/// Every `CRASH_EVERY`-th history is a fault-injected crash life.
const CRASH_EVERY: u64 = 25;
/// Retries per transaction before the writer gives the op up as lost to
/// contention (the oracle only replays what actually committed).
const MAX_RETRIES: usize = 4;

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------- healthy

/// One committed transaction: the affine ops it applied, keyed by its
/// commit timestamp for the serial replay.
struct TxnReceipt {
    cts: u64,
    /// `(row, a, b)` — the transaction read `v` and wrote `a·v + b`.
    ops: Vec<(i64, i64, i64)>,
}

struct HealthyStats {
    committed: usize,
    conflicts: usize,
}

/// Attempt one read-modify-write transaction over `ops` rows. Returns
/// `Ok(Some)` on commit, `Ok(None)` on a write conflict (rolled back),
/// `Err` on anything else.
fn run_affine_txn(db: &Database, ops: &[(i64, i64, i64)]) -> Result<Option<TxnReceipt>, String> {
    let h = db.begin_txn().map_err(|e| format!("begin: {e}"))?;
    for &(row, a, b) in ops {
        let read = match db.execute_in(&h, &format!("SELECT v FROM acct WHERE id = {row}")) {
            Ok(r) => match r.scalar() {
                Ok(Value::Int(n)) => *n,
                Ok(other) => return Err(format!("row {row}: non-int read {other:?}")),
                Err(e) => return Err(format!("row {row}: scalar: {e}")),
            },
            Err(e) => {
                let _ = db.rollback_txn(&h);
                return Err(format!("row {row}: read: {e}"));
            }
        };
        let next = a * read + b;
        match db.execute_in(&h, &format!("UPDATE acct SET v = {next} WHERE id = {row}")) {
            Ok(_) => {}
            Err(AimError::WriteConflict(_)) => {
                db.rollback_txn(&h)
                    .map_err(|e| format!("loser rollback: {e}"))?;
                return Ok(None);
            }
            Err(e) => {
                let _ = db.rollback_txn(&h);
                return Err(format!("row {row}: update: {e}"));
            }
        }
    }
    match db.commit_txn(&h) {
        Ok(cts) => Ok(Some(TxnReceipt {
            cts,
            ops: ops.to_vec(),
        })),
        Err(AimError::WriteConflict(_)) => Ok(None),
        Err(e) => Err(format!("commit: {e}")),
    }
}

/// One healthy history: random thread count, row count, txn count and
/// group-commit window; serial replay in commit-ts order must match the
/// final state.
fn healthy_history(seed: u64) -> Result<HealthyStats, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: i64 = rng.gen_range(2i64..5);
    let threads: usize = rng.gen_range(2usize..5);
    let txns_per_thread: usize = rng.gen_range(1usize..3);
    let window: u64 = [0u64, 50, 150][rng.gen_range(0usize..3)];

    let db = Database::new();
    db.execute("CREATE TABLE acct (id INT, v INT)")
        .map_err(|e| format!("ddl: {e}"))?;
    let seed_rows: Vec<String> = (0..rows).map(|id| format!("({id}, 0)")).collect();
    db.execute(&format!("INSERT INTO acct VALUES {}", seed_rows.join(",")))
        .map_err(|e| format!("seed: {e}"))?;
    db.execute(&format!("SET group_commit_window = {window}"))
        .map_err(|e| format!("knob: {e}"))?;

    let receipts: Mutex<Vec<TxnReceipt>> = Mutex::new(Vec::new());
    let conflicts = Mutex::new(0usize);
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let db = &db;

    thread::scope(|s| {
        for t in 0..threads {
            let receipts = &receipts;
            let conflicts = &conflicts;
            let errors = &errors;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (0x9e37 + t as u64 * 0x79b9));
                for _ in 0..txns_per_thread {
                    // 1-2 distinct rows per transaction, random affine op each
                    let first = rng.gen_range(0..rows);
                    let mut targets = vec![first];
                    if rows > 1 && rng.gen_range(0u32..2) == 1 {
                        let mut second = rng.gen_range(0..rows - 1);
                        if second >= first {
                            second += 1;
                        }
                        targets.push(second);
                    }
                    let ops: Vec<(i64, i64, i64)> = targets
                        .into_iter()
                        .map(|row| (row, rng.gen_range(2i64..4), rng.gen_range(1i64..10)))
                        .collect();
                    for attempt in 0..=MAX_RETRIES {
                        match run_affine_txn(db, &ops) {
                            Ok(Some(r)) => {
                                lock(receipts).push(r);
                                break;
                            }
                            Ok(None) => {
                                *lock(conflicts) += 1;
                                if attempt == MAX_RETRIES {
                                    break; // lost to contention; not replayed
                                }
                            }
                            Err(e) => {
                                lock(errors).push(format!("thread {t}: {e}"));
                                return;
                            }
                        }
                    }
                }
            });
        }
    });

    let errors = errors.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some(e) = errors.into_iter().next() {
        return Err(e);
    }
    let mut receipts = receipts
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let conflicts = conflicts
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);

    // Commit timestamps must be unique — they define the serial order.
    let mut seen = HashSet::new();
    for r in &receipts {
        if !seen.insert(r.cts) {
            return Err(format!("duplicate commit timestamp {}", r.cts));
        }
    }

    // Serial replay in commit-ts order from the initial all-zeros state.
    receipts.sort_by_key(|r| r.cts);
    let mut state = vec![0i64; rows as usize];
    for r in &receipts {
        for &(row, a, b) in &r.ops {
            let v = &mut state[row as usize];
            *v = a * *v + b;
        }
    }

    let actual = db
        .execute("SELECT id, v FROM acct ORDER BY id")
        .map_err(|e| format!("final scan: {e}"))?;
    let got: Vec<(i64, i64)> = actual
        .rows()
        .iter()
        .map(|row| match (row.get(0), row.get(1)) {
            (Value::Int(id), Value::Int(v)) => Ok((*id, *v)),
            other => Err(format!("final scan: non-int row {other:?}")),
        })
        .collect::<Result<_, _>>()?;
    if got.len() != rows as usize {
        return Err(format!("final scan: {} rows, expected {rows}", got.len()));
    }
    for (id, v) in got {
        if state[id as usize] != v {
            return Err(format!(
                "replay mismatch on row {id}: db holds {v}, serial replay of {} committed txns gives {}",
                receipts.len(),
                state[id as usize]
            ));
        }
    }

    Ok(HealthyStats {
        committed: receipts.len(),
        conflicts,
    })
}

// ------------------------------------------------------------------ crash

/// Pairs, writers and op budget for one crash life — smaller than the
/// integration suite so thousands of lives stay cheap.
const PAIRS: i64 = 4;
const WRITERS: usize = 2;
const MAX_OPS: usize = 60;

#[derive(Clone, Copy)]
struct PairReceipt {
    pair: i64,
    value: i64,
    /// `None` when the commit was submitted but the crash ate the ack.
    cts: Option<u64>,
}

struct CrashStats {
    crashed: bool,
    acked: usize,
}

fn write_pair(db: &Database, pair: i64, value: i64) -> Result<PairReceipt, bool> {
    let h = match db.begin_txn() {
        Ok(h) => h,
        Err(_) => return Err(false),
    };
    for id in [2 * pair, 2 * pair + 1] {
        match db.execute_in(&h, &format!("UPDATE pairs SET v = {value} WHERE id = {id}")) {
            Ok(_) => {}
            Err(AimError::WriteConflict(_)) => {
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
        Ok(cts) => Ok(PairReceipt {
            pair,
            value,
            cts: Some(cts),
        }),
        Err(_) => Ok(PairReceipt {
            pair,
            value,
            cts: None,
        }),
    }
}

fn read_pairs(db: &Database) -> Result<Vec<i64>, String> {
    let r = db
        .execute("SELECT id, v FROM pairs ORDER BY id")
        .map_err(|e| format!("scan: {e}"))?;
    let rows = r.rows();
    if rows.len() as i64 != 2 * PAIRS {
        return Err(format!("scan: {} rows, expected {}", rows.len(), 2 * PAIRS));
    }
    let mut values = Vec::with_capacity(PAIRS as usize);
    for p in 0..PAIRS as usize {
        let v = |i: usize| match rows[i].get(1) {
            Value::Int(n) => Ok(*n),
            other => Err(format!("scan: non-int value {other:?}")),
        };
        let (va, vb) = (v(2 * p)?, v(2 * p + 1)?);
        if va != vb {
            return Err(format!("torn pair {p}: {va} vs {vb}"));
        }
        values.push(va);
    }
    Ok(values)
}

/// One pair's receipts: the acknowledged (commit ts, value) with the
/// latest commit ts, and every unknown-fate value.
type PairReceipts = (Option<(u64, i64)>, Vec<i64>);

/// A recovered state is prefix-consistent when every pair holds its last
/// acknowledged value, an unknown-fate value durably ahead of it, or the
/// initial 0 when nothing was acknowledged. Same-pair transactions are
/// serialized by first-updater-wins, so per pair the commit-ts order and
/// WAL order agree and "last acknowledged" is well-defined.
fn check_prefix(values: &[i64], receipts: &[PairReceipt]) -> Result<(), String> {
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
    for p in 0..PAIRS {
        let v = values[p as usize];
        let (acked, unknown) = oracle.get(&p).cloned().unwrap_or((None, Vec::new()));
        let mut allowed = unknown;
        allowed.push(acked.map(|(_, a)| a).unwrap_or(0));
        if !allowed.contains(&v) {
            return Err(format!(
                "pair {p} recovered {v}, allowed {allowed:?} (acked {acked:?})"
            ));
        }
    }
    Ok(())
}

/// One crash life: pair writers race a reader through transient faults
/// into a scripted crash; recovery must be torn-free, prefix-consistent
/// and writable.
fn crash_history(seed: u64) -> Result<CrashStats, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let disk = Arc::new(Disk::new());
    // Group commit batches many commits per physical append, so one life
    // only accrues ~50 store ops; keep the crash window inside that.
    let crash_at = rng.gen_range(6u64..48);
    let torn = match seed % 3 {
        0 => TornMode::DropAll,
        1 => TornMode::Prefix,
        _ => TornMode::CorruptLast,
    };
    let transients = vec![rng.gen_range(5..20u64)];
    let inj = Arc::new(FaultInjector::new(
        disk,
        FaultPlan::crash_after(crash_at)
            .with_torn_tail(torn)
            .with_io_error_at(transients),
    ));
    let store: Arc<dyn PageStore> = inj.clone();
    let db = Database::with_store(store);
    db.execute("CREATE TABLE pairs (id INT, v INT)")
        .map_err(|e| format!("ddl: {e}"))?;
    let rows: Vec<String> = (0..2 * PAIRS).map(|id| format!("({id}, 0)")).collect();
    db.execute(&format!("INSERT INTO pairs VALUES {}", rows.join(",")))
        .map_err(|e| format!("seed rows: {e}"))?;
    db.execute("SET group_commit_window = 100")
        .map_err(|e| format!("knob: {e}"))?;

    let receipts: Mutex<Vec<PairReceipt>> = Mutex::new(Vec::new());
    let torn_seen: Mutex<Vec<String>> = Mutex::new(Vec::new());
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
                            Ok(r) => lock(receipts).push(r),
                            Err(true) => {}
                            Err(false) => {
                                if inj.crashed() {
                                    break;
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        {
            let stop = &stop;
            let torn_seen = &torn_seen;
            s.spawn(move || {
                // ordering: Relaxed — a late-observed stop flag only costs
                // one extra read loop; no data is published through it
                while !stop.load(Ordering::Relaxed) {
                    match read_pairs(dbr) {
                        Ok(_) => {}
                        Err(e) if e.starts_with("torn pair") => {
                            lock(torn_seen).push(format!("live {e}"));
                            break;
                        }
                        // I/O errors end the reader; the crash check below
                        // distinguishes them from real failures.
                        Err(_) => break,
                    }
                }
            });
        }
        for w in writers {
            if w.join().is_err() {
                lock(&torn_seen).push("writer thread panicked".into());
            }
        }
        // ordering: Relaxed — the scope join below is the synchronization
        // point; the flag itself carries no payload
        stop.store(true, Ordering::Relaxed);
    });

    let torn = torn_seen
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(t) = torn.into_iter().next() {
        return Err(t);
    }
    let crashed = inj.crashed();
    let receipts = receipts
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);

    // Recovery reopens whatever survived on the raw disk.
    let (rdb, _report) =
        Database::recover(inj.underlying()).map_err(|e| format!("recovery: {e}"))?;
    let values = read_pairs(&rdb).map_err(|e| format!("recovered {e}"))?;
    check_prefix(&values, &receipts)?;

    // The recovered database must accept new transactional work.
    let h = rdb
        .begin_txn()
        .map_err(|e| format!("post-recovery begin: {e}"))?;
    for id in [0, 1] {
        rdb.execute_in(&h, &format!("UPDATE pairs SET v = 424242 WHERE id = {id}"))
            .map_err(|e| format!("post-recovery update: {e}"))?;
    }
    rdb.commit_txn(&h)
        .map_err(|e| format!("post-recovery commit: {e}"))?;
    let values = read_pairs(&rdb).map_err(|e| format!("post-recovery {e}"))?;
    if values[0] != 424242 {
        return Err(format!(
            "post-recovery write lost: pair 0 holds {}",
            values[0]
        ));
    }

    Ok(CrashStats {
        crashed,
        acked: receipts.iter().filter(|r| r.cts.is_some()).count(),
    })
}

// ------------------------------------------------------------------- main

fn main() {
    let mut histories: u64 = 10_000;
    let mut base_seed: u64 = 1;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => histories = 300,
            "--histories" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => histories = n,
                None => {
                    eprintln!("--histories needs a number");
                    std::process::exit(2);
                }
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => base_seed = n,
                None => {
                    eprintln!("--seed needs a number");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown flag {other} (txn_oracle [--smoke] [--histories N] [--seed S])");
                std::process::exit(2);
            }
        }
    }

    let mut committed = 0usize;
    let mut conflicts = 0usize;
    let mut crash_lives = 0u64;
    let mut crashes = 0u64;
    let mut acked_survived = 0usize;
    for i in 0..histories {
        let seed = base_seed.wrapping_mul(1_000_003).wrapping_add(i);
        if i % CRASH_EVERY == CRASH_EVERY - 1 {
            crash_lives += 1;
            match crash_history(seed) {
                Ok(s) => {
                    if s.crashed {
                        crashes += 1;
                    }
                    acked_survived += s.acked;
                }
                Err(e) => {
                    eprintln!("FAIL: crash history {i} (seed {seed}): {e}");
                    std::process::exit(1);
                }
            }
        } else {
            match healthy_history(seed) {
                Ok(s) => {
                    committed += s.committed;
                    conflicts += s.conflicts;
                }
                Err(e) => {
                    eprintln!("FAIL: healthy history {i} (seed {seed}): {e}");
                    std::process::exit(1);
                }
            }
        }
        if (i + 1) % 1000 == 0 {
            println!(
                "  … {}/{histories} histories ({committed} commits, {conflicts} conflicts)",
                i + 1
            );
        }
    }

    println!(
        "txn_oracle: {histories} histories — {} healthy (serial replay matched every one), {crash_lives} crash lives",
        histories - crash_lives
    );
    println!(
        "  healthy: {committed} committed txns, {conflicts} write conflicts, commit timestamps unique"
    );
    println!(
        "  crash:   {crashes}/{crash_lives} lives crashed, {acked_survived} acked commits verified, 0 torn group-commit batches"
    );
    if crash_lives > 0 && crashes < crash_lives / 3 {
        eprintln!(
            "FAIL: only {crashes}/{crash_lives} crash lives actually crashed — crash-point budget drifted"
        );
        std::process::exit(1);
    }
    // Debug builds run the lock-order witness across every history; any
    // hierarchy violation in the engine's lock traffic fails the oracle.
    if parking_lot::witness::enabled() {
        let violations = parking_lot::witness::take_violations();
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("FAIL: {v}");
            }
            std::process::exit(1);
        }
        println!("  lock-order witness: 0 violations");
    }
    println!("txn_oracle: PASS");
}
