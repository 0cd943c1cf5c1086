//! The `Database` facade: parse → plan → execute, plus DDL, DML,
//! transactions, durability (WAL + checkpoints + crash recovery), knobs,
//! statistics and the AISQL model hook.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};

use aimdb_common::{
    wait, AimError, Clock, Column, LockRank, Result, Row, Schema, Value, WaitSet, WallClock,
    DEFAULT_BATCH_SIZE,
};
use aimdb_sql::ast::{ModelKind, Select, Statement};
use aimdb_sql::expr::{BoundModel, BuiltinFns};
use aimdb_sql::parser::{parse, parse_one};
use aimdb_sql::vexpr::eval_const;
use aimdb_sql::Expr;
use aimdb_storage::wal::{CheckpointData, IndexSnapshot, LogRecord, TableSnapshot};
use aimdb_storage::{BufferPool, Disk, DiskSink, PageStore, RowId, Wal, WalReader};
use aimdb_trace::{
    validate_exposition, FlightKind, FlightRecorder, QueryTrace, TraceBuilder, Tracer,
};

use crate::analyze::AnalyzeReport;
use crate::catalog::{Catalog, Table};
use crate::exec::{ExecContext, OpKey, OpStats, WorkerSpan};
use crate::exec_batch::{execute_batched_parallel, execute_dml};
use crate::fingerprint::{self, StatementStat, StatementStore};
use crate::knobs::Knobs;
use crate::metrics::{KpiSnapshot, Metrics, GROUP_COMMIT_BATCH};
use crate::mvcc::{CommitTs, Snapshot, TxnRuntime, WriteOp};
use crate::optimizer::{CardEstimator, HistogramEstimator, Planner};
use crate::plan::PhysicalPlan;
use crate::stats::TableStats;
use crate::txn::{log_delete, log_insert, log_update, TxnManager};

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// SELECT / PREDICT output.
    Rows { schema: Schema, rows: Vec<Row> },
    /// DML row count.
    Affected(usize),
    /// DDL / admin acknowledgement, EXPLAIN text.
    Text(String),
}

impl QueryResult {
    /// The rows, if this result carries any.
    pub fn rows(&self) -> &[Row] {
        match self {
            QueryResult::Rows { rows, .. } => rows,
            _ => &[],
        }
    }

    /// First value of the first row (for scalar queries).
    pub fn scalar(&self) -> Result<&Value> {
        self.rows()
            .first()
            .map(|r| r.get(0))
            .ok_or_else(|| AimError::Execution("result has no rows".into()))
    }
}

/// Pluggable model training/inference for the AISQL surface
/// (`CREATE MODEL`, `PREDICT`, `PREDICT(...)` in expressions).
/// Implemented by `aimdb-db4ai`; the engine stays ML-free.
pub trait ModelHook: Send + Sync {
    /// Train and register a model from a table's columns.
    #[allow(clippy::too_many_arguments)]
    fn create_model(
        &self,
        db: &Database,
        name: &str,
        kind: ModelKind,
        table: &str,
        features: &[String],
        label: Option<&str>,
        params: &[(String, Value)],
    ) -> Result<String>;

    fn drop_model(&self, name: &str) -> Result<()>;

    /// Snapshot the latest version of `name` for one statement. Fails if
    /// there is no such model or it does not take `arity` inputs. The
    /// planner calls this once per model a query predicts with; whatever
    /// is trained or dropped afterwards, the statement keeps predicting
    /// with the version it got here.
    fn bind(&self, name: &str, arity: usize) -> Result<Arc<dyn BoundModel>>;
}

/// Truncate raw SQL to a short trace label (whole chars, max 120).
fn trim_label(sql: &str) -> String {
    let trimmed = sql.trim();
    match trimmed.char_indices().nth(120) {
        Some((i, _)) => format!("{}…", &trimmed[..i]),
        None => trimmed.to_string(),
    }
}

/// Statement-kind label: what a statement that arrives already parsed
/// (no SQL text) is fingerprinted and traced under.
fn stmt_label(stmt: &Statement) -> &'static str {
    match stmt {
        Statement::CreateTable { .. } => "CREATE TABLE",
        Statement::DropTable { .. } => "DROP TABLE",
        Statement::CreateIndex { .. } => "CREATE INDEX",
        Statement::DropIndex { .. } => "DROP INDEX",
        Statement::Insert { .. } => "INSERT",
        Statement::Select(_) => "SELECT",
        Statement::Update { .. } => "UPDATE",
        Statement::Delete { .. } => "DELETE",
        Statement::Begin => "BEGIN",
        Statement::Commit => "COMMIT",
        Statement::Rollback => "ROLLBACK",
        Statement::Explain(_) => "EXPLAIN",
        Statement::ExplainAnalyze(_) => "EXPLAIN ANALYZE",
        Statement::Analyze { .. } => "ANALYZE",
        Statement::Set { .. } => "SET",
        Statement::Show { .. } => "SHOW",
        Statement::CreateModel { .. } => "CREATE MODEL",
        Statement::DropModel { .. } => "DROP MODEL",
        Statement::Predict { .. } => "PREDICT",
    }
}

/// Label for plans executed directly (no SQL text available).
fn plan_label(plan: &PhysicalPlan) -> String {
    format!("plan: {}", plan.describe())
}

/// Run `f` under a span named `name` when a trace is active.
fn in_span<T>(tb: &mut Option<&mut TraceBuilder<'_>>, name: &str, f: impl FnOnce() -> T) -> T {
    let id = tb.as_deref_mut().map(|t| t.open(name));
    let out = f();
    if let (Some(t), Some(id)) = (tb.as_deref_mut(), id) {
        t.close(id);
    }
    out
}

/// How a statement reaches [`Database::run_statement`]: as SQL text, or
/// already parsed out of a script.
enum StmtSource<'a> {
    Sql(&'a str),
    Parsed(&'a Statement),
}

/// Whose transaction a statement runs in.
enum TxnCtx<'a> {
    /// Nobody's: DML autocommits, and transaction control is refused
    /// because nothing would own what `BEGIN` opened.
    Auto,
    /// A handle the caller holds: DML, SELECT and knob statements only.
    Handle(&'a TxnHandle),
    /// A session's slot: `BEGIN` fills it, `COMMIT`/`ROLLBACK` empty it,
    /// every other statement runs inside it while it is filled and as
    /// [`TxnCtx::Auto`] while it is empty.
    Session(&'a mut Option<TxnHandle>),
}

/// What one run of a plan produced: the rows, the measured cost units,
/// and the per-operator counters `EXPLAIN ANALYZE` and traces report.
struct PlanRun {
    rows: Vec<Row>,
    cost: f64,
    ops: Vec<(OpKey, OpStats)>,
}

/// An in-process database instance.
///
/// ```
/// use aimdb_engine::{Database, QueryResult};
///
/// let db = Database::new();
/// db.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
/// db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')").unwrap();
/// let r = db.execute("SELECT COUNT(*) FROM t WHERE a > 1").unwrap();
/// assert_eq!(r.scalar().unwrap().as_i64().unwrap(), 1);
/// ```
pub struct Database {
    store: Arc<dyn PageStore>,
    pool: Arc<BufferPool>,
    pub catalog: Catalog,
    pub wal: Wal,
    pub knobs: Knobs,
    pub metrics: Metrics,
    /// Completed-query trace ring + slow-query log.
    pub tracer: Tracer,
    /// Clock used to time spans and operators (swappable for tests).
    clock: RwLock<Arc<dyn Clock>>,
    stats: RwLock<HashMap<String, TableStats>>,
    txn: Mutex<TxnManager>,
    /// Shared MVCC state: commit-timestamp counter, commit/checkpoint
    /// lock, active-transaction snapshots and write-sets.
    runtime: TxnRuntime,
    estimator: RwLock<Arc<dyn CardEstimator>>,
    hook: RwLock<Option<Arc<dyn ModelHook>>>,
    /// Crash-dump flight recorder: a bounded ring of recent structured
    /// events (statement begin/end, commit, conflict, recovery). Shared
    /// (`Arc`) so a `FaultInjector` crash hook can dump it post-mortem.
    flight: Arc<FlightRecorder>,
    /// Per-fingerprint statement statistics (bounded, least-called
    /// eviction).
    stmt_stats: StatementStore,
    /// Lock-order witness violations already reported to the flight
    /// recorder (the witness counter is monotone).
    witness_seen: AtomicU64,
}

thread_local! {
    /// Cost units charged by plan executions inside the current
    /// statement on this thread, drained into the statement's
    /// fingerprint entry at statement end.
    static STMT_COST: Cell<f64> = const { Cell::new(0.0) };
}

/// Carrier for the measurements opened by [`Database::begin_statement`]
/// and folded into the fingerprint store by [`Database::end_statement`].
struct StmtObservation {
    fp: u64,
    /// The statement's shape, normalized once; `fp` is its hash.
    normalized: String,
    start_secs: f64,
    w0: WaitSet,
}

/// An open transaction, from [`Database::begin_txn`] or a session's
/// `BEGIN` ([`Database::execute_session`]) — the only kind there is. Its
/// holder owns it: the database keeps the snapshot registered and the
/// write-set until the holder commits or rolls back. Many run at once
/// under snapshot isolation. Reads through the handle see the database
/// as of `read_ts` plus the handle's own writes; conflicting writes
/// surface as retryable [`AimError::WriteConflict`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnHandle {
    /// Transaction id (also the id under which WAL records are logged).
    pub id: u64,
    /// The frozen read timestamp of this transaction's snapshot.
    pub read_ts: CommitTs,
}

impl TxnHandle {
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            txn: self.id,
            read_ts: self.read_ts,
        }
    }
}

/// RAII token for a plain-statement reader: while alive, the checkpoint
/// vacuum horizon stays at or below `ts`, so no row version this
/// reader's frozen snapshot may still need is removed.
struct ReadGuard<'a> {
    runtime: &'a TxnRuntime,
    ts: CommitTs,
}

impl Drop for ReadGuard<'_> {
    fn drop(&mut self) {
        self.runtime.reader_exit(self.ts);
    }
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

/// What [`Database::recover`] found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Intact records scanned from the durable log.
    pub total_records: usize,
    /// Records applied (DDL + committed DML after the checkpoint).
    pub replayed: u64,
    /// Whether a checkpoint bounded the replay.
    pub from_checkpoint: bool,
    /// Committed transactions whose effects were redone.
    pub committed_txns: usize,
    /// Transactions that had begun but never committed (discarded).
    pub loser_txns: usize,
    /// Bytes dropped off a torn/corrupt log tail.
    pub corrupt_tail_bytes: usize,
}

impl Database {
    /// A fresh database over its own private disk, WAL-durable to that
    /// disk's log area.
    pub fn new() -> Self {
        Database::with_store(Arc::new(Disk::new()))
    }

    /// Open over an existing page store (possibly wrapped in a
    /// [`aimdb_storage::FaultInjector`]). The WAL writes through to the
    /// store's durable log area; this does NOT replay any existing log —
    /// use [`Database::recover`] for that.
    pub fn with_store(store: Arc<dyn PageStore>) -> Self {
        let knobs = Knobs::new();
        let cap = knobs.get("buffer_pool_pages").unwrap_or(64) as usize;
        let pool = Arc::new(BufferPool::new(Arc::clone(&store), cap));
        let wal = Wal::with_sink(Box::new(DiskSink::new(Arc::clone(&store))));
        let sync = knobs.get("wal_sync").map(|v| v != 0).unwrap_or(true);
        wal.set_sync_on_commit(sync);
        if let Ok(window) = knobs.get("group_commit_window") {
            wal.set_group_window_us(window as u64);
        }
        let metrics = Metrics::new();
        // Each WAL flush reports how many commits it made durable, so the
        // batch-size histogram shows whether group commit is batching.
        let reg = metrics.registry_handle();
        wal.set_flush_observer(Box::new(move |batch| {
            reg.observe(GROUP_COMMIT_BATCH, batch as f64);
        }));
        let tracer = Tracer::default();
        if let Ok(threshold) = knobs.get("slow_query_cost_threshold") {
            tracer.set_slow_threshold(threshold as f64);
        }
        Database {
            store,
            pool,
            catalog: Catalog::new(),
            wal,
            knobs,
            metrics,
            tracer,
            clock: RwLock::with_rank(Arc::new(WallClock::new()), LockRank::EngineClock),
            stats: RwLock::with_rank(HashMap::new(), LockRank::EngineStats),
            txn: Mutex::with_rank(TxnManager::new(), LockRank::TxnManager),
            runtime: TxnRuntime::new(),
            estimator: RwLock::with_rank(Arc::new(HistogramEstimator), LockRank::EngineEstimator),
            hook: RwLock::with_rank(None, LockRank::EngineHook),
            flight: Arc::new(FlightRecorder::default()),
            stmt_stats: StatementStore::default(),
            witness_seen: AtomicU64::new(0),
        }
    }

    /// ARIES-lite crash recovery: open a database over `store`, restoring
    /// state from its durable WAL.
    ///
    /// The durable log is scanned with CRC validation (a torn or corrupt
    /// tail is detected and dropped), state is restored from the last
    /// intact checkpoint, then committed transactions after it are redone
    /// in log order while uncommitted ones are discarded. Finally a
    /// checkpoint of the recovered state is appended behind the old log,
    /// which is cut away only once that checkpoint is durable: a crash
    /// anywhere in here leaves a log the next recovery reads the same
    /// state from.
    pub fn recover(store: Arc<dyn PageStore>) -> Result<(Database, RecoveryReport)> {
        let bytes = store.wal_bytes()?;

        // One pass over the durable log, holding only what replay needs:
        // the last intact checkpoint and the records after it. Winners
        // are transactions with a durable Commit after that checkpoint
        // (checkpoints are quiescent, so no transaction spans one).
        let mut reader = WalReader::new(&bytes);
        let mut base: Option<Box<CheckpointData>> = None;
        let mut tail: Vec<LogRecord> = Vec::new();
        let mut committed: HashSet<u64> = HashSet::new();
        let mut begun: HashSet<u64> = HashSet::new();
        let mut total_records = 0usize;
        let mut max_seen = 0u64;
        for (_, rec) in reader.by_ref() {
            total_records += 1;
            max_seen = max_seen.max(rec.txn());
            match rec {
                LogRecord::Checkpoint(data) => {
                    base = Some(data);
                    tail.clear();
                    begun.clear();
                    committed.clear();
                    continue;
                }
                LogRecord::Begin { txn } => {
                    begun.insert(txn);
                }
                LogRecord::Commit { txn } => {
                    committed.insert(txn);
                }
                LogRecord::Abort { txn } => {
                    begun.remove(&txn);
                    // An Abort after a Commit for the same txn is the
                    // commit-durability failure path annulling the commit
                    // (see commit_mvcc): the live engine rolled the txn
                    // back and told the client it failed, so replaying it
                    // as committed would diverge from the pre-crash state.
                    // The later record wins.
                    committed.remove(&txn);
                }
                _ => {}
            }
            tail.push(rec);
        }
        let corrupt_tail_bytes = reader.corrupt_tail_bytes();
        let losers = begun.iter().filter(|t| !committed.contains(t)).count();

        // Only the damaged tail goes before the new checkpoint is durable
        // (a frame appended behind it would be unreachable). The database
        // opens after that, so its log continues at the intact length.
        store.wal_truncate(bytes.len() - corrupt_tail_bytes)?;
        drop(bytes);
        let db = Database::with_store(Arc::clone(&store));

        // Never reuse a transaction id seen in the log.
        let floor = base.as_ref().map_or(1, |cp| cp.next_txn).max(max_seen + 1);
        let from_checkpoint = base.is_some();

        // Restore the checkpoint snapshot, then let the decoded copy go:
        // the checkpoint below builds another snapshot of the same rows.
        if let Some(cp) = base {
            for t in &cp.tables {
                let table =
                    db.catalog
                        .create_table(&t.name, t.schema.clone(), Arc::clone(&db.pool))?;
                for row in &t.rows {
                    table.insert(row.values().to_vec())?;
                }
            }
            for idx in &cp.indexes {
                db.catalog
                    .create_index(&idx.name, &idx.table, &idx.column)?;
            }
        }

        // Redo: DDL unconditionally, DML for winners only, in log order.
        // Row ids were reassigned by the rebuild, so deletes/updates locate
        // their victim by before-image value.
        let mut replayed = 0u64;
        for rec in &tail {
            match rec {
                LogRecord::CreateTable { name, schema } => {
                    match db
                        .catalog
                        .create_table(name, schema.clone(), Arc::clone(&db.pool))
                    {
                        Ok(_) => replayed += 1,
                        Err(AimError::AlreadyExists(_)) => {}
                        Err(e) => return Err(e),
                    }
                }
                LogRecord::DropTable { name } => match db.catalog.drop_table(name) {
                    Ok(()) => replayed += 1,
                    Err(AimError::NotFound(_)) => {}
                    Err(e) => return Err(e),
                },
                LogRecord::CreateIndex {
                    name,
                    table,
                    column,
                } => match db.catalog.create_index(name, table, column) {
                    Ok(()) => replayed += 1,
                    Err(AimError::AlreadyExists(_) | AimError::NotFound(_)) => {}
                    Err(e) => return Err(e),
                },
                LogRecord::DropIndex { name } => match db.catalog.drop_index(name) {
                    Ok(()) => replayed += 1,
                    Err(AimError::NotFound(_)) => {}
                    Err(e) => return Err(e),
                },
                LogRecord::Insert {
                    txn, table, row, ..
                } if committed.contains(txn) => match db.catalog.table(table) {
                    Ok(t) => {
                        t.insert(row.values().to_vec())?;
                        replayed += 1;
                    }
                    Err(AimError::NotFound(_)) => {}
                    Err(e) => return Err(e),
                },
                LogRecord::Delete {
                    txn, table, before, ..
                } if committed.contains(txn) => match db.catalog.table(table) {
                    Ok(t) => {
                        if let Some(rid) = find_row(&t, before)? {
                            t.delete(rid)?;
                        }
                        replayed += 1;
                    }
                    Err(AimError::NotFound(_)) => {}
                    Err(e) => return Err(e),
                },
                LogRecord::Update {
                    txn,
                    table,
                    before,
                    after,
                    ..
                } if committed.contains(txn) => match db.catalog.table(table) {
                    Ok(t) => {
                        if let Some(rid) = find_row(&t, before)? {
                            t.update(rid, after.values().to_vec())?;
                        }
                        replayed += 1;
                    }
                    Err(AimError::NotFound(_)) => {}
                    Err(e) => return Err(e),
                },
                _ => {}
            }
        }
        db.txn.lock().set_next_id(floor);

        // Compact: one checkpoint of the recovered state, which cuts the
        // old log away in front of itself once it is durable.
        db.checkpoint_now()?;

        db.metrics.record_recovery(replayed);
        db.flight.record(
            FlightKind::Recovery,
            replayed,
            total_records as u64,
            corrupt_tail_bytes as u64,
        );
        let report = RecoveryReport {
            total_records,
            replayed,
            from_checkpoint,
            committed_txns: committed.len(),
            loser_txns: losers,
            corrupt_tail_bytes,
        };
        Ok((db, report))
    }

    /// Write a checkpoint record now: full logical state, so recovery can
    /// start from it instead of replaying the whole log.
    ///
    /// Checkpoints are quiescent: the call holds the commit lock and
    /// fails with [`AimError::TxnAborted`] if any transaction is in
    /// flight, so no transaction ever spans a checkpoint. Dead row
    /// versions are vacuumed first — the snapshot is exactly the
    /// committed-visible state.
    pub fn checkpoint_now(&self) -> Result<u64> {
        let _quiesce = self.runtime.commit_lock.lock();
        if self.runtime.active_count() > 0 {
            return Err(AimError::TxnAborted(format!(
                "checkpoint requires quiescence: {} transaction(s) in flight",
                self.runtime.active_count()
            )));
        }
        // Plain-statement readers do not block the checkpoint: the
        // vacuum horizon below keeps every version their frozen
        // snapshots may still need. Readers entering mid-vacuum
        // registered under `commit_lock` (held here), so they read the
        // final pre-vacuum timestamp and need nothing the vacuum takes.
        let horizon = self.runtime.vacuum_horizon();
        for name in self.catalog.table_names() {
            self.catalog.table(&name)?.vacuum(horizon)?;
        }
        let data = self.snapshot_state()?;
        self.wal.append(LogRecord::Checkpoint(Box::new(data)))
    }

    /// Checkpoint if the interval knob says so and the database is
    /// quiescent (no transaction in flight).
    fn maybe_checkpoint(&self) -> Result<bool> {
        let interval = self.knobs.get("checkpoint_interval")? as u64;
        if self.runtime.active_count() > 0 || self.wal.records_since_checkpoint() < interval {
            return Ok(false);
        }
        match self.checkpoint_now() {
            Ok(_) => Ok(true),
            // A transaction slipped in between the check and the lock:
            // skip this round, the next statement retries.
            Err(AimError::TxnAborted(_)) => Ok(false),
            Err(e) => Err(e),
        }
    }

    fn snapshot_state(&self) -> Result<CheckpointData> {
        let next_txn = self.txn.lock().next_id();
        let mut tables = Vec::new();
        for name in self.catalog.table_names() {
            let t = self.catalog.table(&name)?;
            let rows = t.scan_visible(None)?.into_iter().map(|(_, r)| r).collect();
            tables.push(TableSnapshot {
                name: t.name.clone(),
                schema: t.schema.clone(),
                rows,
            });
        }
        let indexes = self
            .catalog
            .indexes()
            .into_iter()
            .map(|(name, table, column)| IndexSnapshot {
                name,
                table,
                column,
            })
            .collect();
        Ok(CheckpointData {
            next_txn,
            tables,
            indexes,
        })
    }

    /// Open a transaction: a frozen snapshot plus a transaction id, owned
    /// by the caller. Any number may be live at once; writes conflict
    /// under first-updater-wins and surface as retryable
    /// [`AimError::WriteConflict`].
    pub fn begin_txn(&self) -> Result<TxnHandle> {
        let id = self.txn.lock().fresh_id(&self.wal)?;
        let snap = self.runtime.register(id);
        Ok(TxnHandle {
            id,
            read_ts: snap.read_ts,
        })
    }

    /// Execute one DML or SELECT statement inside the transaction of
    /// `h`. Reads see the handle's snapshot plus its own writes; DDL and
    /// transaction-control statements are rejected.
    pub fn execute_in(&self, h: &TxnHandle, sql: &str) -> Result<QueryResult> {
        self.run_statement(StmtSource::Sql(sql), TxnCtx::Handle(h))
    }

    /// Execute one statement of a session whose open transaction, if
    /// any, lives in `txn`: `BEGIN` opens one there (a second is
    /// [`AimError::NestedTxn`]), `COMMIT` and `ROLLBACK` close it — the
    /// slot is empty afterwards whether or not the commit succeeded — and
    /// anything else runs as [`Database::execute_in`] while it is open
    /// and as [`Database::execute`] otherwise. Whoever owns the slot
    /// rolls back what is left in it when the session ends.
    pub fn execute_session(&self, txn: &mut Option<TxnHandle>, sql: &str) -> Result<QueryResult> {
        self.run_statement(StmtSource::Sql(sql), TxnCtx::Session(txn))
    }

    /// Commit the transaction of `h`: its commit record becomes durable
    /// (group-committed with concurrent transactions' records), then all
    /// its versions become visible atomically.
    pub fn commit_txn(&self, h: &TxnHandle) -> Result<CommitTs> {
        let cts = self.commit_mvcc(h.id)?;
        let _ = self.maybe_checkpoint();
        Ok(cts)
    }

    /// Roll back the transaction of `h`, reversing its writes and
    /// releasing its claims. After a [`AimError::WriteConflict`] the
    /// caller rolls back and retries on a fresh handle.
    pub fn rollback_txn(&self, h: &TxnHandle) -> Result<()> {
        self.rollback_mvcc(h.id)?;
        self.metrics.record_abort();
        Ok(())
    }

    /// MVCC commit: WAL durability first, then visibility.
    ///
    /// The `Commit` record is appended (and group-committed) *before*
    /// any version is stamped, so a crash can never expose effects whose
    /// commit record did not reach the log. Stamping and publishing the
    /// commit timestamp happen under the commit lock, making the whole
    /// transaction visible atomically: a reader snapshot either sees all
    /// of the transaction or none of it.
    fn commit_mvcc(&self, txn: u64) -> Result<CommitTs> {
        let clock = self.clock();
        let start = clock.now_secs();
        if let Err(e) = self.wal.append(LogRecord::Commit { txn }) {
            // A commit that cannot be made durable aborts instead: the
            // write-set is reversed and recovery discards the txn.
            let _ = self.rollback_writes(txn);
            let _ = self.wal.append(LogRecord::Abort { txn });
            self.metrics.record_abort();
            return Err(e);
        }
        let cts;
        {
            let _g = self.runtime.commit_lock.lock();
            cts = self.runtime.last_commit_ts() + 1;
            if let Some(info) = self.runtime.take(txn) {
                for op in &info.writes {
                    match op {
                        // The table may have been dropped after the write;
                        // its versions died with it.
                        WriteOp::Created { table, rid } => {
                            if let Ok(t) = self.catalog.table(table) {
                                t.mvcc_stamp_begin(*rid, cts);
                            }
                        }
                        WriteOp::Ended { table, rid } => {
                            if let Ok(t) = self.catalog.table(table) {
                                t.mvcc_stamp_end(*rid, cts);
                            }
                        }
                    }
                }
            }
            self.runtime.publish_commit_ts(cts);
        }
        self.metrics.record_commit();
        self.metrics
            .record_commit_latency((clock.now_secs() - start).max(0.0));
        self.flight.record(FlightKind::Commit, txn, cts, 0);
        Ok(cts)
    }

    /// MVCC rollback: reverse the write-set newest-first (drop created
    /// versions, release claims), then log the abort.
    fn rollback_mvcc(&self, txn: u64) -> Result<()> {
        self.rollback_writes(txn)?;
        self.wal.append(LogRecord::Abort { txn })?;
        self.flight.record(FlightKind::Abort, txn, 0, 0);
        Ok(())
    }

    fn rollback_writes(&self, txn: u64) -> Result<()> {
        if let Some(info) = self.runtime.take(txn) {
            for op in info.writes.iter().rev() {
                match op {
                    WriteOp::Created { table, rid } => {
                        if let Ok(t) = self.catalog.table(table) {
                            t.mvcc_drop_created(*rid)?;
                        }
                    }
                    WriteOp::Ended { table, rid } => {
                        if let Ok(t) = self.catalog.table(table) {
                            t.mvcc_unclaim(*rid, txn);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// A statement-scoped read view for plain (auto-commit) SELECTs.
    ///
    /// Freezing `read_ts` at statement start makes concurrent commits
    /// atomic to the reader: versions are stamped before the commit
    /// timestamp is published, so a half-stamped transaction lies
    /// entirely in the reader's future. Txn id 0 is never allocated
    /// (`TxnManager` starts at 1), so this snapshot owns no
    /// uncommitted writes.
    fn read_snapshot(&self) -> (Snapshot, ReadGuard<'_>) {
        let ts = self.runtime.reader_enter();
        let guard = ReadGuard {
            runtime: &self.runtime,
            ts,
        };
        (
            Snapshot {
                txn: 0,
                read_ts: ts,
            },
            guard,
        )
    }

    /// Resolve the transaction identity for one DML statement: the
    /// caller's handle, or a fresh auto-commit transaction.
    fn stmt_txn(&self, h: Option<&TxnHandle>) -> Result<(u64, bool, Snapshot)> {
        let (h, auto) = match h {
            Some(h) => (*h, false),
            None => (self.begin_txn()?, true),
        };
        Ok((h.id, auto, h.snapshot()))
    }

    /// Install a learned cardinality estimator (E5/E7); pass
    /// `Arc::new(HistogramEstimator)` to restore the default.
    pub fn set_estimator(&self, est: Arc<dyn CardEstimator>) {
        *self.estimator.write() = est;
    }

    /// Install the DB4AI model runtime.
    pub fn set_model_hook(&self, hook: Arc<dyn ModelHook>) {
        *self.hook.write() = Some(hook);
    }

    pub fn buffer_pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The page store backing this database (a plain [`Disk`] unless a
    /// fault injector or other wrapper was supplied).
    pub fn disk(&self) -> &Arc<dyn PageStore> {
        &self.store
    }

    /// Current optimizer statistics (empty until ANALYZE).
    pub fn stats_snapshot(&self) -> HashMap<String, TableStats> {
        self.stats.read().clone()
    }

    /// KPI snapshot for monitors/tuners.
    pub fn kpis(&self) -> KpiSnapshot {
        let b = self.pool.stats();
        let d = self.store.stats();
        self.metrics.snapshot(b.hit_rate(), d.reads, d.writes)
    }

    /// Concurrent transaction handles currently in flight (sessions
    /// between `begin_txn` and commit/rollback). The server's session
    /// tests use this to prove a dropped connection released its
    /// transaction.
    pub fn active_txn_count(&self) -> usize {
        self.runtime.active_count()
    }

    /// The MVCC vacuum horizon: every row version superseded at or
    /// before this commit timestamp is reclaimable. Bounded by the
    /// oldest registered reader or in-flight transaction snapshot, so it
    /// advances only once those release — the observable signal that a
    /// dead session's snapshot is truly gone.
    pub fn vacuum_horizon(&self) -> CommitTs {
        self.runtime.vacuum_horizon()
    }

    /// Execute one SQL statement. With `query_tracing` on (the default)
    /// the whole lifecycle — parse, optimize, verify, execute — runs
    /// under a trace recorded into [`Database::tracer`].
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.run_statement(StmtSource::Sql(sql), TxnCtx::Auto)
    }

    /// Execute a `;`-separated script, returning each statement's result.
    pub fn run_script(&self, sql: &str) -> Result<Vec<QueryResult>> {
        parse(sql)?
            .iter()
            .map(|s| self.run_statement(StmtSource::Parsed(s), TxnCtx::Auto))
            .collect()
    }

    /// The one statement lifecycle, whichever way the statement came in:
    /// open the observation window, start a trace if `query_tracing` is
    /// on (read here, once, so a statement is traced or not as a whole),
    /// parse SQL text, dispatch in the transaction context `ctx`, count a
    /// failure, close the window, publish the trace.
    fn run_statement(&self, src: StmtSource<'_>, ctx: TxnCtx<'_>) -> Result<QueryResult> {
        let text = match src {
            StmtSource::Sql(sql) => sql,
            StmtSource::Parsed(stmt) => stmt_label(stmt),
        };
        let obs = self.begin_statement(fingerprint::normalize(text));
        let clock = self.clock();
        let mut tb = self
            .tracing_enabled()
            .then(|| TraceBuilder::new(clock.as_ref(), trim_label(text)));
        let out = match src {
            StmtSource::Sql(sql) => in_span(&mut tb.as_mut(), "parse", || parse_one(sql))
                .and_then(|stmt| self.dispatch(&stmt, ctx, tb.as_mut())),
            StmtSource::Parsed(stmt) => self.dispatch(stmt, ctx, tb.as_mut()),
        };
        if out.is_err() {
            self.metrics.record_error();
        }
        self.end_statement(obs, &out, tb.as_mut());
        if let Some(tb) = tb {
            self.tracer.record(tb.finish());
        }
        out
    }

    fn tracing_enabled(&self) -> bool {
        self.knobs.get("query_tracing").unwrap_or(1) != 0
    }

    /// Open the per-statement observation window: flight `StmtBegin`,
    /// a wait-set baseline, and a zeroed statement cost accumulator.
    fn begin_statement(&self, normalized: String) -> StmtObservation {
        let fp = fingerprint::hash_shape(&normalized);
        self.flight.record(FlightKind::StmtBegin, fp, 0, 0);
        STMT_COST.with(|c| c.set(0.0));
        StmtObservation {
            fp,
            normalized,
            start_secs: self.clock().now_secs(),
            w0: wait::thread_snapshot(),
        }
    }

    /// Close the observation window: fold the statement into its
    /// fingerprint entry, emit flight events, feed the per-wait-class
    /// registry histograms, and attach the wait breakdown to the trace.
    fn end_statement(
        &self,
        obs: StmtObservation,
        out: &Result<QueryResult>,
        tb: Option<&mut TraceBuilder<'_>>,
    ) {
        // A lost first-updater-wins race is a wait event: its cost is
        // the retry the caller now has to do. Record it before taking
        // the delta so it lands in this statement's wait set.
        if let Err(e) = out {
            if matches!(e, AimError::WriteConflict(_)) {
                wait::record_event(wait::WaitClass::WriteConflictRetry);
                self.flight.record(FlightKind::WriteConflict, obs.fp, 0, 0);
            }
        }
        let waits = wait::thread_snapshot().delta_since(&obs.w0);
        let elapsed_ns = ((self.clock().now_secs() - obs.start_secs).max(0.0) * 1e9) as u64;
        let rows = match out {
            Ok(QueryResult::Rows { rows, .. }) => rows.len() as u64,
            Ok(QueryResult::Affected(n)) => *n as u64,
            _ => 0,
        };
        let cost = STMT_COST.with(|c| c.take());
        let err = out.is_err();
        self.stmt_stats
            .observe(obs.fp, &obs.normalized, elapsed_ns, rows, cost, &waits, err);
        self.flight
            .record(FlightKind::StmtEnd, obs.fp, elapsed_ns, err as u64);
        if !waits.is_zero() {
            let reg = self.metrics.registry();
            for (class, ns, _count) in waits.entries() {
                // per-class blocked-time distribution across statements
                // (in ns: the log-linear histogram has no sub-1.0
                // resolution, so seconds would flatten everything)
                reg.observe(&format!("aimdb_wait_ns_{class}"), ns as f64);
            }
        }
        // Surface lock-order witness violations (debug builds) as flight
        // events: `a` = total observed, `b` = new since last statement.
        let seen = parking_lot::witness::violation_count() as u64;
        // ordering: Relaxed — monotone high-water mark, read/written only
        // for best-effort reporting.
        let prev = self.witness_seen.swap(seen, Ordering::Relaxed);
        if seen > prev {
            self.flight
                .record(FlightKind::LockOrderViolation, seen, seen - prev, 0);
        }
        if let Some(t) = tb {
            t.set_waits(waits);
        }
    }

    /// The injected clock used for span and operator timing.
    fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.clock.read())
    }

    /// Swap the timing clock (a `ManualClock` makes traces deterministic
    /// in tests).
    pub fn set_clock(&self, clock: Arc<dyn Clock>) {
        *self.clock.write() = clock;
    }

    /// Run one parsed statement in the transaction context `ctx`. Inside
    /// a transaction only DML, SELECT and the knob statements (which touch
    /// no table) can run.
    fn dispatch(
        &self,
        stmt: &Statement,
        ctx: TxnCtx<'_>,
        mut tb: Option<&mut TraceBuilder<'_>>,
    ) -> Result<QueryResult> {
        let h = match ctx {
            TxnCtx::Auto => None,
            TxnCtx::Handle(h) => Some(h),
            TxnCtx::Session(slot) => match stmt {
                Statement::Begin | Statement::Commit | Statement::Rollback => {
                    return self.txn_control(stmt, slot, tb);
                }
                _ => slot.as_ref(),
            },
        };
        if h.is_some()
            && !matches!(
                stmt,
                Statement::Insert { .. }
                    | Statement::Update { .. }
                    | Statement::Delete { .. }
                    | Statement::Select(_)
                    | Statement::Set { .. }
                    | Statement::Show { .. }
            )
        {
            return Err(AimError::Execution(format!(
                "a transaction takes DML, SELECT, SET and SHOW, got {}",
                stmt_label(stmt)
            )));
        }
        match stmt {
            Statement::CreateTable { name, columns } => {
                let schema = Schema::new(
                    columns
                        .iter()
                        .map(|c| {
                            let mut col = Column::new(c.name.clone(), c.data_type);
                            if c.not_null {
                                col = col.not_null();
                            }
                            col
                        })
                        .collect(),
                );
                self.catalog
                    .create_table(name, schema.clone(), Arc::clone(&self.pool))?;
                self.wal.append(LogRecord::CreateTable {
                    name: name.clone(),
                    schema,
                })?;
                Ok(QueryResult::Text(format!("created table {name}")))
            }
            Statement::DropTable { name } => {
                self.catalog.drop_table(name)?;
                self.stats.write().remove(&name.to_ascii_lowercase());
                self.wal
                    .append(LogRecord::DropTable { name: name.clone() })?;
                Ok(QueryResult::Text(format!("dropped table {name}")))
            }
            Statement::CreateIndex {
                name,
                table,
                column,
            } => {
                self.catalog.create_index(name, table, column)?;
                self.wal.append(LogRecord::CreateIndex {
                    name: name.clone(),
                    table: table.clone(),
                    column: column.clone(),
                })?;
                Ok(QueryResult::Text(format!(
                    "created index {name} on {table}({column})"
                )))
            }
            Statement::DropIndex { name } => {
                self.catalog.drop_index(name)?;
                self.wal
                    .append(LogRecord::DropIndex { name: name.clone() })?;
                Ok(QueryResult::Text(format!("dropped index {name}")))
            }
            Statement::Insert {
                table,
                columns,
                rows,
            } => self.exec_insert(table, columns.as_deref(), rows, h),
            Statement::Select(sel) => {
                let plan = in_span(&mut tb, "optimize", || self.plan(sel))?;
                let run = self.exec_plan(&plan, tb, h.map(TxnHandle::snapshot))?;
                Ok(QueryResult::Rows {
                    schema: plan.schema,
                    rows: run.rows,
                })
            }
            Statement::Update {
                table,
                assignments,
                where_clause,
            } => self.exec_dml(table, Some(assignments), where_clause.as_ref(), h),
            Statement::Delete {
                table,
                where_clause,
            } => self.exec_dml(table, None, where_clause.as_ref(), h),
            Statement::Begin | Statement::Commit | Statement::Rollback => {
                Err(AimError::Execution(format!(
                    "{} outside a session: no one would own the transaction \
                     (use execute_session or begin_txn)",
                    stmt_label(stmt)
                )))
            }
            Statement::Explain(inner) => {
                let plan = match inner.as_ref() {
                    Statement::Select(sel) => self.plan(sel)?,
                    Statement::Update {
                        table,
                        assignments,
                        where_clause,
                    } => self
                        .with_planner(|p| p.plan_dml(table, where_clause.as_ref(), assignments))?,
                    Statement::Delete {
                        table,
                        where_clause,
                    } => self.with_planner(|p| p.plan_dml(table, where_clause.as_ref(), &[]))?,
                    other => return Ok(QueryResult::Text(format!("{other:?}"))),
                };
                Ok(QueryResult::Text(plan.explain()))
            }
            Statement::ExplainAnalyze(inner) => match inner.as_ref() {
                Statement::Select(sel) => Ok(QueryResult::Text(self.analyze_select(sel, tb)?.text)),
                other => Err(AimError::Plan(format!(
                    "EXPLAIN ANALYZE supports SELECT statements, got {other:?}"
                ))),
            },
            Statement::Analyze { table } => {
                let names = match table {
                    Some(t) => vec![t.clone()],
                    None => self.catalog.table_names(),
                };
                for n in &names {
                    self.analyze_table(n)?;
                }
                Ok(QueryResult::Text(format!(
                    "analyzed {} table(s)",
                    names.len()
                )))
            }
            Statement::Set { knob, value } => {
                let name = Knobs::lookup(knob)?.name;
                let applied = self.knobs.set(name, value)?;
                match name {
                    "buffer_pool_pages" => self.pool.resize(applied as usize)?,
                    "wal_sync" => self.wal.set_sync_on_commit(applied != 0),
                    "group_commit_window" => self.wal.set_group_window_us(applied as u64),
                    "slow_query_cost_threshold" => self.tracer.set_slow_threshold(applied as f64),
                    _ => {}
                }
                Ok(QueryResult::Text(format!("SET {name} = {applied}")))
            }
            Statement::Show { knob } => {
                let name = Knobs::lookup(knob)?.name;
                Ok(QueryResult::Text(format!(
                    "{name} = {}",
                    self.knobs.get(name)?
                )))
            }
            Statement::CreateModel {
                name,
                kind,
                table,
                features,
                label,
                params,
            } => {
                let hook = self
                    .hook
                    .read()
                    .clone()
                    .ok_or_else(|| AimError::Model("no model runtime registered".into()))?;
                let desc = hook.create_model(
                    self,
                    name,
                    *kind,
                    table,
                    features,
                    label.as_deref(),
                    params,
                )?;
                Ok(QueryResult::Text(desc))
            }
            Statement::DropModel { name } => {
                let hook = self
                    .hook
                    .read()
                    .clone()
                    .ok_or_else(|| AimError::Model("no model runtime registered".into()))?;
                hook.drop_model(name)?;
                Ok(QueryResult::Text(format!("dropped model {name}")))
            }
            Statement::Predict { model, inputs } => {
                let hook = self
                    .hook
                    .read()
                    .clone()
                    .ok_or_else(|| AimError::Model("no model runtime registered".into()))?;
                let vals: Vec<Value> = inputs
                    .iter()
                    .map(|e| eval_const(e, &BuiltinFns))
                    .collect::<Result<_>>()?;
                let out = hook.bind(model, vals.len())?.predict_row(&vals)?;
                Ok(QueryResult::Rows {
                    schema: Schema::from_pairs(&[("prediction", aimdb_common::DataType::Float)]),
                    rows: vec![Row::new(vec![out])],
                })
            }
        }
    }

    /// `BEGIN`/`COMMIT`/`ROLLBACK` on a session's transaction slot.
    /// `COMMIT` empties the slot before it tries: a commit that fails has
    /// already rolled its writes back (see `commit_mvcc`), so there is
    /// nothing left for a later `ROLLBACK` to act on.
    fn txn_control(
        &self,
        stmt: &Statement,
        slot: &mut Option<TxnHandle>,
        mut tb: Option<&mut TraceBuilder<'_>>,
    ) -> Result<QueryResult> {
        let label = stmt_label(stmt);
        if let Statement::Begin = stmt {
            if let Some(open) = slot {
                return Err(AimError::NestedTxn(format!(
                    "BEGIN while transaction {} is already open",
                    open.id
                )));
            }
            *slot = Some(self.begin_txn()?);
        } else {
            let h = slot
                .take()
                .ok_or_else(|| AimError::Execution(format!("{label} with no open transaction")))?;
            if let Statement::Commit = stmt {
                in_span(&mut tb, "commit", || self.commit_mvcc(h.id))?;
                // Best-effort: the commit is durable; a checkpoint failure
                // surfaces on the next statement instead.
                let _ = self.maybe_checkpoint();
            } else {
                in_span(&mut tb, "rollback", || self.rollback_mvcc(h.id))?;
                self.metrics.record_abort();
            }
        }
        Ok(QueryResult::Text(label.into()))
    }

    /// Plan a SELECT with the current stats, estimator and models.
    pub fn plan(&self, sel: &Select) -> Result<PhysicalPlan> {
        self.with_planner(|p| p.plan_select(sel))
    }

    /// Run `f` on a planner with the current stats, estimator and models.
    fn with_planner<T>(&self, f: impl FnOnce(&Planner<'_>) -> Result<T>) -> Result<T> {
        let stats = self.stats.read();
        let est = self.estimator.read().clone();
        let hook = self.hook.read().clone();
        let mut planner = Planner::new(&self.catalog, &stats, est.as_ref());
        planner.models = hook.as_deref();
        f(&planner)
    }

    /// Execute a physical plan, recording metrics. Returns rows + schema.
    pub fn run_plan(&self, plan: &PhysicalPlan) -> Result<QueryResult> {
        let (rows, _) = self.run_plan_measured(plan)?;
        Ok(QueryResult::Rows {
            schema: plan.schema.clone(),
            rows,
        })
    }

    /// Execute a physical plan and return the measured cost units — the
    /// latency signal tuners and learned optimizers train on. The caller
    /// holds a plan but no statement, so with `query_tracing` on the run
    /// gets a trace of its own.
    pub fn run_plan_measured(&self, plan: &PhysicalPlan) -> Result<(Vec<Row>, f64)> {
        let clock = self.clock();
        let mut tb = self
            .tracing_enabled()
            .then(|| TraceBuilder::new(clock.as_ref(), plan_label(plan)));
        let w0 = wait::thread_snapshot();
        let run = self.exec_plan(plan, tb.as_mut(), None);
        if let Some(mut tb) = tb {
            tb.set_waits(wait::thread_snapshot().delta_since(&w0));
            self.tracer.record(tb.finish());
        }
        run.map(|r| (r.rows, r.cost))
    }

    /// The single plan-execution path: verify (debug builds), run the
    /// plan through the morsel-parallel batch executor, flush
    /// per-operator and per-query metrics, and — when a trace is active
    /// — record verify/execute spans, buffer-pool deltas and the operator
    /// profile.
    fn exec_plan(
        &self,
        plan: &PhysicalPlan,
        mut tb: Option<&mut TraceBuilder<'_>>,
        snap: Option<Snapshot>,
    ) -> Result<PlanRun> {
        // Reads go through the transaction's snapshot when there is one;
        // otherwise a statement-scoped read snapshot so concurrent
        // commits appear atomically. The guard keeps the checkpoint
        // vacuum at bay until the scan ends.
        let (snap, _read_guard) = match snap {
            Some(s) => (s, None),
            None => {
                let (s, g) = self.read_snapshot();
                (s, Some(g))
            }
        };
        // Debug builds statically verify every plan before running it, so
        // the whole test suite doubles as a verifier soak test.
        #[cfg(debug_assertions)]
        in_span(&mut tb, "verify", || {
            crate::verify::verify(plan, &self.catalog)
        })?;
        let clock = self.clock();
        let eid = tb.as_deref_mut().map(|t| t.open("execute"));
        let pool_before = tb.is_some().then(|| self.pool.stats());
        let ctx = ExecContext::with_clock(&self.catalog, &BuiltinFns, clock.as_ref());
        ctx.set_snapshot(Some(snap));
        let rows = execute_batched_parallel(plan, &ctx, DEFAULT_BATCH_SIZE, self.exec_workers())?;
        let ops = ctx.take_op_stats();
        self.flush_op_stats(&ops);
        self.note_worker_spans(ctx.take_worker_spans(), tb.as_deref_mut());
        let cost = ctx.cost_units();
        if let Some(t) = tb {
            t.add_rows(rows.len() as u64);
            t.add_batches(ops.iter().map(|(_, st)| st.batches).max().unwrap_or(0));
            t.add_cost(cost);
            if let Some(before) = pool_before {
                let after = self.pool.stats();
                t.add_buffer(
                    after.hits.saturating_sub(before.hits),
                    after.misses.saturating_sub(before.misses),
                );
            }
            if let Some(id) = eid {
                t.close(id);
            }
            t.set_ops(crate::analyze::op_profiles(plan, &ops));
        }
        self.metrics.record_query(rows.len() as u64, cost);
        STMT_COST.with(|c| c.set(c.get() + cost));
        Ok(PlanRun { rows, cost, ops })
    }

    fn flush_op_stats(&self, ops: &[(OpKey, OpStats)]) {
        for &((name, node, worker), stats) in ops {
            self.metrics.record_operator(name, node, worker, stats);
        }
    }

    /// Resolve the `exec_parallelism` knob to a morsel worker count:
    /// 0 means one worker per available core (capped at the knob max).
    /// The core count is read once per process: on Linux the standard
    /// library reads it from the cgroup files, which costs more than a
    /// point query.
    fn exec_workers(&self) -> usize {
        static CORES: OnceLock<usize> = OnceLock::new();
        let n = self.knobs.get("exec_parallelism").unwrap_or(0);
        if n > 0 {
            n as usize
        } else {
            *CORES.get_or_init(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
                    .min(64)
            })
        }
    }

    /// Attach morsel-worker wall-clock footprints to the active trace —
    /// as pre-timed (and mutually overlapping) children of the open
    /// `execute` span — and refresh the `aimdb_worker_busy_ratio` gauge:
    /// the fraction of the workers' combined wall-clock window spent
    /// processing morsels rather than waiting on the dispenser.
    fn note_worker_spans(&self, spans: Vec<WorkerSpan>, tb: Option<&mut TraceBuilder<'_>>) {
        if spans.is_empty() {
            return;
        }
        if let Some(t) = tb {
            for s in &spans {
                t.push_span_at(&format!("worker-{}", s.worker), s.start_ns, s.end_ns, 0);
            }
        }
        let mut window = 0u64;
        let mut busy = 0u64;
        for s in &spans {
            window += s.end_ns.saturating_sub(s.start_ns);
            busy += s.busy_ns;
        }
        if window > 0 {
            self.metrics.registry().set_gauge(
                "aimdb_worker_busy_ratio",
                (busy as f64 / window as f64).min(1.0),
            );
            // The idle remainder of the workers' combined window is time
            // spent starved for morsels — attribute it to the statement.
            if window > busy {
                wait::record_ns(wait::WaitClass::MorselStarvation, window - busy);
            }
        }
    }

    /// `EXPLAIN ANALYZE` as an API: execute `sel` and return the plan
    /// annotated with per-node actuals and `QEvalError`s. Metrics are
    /// recorded as for a normal execution.
    pub fn explain_analyze(&self, sel: &Select) -> Result<AnalyzeReport> {
        self.analyze_select(sel, None)
    }

    fn analyze_select(
        &self,
        sel: &Select,
        mut tb: Option<&mut TraceBuilder<'_>>,
    ) -> Result<AnalyzeReport> {
        let plan = in_span(&mut tb, "optimize", || self.plan(sel))?;
        let run = self.exec_plan(&plan, tb, None)?;
        Ok(crate::analyze::build_report(
            &plan,
            &run.ops,
            run.rows.len() as u64,
            run.cost,
        ))
    }

    /// Prometheus-style text exposition of every engine metric: query /
    /// txn / recovery counters, the cost histogram with p50/p95/p99,
    /// buffer and disk gauges, and per-operator counters labelled by
    /// operator name and plan-node id. The output always passes
    /// [`aimdb_trace::validate_exposition`].
    pub fn metrics_text(&self) -> String {
        let b = self.pool.stats();
        let d = self.store.stats();
        let reg = self.metrics.registry();
        reg.set_gauge("aimdb_buffer_hit_rate", b.hit_rate());
        reg.set_gauge("aimdb_disk_reads", d.reads as f64);
        reg.set_gauge("aimdb_disk_writes", d.writes as f64);
        // Sync the process-wide contended-acquire total from the lock shim
        // into the registry (counters are monotone, so apply the delta).
        let contention = parking_lot::contention_counts();
        let total: u64 = contention.iter().map(|(_, n)| n).sum();
        let cur = reg.counter(crate::metrics::LOCK_CONTENTION_TOTAL);
        reg.inc_counter(
            crate::metrics::LOCK_CONTENTION_TOTAL,
            total.saturating_sub(cur),
        );
        // Same delta-sync for contended-acquire *time*: acquisition counts
        // alone rank a hot uncontended lock above a slow contended one.
        let wait_by_rank = parking_lot::contention_wait_ns();
        let wait_total: u64 = wait_by_rank.iter().map(|(_, ns)| ns).sum();
        let cur = reg.counter(crate::metrics::LOCK_WAIT_NS_TOTAL);
        reg.inc_counter(
            crate::metrics::LOCK_WAIT_NS_TOTAL,
            wait_total.saturating_sub(cur),
        );
        let mut out = reg.render();
        out.push_str("# TYPE aimdb_lock_contention_rank_total counter\n");
        for (rank, n) in &contention {
            out.push_str(&format!(
                "aimdb_lock_contention_rank_total{{rank=\"{rank}\"}} {n}\n"
            ));
        }
        out.push_str("# TYPE aimdb_lock_wait_ns_rank_total counter\n");
        for (rank, ns) in &wait_by_rank {
            out.push_str(&format!(
                "aimdb_lock_wait_ns_rank_total{{rank=\"{rank}\"}} {ns}\n"
            ));
        }
        // Process-wide wait-class attribution. Every class is always
        // exposed (zeros included) so scrapes see a stable label set.
        let waits = wait::global_totals();
        out.push_str("# TYPE aimdb_wait_ns_total counter\n");
        for class in wait::WaitClass::ALL {
            let (ns, _) = waits.get(class);
            out.push_str(&format!(
                "aimdb_wait_ns_total{{class=\"{}\"}} {ns}\n",
                class.name()
            ));
        }
        out.push_str("# TYPE aimdb_wait_events_total counter\n");
        for class in wait::WaitClass::ALL {
            let (_, n) = waits.get(class);
            out.push_str(&format!(
                "aimdb_wait_events_total{{class=\"{}\"}} {n}\n",
                class.name()
            ));
        }
        // Top statement fingerprints by call count, so a scrape alone
        // identifies the hot statements without the stats API.
        for st in self.stmt_stats.snapshot().into_iter().take(5) {
            out.push_str(&format!(
                "aimdb_statement_calls_total{{fingerprint=\"{:016x}\"}} {}\n",
                st.fingerprint, st.calls
            ));
            out.push_str(&format!(
                "aimdb_statement_ns_total{{fingerprint=\"{:016x}\"}} {}\n",
                st.fingerprint, st.total_ns
            ));
        }
        let ops = self.metrics.operator_stats();
        if !ops.is_empty() {
            for (family, pick) in [
                ("aimdb_operator_rows_total", 0usize),
                ("aimdb_operator_batches_total", 1),
                ("aimdb_operator_ns_total", 2),
            ] {
                out.push_str(&format!("# TYPE {family} counter\n"));
                for &((name, node, worker), st) in &ops {
                    let v = match pick {
                        0 => st.rows,
                        1 => st.batches,
                        _ => st.ns,
                    };
                    out.push_str(&format!(
                        "{family}{{op=\"{name}\",node=\"{node}\",worker=\"{worker}\"}} {v}\n"
                    ));
                }
            }
        }
        debug_assert!(validate_exposition(&out).is_ok());
        out
    }

    /// Recently completed query traces, oldest first.
    pub fn recent_traces(&self) -> Vec<Arc<QueryTrace>> {
        self.tracer.recent()
    }

    /// Per-fingerprint statement statistics, most-called first: call /
    /// error / row counts, cost units, latency quantiles and the
    /// wait-class breakdown accumulated across executions.
    pub fn statement_stats(&self) -> Vec<StatementStat> {
        self.stmt_stats.snapshot()
    }

    /// The database's flight recorder. Hold a clone to dump post-mortem
    /// snapshots (e.g. from a [`FaultInjector`](aimdb_storage::FaultInjector)
    /// crash hook) after the `Database` itself is gone.
    pub fn flight_recorder(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.flight)
    }

    /// Structured JSON slow-query log lines, oldest first (queries whose
    /// cost crossed `slow_query_cost_threshold`).
    pub fn slow_query_log(&self) -> Vec<String> {
        self.tracer.slow_query_log()
    }

    fn analyze_table(&self, name: &str) -> Result<()> {
        let t = self.catalog.table(name)?;
        let st = TableStats::analyze(&t, 32)?;
        self.stats.write().insert(name.to_ascii_lowercase(), st);
        Ok(())
    }

    /// INSERT … VALUES. Every row is evaluated and passes the schema's
    /// check (NOT NULL, coercion) before the first insert, so a row the
    /// table refuses fails the statement with nothing written.
    fn exec_insert(
        &self,
        table: &str,
        columns: Option<&[String]>,
        rows: &[Vec<Expr>],
        h: Option<&TxnHandle>,
    ) -> Result<QueryResult> {
        let t = self.catalog.table(table)?;
        let (txn, auto, _snap) = self.stmt_txn(h)?;
        let body = || -> Result<usize> {
            let checked = rows
                .iter()
                .map(|exprs| {
                    let vals: Vec<Value> = exprs
                        .iter()
                        .map(|e| eval_const(e, &BuiltinFns))
                        .collect::<Result<_>>()?;
                    let full = match columns {
                        None => vals,
                        Some(cols) => {
                            if cols.len() != vals.len() {
                                return Err(AimError::Plan(format!(
                                    "INSERT column list has {} names but {} values",
                                    cols.len(),
                                    vals.len()
                                )));
                            }
                            let mut full = vec![Value::Null; t.schema.len()];
                            for (c, v) in cols.iter().zip(vals) {
                                full[t.schema.index_of(c)?] = v;
                            }
                            full
                        }
                    };
                    t.schema.check_row(full)
                })
                .collect::<Result<Vec<_>>>()?;
            let n = checked.len();
            for full in checked {
                self.insert_and_log(&t, table, txn, full)?;
            }
            Ok(n)
        };
        self.finish_dml(txn, auto, body())
    }

    /// Insert one full-width row into `t` as a version `txn` created,
    /// and log it under the table name the statement used.
    fn insert_and_log(&self, t: &Table, table: &str, txn: u64, full: Vec<Value>) -> Result<()> {
        let rid = t.mvcc_insert(full, txn)?;
        self.runtime.record_write(
            txn,
            WriteOp::Created {
                table: table.to_string(),
                rid,
            },
        );
        // Log the stored row (the schema may have coerced values), so
        // redo reproduces exactly what was persisted.
        let stored = t
            .heap
            .get(rid)?
            .ok_or_else(|| AimError::Storage(format!("row {rid:?} vanished after insert")))?;
        log_insert(&self.wal, txn, table, rid, stored)
    }

    /// Batched ingest: insert many pre-built rows into `table` as one
    /// auto-commit transaction, bypassing SQL parsing and expression
    /// evaluation. Each row must list every column in schema order
    /// (values are coerced by the schema exactly like `INSERT`). The
    /// whole batch commits atomically through the MVCC path and is WAL
    /// logged row-by-row, so crash recovery replays it all or nothing.
    /// Built for the macro-benchmark loaders, where per-statement parse
    /// and per-row commit dominate bulk-load time.
    pub fn insert_rows(&self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize> {
        let t = self.catalog.table(table)?;
        let (txn, auto, _snap) = self.stmt_txn(None)?;
        let body = || -> Result<usize> {
            let mut n = 0;
            for full in rows {
                self.insert_and_log(&t, table, txn, full)?;
                n += 1;
            }
            Ok(n)
        };
        match self.finish_dml(txn, auto, body())? {
            QueryResult::Affected(n) => Ok(n),
            _ => Err(AimError::Execution("insert_rows: non-DML result".into())),
        }
    }

    /// Close out a DML statement. Auto-commit statements commit (or, on
    /// failure, roll back) their implicit transaction through the MVCC
    /// path, so a mid-statement storage fault cannot leave half a
    /// statement visible. Statements inside an open transaction or
    /// handle leave the error to the caller, who decides between
    /// ROLLBACK and retrying the statement.
    fn finish_dml(&self, txn: u64, auto: bool, out: Result<usize>) -> Result<QueryResult> {
        match out {
            Ok(n) => {
                if auto {
                    self.commit_mvcc(txn)?;
                    let _ = self.maybe_checkpoint();
                }
                Ok(QueryResult::Affected(n))
            }
            Err(e) => {
                if auto {
                    // Best-effort: on an injected crash these fail too, and
                    // recovery discards the unfinished transaction anyway.
                    let _ = self.rollback_mvcc(txn);
                    self.metrics.record_abort();
                }
                Err(e)
            }
        }
    }

    /// UPDATE (with its SET list) or DELETE (without one). The rows to
    /// write are read through the batch executor on this thread, every
    /// one read, filtered and given its new values before the first
    /// write, so the statement never revisits a version it wrote (no
    /// Halloween problem) and an evaluation error writes nothing. Rows
    /// are then claimed in heap order, first-updater-wins.
    fn exec_dml(
        &self,
        table: &str,
        set: Option<&[(String, Expr)]>,
        where_clause: Option<&Expr>,
        h: Option<&TxnHandle>,
    ) -> Result<QueryResult> {
        let t = self.catalog.table(table)?;
        let plan =
            self.with_planner(|p| p.plan_dml(table, where_clause, set.unwrap_or_default()))?;
        let set_cols: Vec<usize> = set
            .unwrap_or_default()
            .iter()
            .map(|(c, _)| t.schema.index_of(c))
            .collect::<Result<_>>()?;
        let (txn, auto, snap) = self.stmt_txn(h)?;
        let body = || -> Result<usize> {
            let ctx = ExecContext::new(&self.catalog, &BuiltinFns);
            ctx.set_snapshot(Some(snap));
            let hits = execute_dml(&plan, &ctx, DEFAULT_BATCH_SIZE)?;
            // every new version passes the schema's check (NOT NULL,
            // coercion) before the first claim, so a value the table
            // refuses fails the statement with nothing written
            let hits = hits
                .into_iter()
                .map(|(rid, before, assigned)| {
                    let after = set
                        .map(|_| {
                            let mut vals = before.values().to_vec();
                            for (&ci, v) in set_cols.iter().zip(assigned.into_values()) {
                                vals[ci] = v;
                            }
                            t.schema.check_row(vals)
                        })
                        .transpose()?;
                    Ok((rid, before, after))
                })
                .collect::<Result<Vec<_>>>()?;
            let n = hits.len();
            for (rid, before, after) in hits {
                // recovery finds the rows to redo by these images
                debug_assert_eq!(t.heap.get(rid).ok().flatten().as_ref(), Some(&before));
                t.mvcc_claim(rid, &snap)?;
                self.runtime.record_write(
                    txn,
                    WriteOp::Ended {
                        table: table.to_string(),
                        rid,
                    },
                );
                let Some(vals) = after else {
                    // MVCC delete is a claim: the version stays in the
                    // heap for concurrent snapshots and is physically
                    // removed by the checkpoint vacuum.
                    log_delete(&self.wal, txn, table, rid, before)?;
                    continue;
                };
                // an update writes the new values as a fresh version
                let new_rid = t.mvcc_insert(vals, txn)?;
                self.runtime.record_write(
                    txn,
                    WriteOp::Created {
                        table: table.to_string(),
                        rid: new_rid,
                    },
                );
                let after = t.heap.get(new_rid)?.ok_or_else(|| {
                    AimError::Storage(format!("row {new_rid:?} vanished after update"))
                })?;
                log_update(&self.wal, txn, table, rid, new_rid, before, after)?;
            }
            Ok(n)
        };
        self.finish_dml(txn, auto, body())
    }
}

/// Locate a row by value (multiset semantics: any one match). Recovery
/// replays deletes/updates this way because row ids are reassigned when
/// tables are rebuilt from a checkpoint. The checkpoint's indexes are
/// rebuilt before redo starts, so an indexed column of the image narrows
/// the search to the rows sharing that key; a table without one is
/// scanned.
fn find_row(t: &Table, target: &Row) -> Result<Option<RowId>> {
    let indexed = t
        .schema
        .columns()
        .iter()
        .enumerate()
        .find_map(|(col, c)| t.index_on(&c.name).map(|idx| (col, idx)));
    if let Some((col, idx)) = indexed {
        for rid in idx.lookup(target.get(col)) {
            if t.heap.get(rid)?.as_ref() == Some(target) {
                return Ok(Some(rid));
            }
        }
        return Ok(None);
    }
    for (rid, row) in t.scan()? {
        if &row == target {
            return Ok(Some(rid));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with_users() -> Database {
        let db = Database::new();
        db.execute("CREATE TABLE users (id INT NOT NULL, name TEXT, age INT)")
            .unwrap();
        for i in 0..100 {
            db.execute(&format!(
                "INSERT INTO users VALUES ({i}, 'user{i}', {})",
                20 + (i % 50)
            ))
            .unwrap();
        }
        db
    }

    #[test]
    fn select_with_filter_and_order() {
        let db = db_with_users();
        let r = db
            .execute("SELECT id, age FROM users WHERE age >= 65 ORDER BY id DESC LIMIT 3")
            .unwrap();
        let rows = r.rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].get(0), &Value::Int(99));
        assert!(rows.iter().all(|r| r.get(1).as_i64().unwrap() >= 65));
    }

    #[test]
    fn aggregates_and_group_by() {
        let db = db_with_users();
        let r = db
            .execute("SELECT COUNT(*), AVG(age), MIN(id), MAX(id) FROM users")
            .unwrap();
        let row = &r.rows()[0];
        assert_eq!(row.get(0), &Value::Int(100));
        assert_eq!(row.get(2), &Value::Int(0));
        assert_eq!(row.get(3), &Value::Int(99));
        let r = db
            .execute("SELECT age, COUNT(*) AS n FROM users GROUP BY age ORDER BY n DESC, age")
            .unwrap();
        assert_eq!(r.rows().len(), 50);
        assert_eq!(r.rows()[0].get(1), &Value::Int(2));
    }

    #[test]
    fn join_two_tables() {
        let db = db_with_users();
        db.execute("CREATE TABLE orders (oid INT, user_id INT, amount FLOAT)")
            .unwrap();
        for i in 0..50 {
            db.execute(&format!(
                "INSERT INTO orders VALUES ({i}, {}, {})",
                i % 10,
                (i as f64) * 1.5
            ))
            .unwrap();
        }
        let r = db
            .execute(
                "SELECT u.name, SUM(o.amount) AS total FROM users u JOIN orders o \
                 ON u.id = o.user_id GROUP BY u.name ORDER BY total DESC LIMIT 2",
            )
            .unwrap();
        assert_eq!(r.rows().len(), 2);
        // user 9 gets orders 9,19,29,39,49 → 1.5*(9+19+29+39+49)=217.5
        assert_eq!(r.rows()[0].get(0), &Value::Text("user9".into()));
        assert_eq!(r.rows()[0].get(1), &Value::Float(217.5));
    }

    #[test]
    fn insert_rows_batched_ingest() {
        let db = Database::new();
        db.execute("CREATE TABLE items (id INT, name TEXT, price FLOAT)")
            .unwrap();
        let rows: Vec<Vec<Value>> = (0..500)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Text(format!("item{i}")),
                    Value::Float(i as f64 * 0.5),
                ]
            })
            .collect();
        assert_eq!(db.insert_rows("items", rows).unwrap(), 500);
        let r = db.execute("SELECT COUNT(*), SUM(id) FROM items").unwrap();
        assert_eq!(r.rows()[0].get(0), &Value::Int(500));
        assert_eq!(r.rows()[0].get(1), &Value::Int(500 * 499 / 2));
        // schema coercion matches INSERT: an Int into a FLOAT column lands
        // as Float
        db.insert_rows(
            "items",
            vec![vec![
                Value::Int(1000),
                Value::Text("x".into()),
                Value::Int(3),
            ]],
        )
        .unwrap();
        let r = db
            .execute("SELECT price FROM items WHERE id = 1000")
            .unwrap();
        assert_eq!(r.rows()[0].get(0), &Value::Float(3.0));
        // arity mismatch is a schema error, and the batch rolls back whole
        let bad = vec![vec![Value::Int(1)], vec![Value::Int(2)]];
        assert!(db.insert_rows("items", bad).is_err());
        let r = db.execute("SELECT COUNT(*) FROM items").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::Int(501));
        // batch survives recovery through the WAL
        let report = db.checkpoint_now();
        assert!(report.is_ok());
        let (db2, _) = Database::recover(Arc::clone(db.disk())).unwrap();
        let r = db2.execute("SELECT COUNT(*) FROM items").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::Int(501));
    }

    #[test]
    fn annulled_commit_stays_aborted_after_recovery() {
        use aimdb_storage::{Disk, FaultInjector, FaultPlan};

        // A commit whose group flush fails transiently is rolled back and
        // annulled with an Abort record — but the Commit record is already
        // in the flush buffer and becomes durable on the next successful
        // flush. Recovery must honor the later Abort, or the failed txn's
        // effects resurrect after a crash and diverge from the pre-crash
        // live state (found by the macro-bench crash harness).
        let disk = Arc::new(Disk::new());
        let inj = Arc::new(FaultInjector::new(Arc::clone(&disk), FaultPlan::default()));
        let db = Database::with_store(inj.clone() as Arc<dyn PageStore>);
        db.execute("CREATE TABLE t (id INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();

        // Next mutating store op (the commit flush) fails once.
        inj.arm(FaultPlan::default().with_io_error_at(vec![1]));
        let h = db.begin_txn().unwrap();
        db.execute_in(&h, "INSERT INTO t VALUES (2)").unwrap();
        assert!(db.commit_txn(&h).is_err(), "commit flush failure surfaces");

        // Live state: the failed txn rolled back.
        let r = db.execute("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::Int(1));

        // A later commit flushes the retained buffer — including the
        // annulled txn's Commit AND its Abort.
        db.execute("INSERT INTO t VALUES (3)").unwrap();
        drop(db);

        let (db2, _) = Database::recover(Arc::clone(&disk) as Arc<dyn PageStore>).unwrap();
        let r = db2.execute("SELECT COUNT(*) FROM t ").unwrap();
        assert_eq!(
            r.scalar().unwrap(),
            &Value::Int(2),
            "annulled commit must not resurrect at recovery"
        );
        let r = db2.execute("SELECT COUNT(*) FROM t WHERE id = 2").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::Int(0));
    }

    #[test]
    fn update_and_delete() {
        let db = db_with_users();
        let r = db
            .execute("UPDATE users SET age = age + 100 WHERE id < 10")
            .unwrap();
        assert_eq!(r, QueryResult::Affected(10));
        let r = db
            .execute("SELECT COUNT(*) FROM users WHERE age >= 120")
            .unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::Int(10));
        let r = db.execute("DELETE FROM users WHERE id >= 50").unwrap();
        assert_eq!(r, QueryResult::Affected(50));
        let r = db.execute("SELECT COUNT(*) FROM users").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::Int(50));
    }

    #[test]
    fn transaction_rollback_restores_data() {
        let db = db_with_users();
        let mut txn = None;
        for sql in [
            "BEGIN",
            "DELETE FROM users WHERE id < 50",
            "INSERT INTO users VALUES (1000, 'temp', 1)",
            "UPDATE users SET age = 0 WHERE id = 60",
        ] {
            db.execute_session(&mut txn, sql).unwrap();
        }
        // the session reads its own writes; nobody else sees them
        let r = db.execute_session(&mut txn, "SELECT COUNT(*) FROM users");
        assert_eq!(r.unwrap().scalar().unwrap(), &Value::Int(51));
        let r = db.execute("SELECT COUNT(*) FROM users").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::Int(100));
        db.execute_session(&mut txn, "ROLLBACK").unwrap();
        assert_eq!((txn, db.active_txn_count()), (None, 0));
        let r = db.execute("SELECT COUNT(*) FROM users").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::Int(100));
        let r = db.execute("SELECT age FROM users WHERE id = 60").unwrap();
        assert_ne!(r.rows()[0].get(0), &Value::Int(0));
        let r = db
            .execute("SELECT COUNT(*) FROM users WHERE id = 1000")
            .unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::Int(0));
    }

    #[test]
    fn transaction_commit_persists() {
        let db = db_with_users();
        let mut txn = None;
        db.execute_session(&mut txn, "BEGIN").unwrap();
        db.execute_session(&mut txn, "DELETE FROM users WHERE id < 10")
            .unwrap();
        db.execute_session(&mut txn, "COMMIT").unwrap();
        assert_eq!((txn, db.active_txn_count()), (None, 0));
        let r = db.execute("SELECT COUNT(*) FROM users").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::Int(90));
    }

    #[test]
    fn transaction_control_needs_an_owner() {
        let db = db_with_users();
        // plain execute and scripts own no transaction: BEGIN would open
        // one nobody could commit, so it is refused and nothing is opened
        for sql in ["BEGIN", "-- note\nbegin;", "COMMIT", "ROLLBACK"] {
            let e = db.execute(sql).unwrap_err();
            assert_eq!(e.category(), "execution", "{sql}: {e}");
        }
        assert!(db.run_script("BEGIN; DELETE FROM users; COMMIT").is_err());
        assert_eq!(db.active_txn_count(), 0);
        // a session's slot is the owner: one transaction at a time, and
        // COMMIT/ROLLBACK need one
        let mut txn = None;
        for sql in ["COMMIT", "ROLLBACK"] {
            let e = db.execute_session(&mut txn, sql).unwrap_err();
            assert_eq!(e.category(), "execution", "{sql}: {e}");
        }
        let begin = db.execute_session(&mut txn, "BEGIN");
        assert_eq!(begin, Ok(QueryResult::Text("BEGIN".into())));
        let e = db.execute_session(&mut txn, "BEGIN").unwrap_err();
        assert_eq!(e.category(), "nested_txn");
        assert!(txn.is_some(), "the refused BEGIN left the open one alone");
        // DDL stays out of transactions, whoever holds them
        assert!(db
            .execute_session(&mut txn, "CREATE TABLE t2 (a INT)")
            .is_err());
        db.execute_session(&mut txn, "ROLLBACK").unwrap();
        assert_eq!((txn, db.active_txn_count()), (None, 0));
    }

    #[test]
    fn session_commit_is_observed_like_any_statement() {
        let db = db_with_users();
        let mut txn = None;
        db.execute_session(&mut txn, "BEGIN").unwrap();
        db.execute_session(&mut txn, "DELETE FROM users WHERE id = 1")
            .unwrap();
        let events = db.flight_recorder().events().len();
        db.execute_session(&mut txn, "COMMIT").unwrap();

        // fingerprint store: a `commit` shape that waited on the fsync
        // (wal_sync defaults to 1)
        let stat = db
            .statement_stats()
            .into_iter()
            .find(|s| s.normalized == "commit")
            .expect("COMMIT fingerprinted");
        assert_eq!((stat.calls, stat.errors), (1, 0));
        assert!(
            stat.waits.get(wait::WaitClass::WalFsync).1 > 0,
            "commit saw no fsync wait: {:?}",
            stat.waits
        );
        // flight recorder: the Commit event sits inside the statement
        let kinds: Vec<&str> = db.flight_recorder().events()[events..]
            .iter()
            .map(|ev| ev.kind.name())
            .collect();
        assert_eq!(kinds, ["stmt_begin", "commit", "stmt_end"]);
        // trace: a `commit` span under the statement's label
        let trace = db.tracer.last().expect("COMMIT traced");
        assert_eq!(trace.label, "COMMIT");
        assert!(trace.span("commit").is_some());
        assert!(trace.waits.get(wait::WaitClass::WalFsync).1 > 0);
    }

    #[test]
    fn index_used_after_analyze() {
        let db = Database::new();
        db.execute("CREATE TABLE big (id INT, v INT)").unwrap();
        let tuples: Vec<String> = (0..5000).map(|i| format!("({i}, {})", i % 7)).collect();
        db.execute(&format!("INSERT INTO big VALUES {}", tuples.join(",")))
            .unwrap();
        db.execute("CREATE INDEX idx_id ON big (id)").unwrap();
        db.execute("ANALYZE big").unwrap();
        let r = db
            .execute("EXPLAIN SELECT * FROM big WHERE id = 5")
            .unwrap();
        let QueryResult::Text(plan) = r else { panic!() };
        assert!(plan.contains("IndexScan"), "plan: {plan}");
        // and still correct
        let r = db.execute("SELECT v FROM big WHERE id = 5").unwrap();
        assert_eq!(r.rows()[0].get(0), &Value::Int(5));
        // on a tiny table the optimizer must prefer the sequential scan
        let db2 = db_with_users();
        db2.execute("CREATE INDEX idx2 ON users (id)").unwrap();
        db2.execute("ANALYZE users").unwrap();
        let QueryResult::Text(plan) = db2
            .execute("EXPLAIN SELECT * FROM users WHERE id = 5")
            .unwrap()
        else {
            panic!()
        };
        assert!(plan.contains("SeqScan"), "plan: {plan}");
    }

    #[test]
    fn explain_dml_prints_the_access_path_the_statement_takes() {
        let explain = |db: &Database, sql: &str| match db.execute(sql).unwrap() {
            QueryResult::Text(t) => t,
            other => panic!("{other:?}"),
        };
        let db = Database::new();
        db.execute("CREATE TABLE big (id INT, v INT)").unwrap();
        db.insert_rows(
            "big",
            (0..5000)
                .map(|i| vec![Value::Int(i), Value::Int(i % 7)])
                .collect(),
        )
        .unwrap();
        db.execute("CREATE INDEX idx_id ON big (id)").unwrap();
        db.execute("ANALYZE big").unwrap();
        // an UPDATE projects its SET list over the scan, a DELETE is the
        // scan alone; either reads every column
        let plan = explain(&db, "EXPLAIN UPDATE big SET v = v + 1 WHERE id = 5");
        assert!(
            plan.starts_with("Project [v]  (rows≈1 ")
                && plan.contains("\n  IndexScan big.id = 5 cols=[id, v]  ("),
            "{plan}"
        );
        let plan = explain(&db, "EXPLAIN DELETE FROM big WHERE id >= 10 AND id <= 12");
        assert!(
            plan.starts_with("IndexScan big.id [10..12] cols=[id, v]  ("),
            "{plan}"
        );
        // the same chooser as SELECT: unindexed, unselective and absent
        // predicates all scan
        for sql in [
            "EXPLAIN UPDATE big SET v = 0 WHERE v = 3",
            "EXPLAIN DELETE FROM big WHERE id >= 0",
            "EXPLAIN DELETE FROM big",
        ] {
            let plan = explain(&db, sql);
            let scan = plan.lines().last().unwrap_or_default().trim_start();
            assert!(
                scan.starts_with("SeqScan big cols=[id, v]"),
                "{sql}: {plan}"
            );
            // a write reads on its own thread: no morsel exchange
            assert!(!plan.contains("Exchange"), "{sql}: {plan}");
        }
        // explaining neither runs the statement nor hides its errors
        assert_eq!(
            db.execute("SELECT COUNT(*) FROM big")
                .unwrap()
                .scalar()
                .unwrap(),
            &Value::Int(5000)
        );
        assert!(db
            .execute("EXPLAIN DELETE FROM big WHERE nope = 1")
            .is_err());
        assert!(db.execute("EXPLAIN DELETE FROM nope").is_err());
        // and the path is the one taken: the probe reads a handful of
        // pages where the scan reads the table
        let reads = |sql: &str| {
            let before = db.buffer_pool().stats();
            db.execute(sql).unwrap();
            let after = db.buffer_pool().stats();
            (after.hits + after.misses) - (before.hits + before.misses)
        };
        let probe = reads("UPDATE big SET v = v + 1 WHERE id = 5");
        let scan = reads("UPDATE big SET v = v + 1 WHERE v = 100");
        assert!(probe * 4 < scan, "probe {probe} page requests, scan {scan}");
    }

    #[test]
    fn seq_scan_for_unselective_predicate() {
        let db = db_with_users();
        db.execute("CREATE INDEX idx_age ON users (age)").unwrap();
        db.execute("ANALYZE").unwrap();
        let r = db
            .execute("EXPLAIN SELECT * FROM users WHERE age >= 20")
            .unwrap();
        let QueryResult::Text(plan) = r else { panic!() };
        assert!(plan.contains("SeqScan"), "plan: {plan}");
    }

    #[test]
    fn knobs_via_set() {
        let db = Database::new();
        db.execute("SET buffer_pool_pages = 8").unwrap();
        assert_eq!(db.buffer_pool().capacity(), 8);
        // a knob that was removed is as unknown as one that never existed
        for gone in ["no_such_knob", "vectorized_exec"] {
            assert_eq!(
                db.execute(&format!("SET {gone} = 0")),
                Err(AimError::NotFound(format!("knob {gone}")))
            );
        }
    }

    #[test]
    fn kpis_reflect_activity() {
        let db = db_with_users();
        let before = db.kpis();
        db.execute("SELECT * FROM users").unwrap();
        let after = db.kpis();
        assert_eq!(after.queries_executed, before.queries_executed + 1);
        assert!(after.rows_emitted >= before.rows_emitted + 100);
        assert!(after.total_cost_units > before.total_cost_units);
    }

    #[test]
    fn run_script_multiple() {
        let db = Database::new();
        let rs = db
            .run_script(
                "CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2); SELECT COUNT(*) FROM t;",
            )
            .unwrap();
        assert_eq!(rs.len(), 3);
        assert_eq!(rs[2].scalar().unwrap(), &Value::Int(2));
    }

    #[test]
    fn predict_without_hook_errors() {
        let db = Database::new();
        assert!(db.execute("PREDICT m GIVEN (1)").is_err());
        assert!(db
            .execute("CREATE MODEL m KIND LINEAR ON t (a) LABEL b")
            .is_err());
    }

    #[test]
    fn insert_with_column_list() {
        let db = Database::new();
        db.execute("CREATE TABLE t (a INT, b TEXT, c FLOAT)")
            .unwrap();
        db.execute("INSERT INTO t (c, a) VALUES (1.5, 7)").unwrap();
        let r = db.execute("SELECT a, b, c FROM t").unwrap();
        let row = &r.rows()[0];
        assert_eq!(row.get(0), &Value::Int(7));
        assert_eq!(row.get(1), &Value::Null);
        assert_eq!(row.get(2), &Value::Float(1.5));
    }

    #[test]
    fn select_expression_only() {
        let db = Database::new();
        let r = db.execute("SELECT 1 + 2 AS three").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::Int(3));
    }

    #[test]
    fn error_statements_recorded() {
        let db = Database::new();
        let _ = db.execute("SELECT * FROM missing");
        assert_eq!(db.kpis().errors, 1);
    }

    #[test]
    fn failed_reads_in_a_txn_handle_are_observed() {
        let db = db_with_users();
        let h = db.begin_txn().unwrap();
        // one read that fails when planned, one that fails in the executor
        for (sql, category) in [
            ("SELECT nope FROM users", "not_found"),
            ("SELECT 10 / (id - 1) FROM users", "execution"),
        ] {
            let errors = db.kpis().errors;
            let events = db.flight_recorder().events().len();
            let e = db.execute_in(&h, sql).unwrap_err();
            assert_eq!(e.category(), category, "{sql}: {e}");
            assert_eq!(db.kpis().errors, errors + 1, "{sql}");
            let fp = fingerprint::fingerprint(sql);
            let stat = db
                .statement_stats()
                .into_iter()
                .find(|s| s.fingerprint == fp)
                .expect("failed statement fingerprinted");
            assert_eq!((stat.calls, stat.errors), (1, 1), "{sql}");
            let kinds: Vec<(&str, u64)> = db.flight_recorder().events()[events..]
                .iter()
                .map(|ev| (ev.kind.name(), ev.a))
                .collect();
            assert_eq!(kinds, [("stmt_begin", fp), ("stmt_end", fp)], "{sql}");
        }
        db.rollback_txn(&h).unwrap();
    }

    fn observability_fixture() -> Database {
        let db = Database::new();
        db.execute("CREATE TABLE ev (id INT, grp INT, amt FLOAT)")
            .unwrap();
        let rows: Vec<String> = (0..500)
            .map(|i| format!("({i}, {}, {:.1})", i % 5, (i % 90) as f64))
            .collect();
        db.execute(&format!("INSERT INTO ev VALUES {}", rows.join(",")))
            .unwrap();
        db.execute("ANALYZE").unwrap();
        db
    }

    #[test]
    fn explain_analyze_annotates_every_node() {
        let db = observability_fixture();
        let r = db
            .execute(
                "EXPLAIN ANALYZE SELECT grp, COUNT(*) FROM ev WHERE amt > 10.0 GROUP BY grp ORDER BY grp",
            )
            .unwrap();
        let text = match r {
            QueryResult::Text(t) => t,
            other => panic!("expected text, got {other:?}"),
        };
        // a 3+-operator plan where every node line carries estimates,
        // actuals and the per-node QEvalError
        let node_lines: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("actual rows="))
            .collect();
        assert!(node_lines.len() >= 3, "plan too small:\n{text}");
        for line in &node_lines {
            assert!(line.contains("rows≈"), "missing estimate: {line}");
            assert!(line.contains("actual rows="), "missing actuals: {line}");
            assert!(line.contains("time="), "missing timing: {line}");
            assert!(line.contains("cost="), "missing cost: {line}");
        }
        assert!(text.contains("Total: rows=5"), "{text}");
    }

    #[test]
    fn explain_analyze_api_reports_exact_row_counts() {
        let db = observability_fixture();
        let sel = match parse_one("SELECT id FROM ev WHERE grp = 3").unwrap() {
            Statement::Select(sel) => sel,
            other => panic!("{other:?}"),
        };
        let expected = db.execute("SELECT id FROM ev WHERE grp = 3").unwrap();
        let report = db.explain_analyze(&sel).unwrap();
        assert_eq!(report.result_rows, expected.rows().len() as u64);
        let root = report.root().unwrap();
        assert_eq!(root.rows, report.result_rows);
        assert_eq!(root.node, 0);
        assert!(root.q_error >= 1.0);
        // node ids are preorder and parents precede children
        for n in &report.nodes {
            if let Some(p) = n.parent {
                assert!(p < n.node);
            }
        }
    }

    #[test]
    fn explain_analyze_names_match_executor() {
        // analyze::op_name must agree with the names exec_batch records
        let db = observability_fixture();
        db.execute("CREATE INDEX idx_grp ON ev(grp)").unwrap();
        for sql in [
            "SELECT * FROM ev",
            "SELECT id FROM ev WHERE grp = 2 ORDER BY id DESC LIMIT 3",
            "SELECT a.id FROM ev a, ev b WHERE a.id = b.id AND a.amt > 80.0",
            "SELECT grp, SUM(amt) FROM ev GROUP BY grp",
        ] {
            let sel = match parse_one(sql).unwrap() {
                Statement::Select(sel) => sel,
                other => panic!("{other:?}"),
            };
            let report = db.explain_analyze(&sel).unwrap();
            for node in &report.nodes {
                if node.batches > 0 {
                    // an executed node matched a recorded (name, node) key,
                    // so the mapping agrees
                    continue;
                }
                // unexecuted nodes are allowed only zeros
                assert_eq!(node.rows, 0, "{sql}: {node:?}");
            }
            assert!(report.max_q_error() >= 1.0);
        }
    }

    #[test]
    fn metrics_text_parses_and_exposes_quantiles() {
        let db = observability_fixture();
        for _ in 0..20 {
            db.execute("SELECT COUNT(*) FROM ev WHERE amt > 50.0")
                .unwrap();
        }
        let page = db.metrics_text();
        let samples = aimdb_trace::validate_exposition(&page).expect("page parses");
        assert!(samples > 10, "only {samples} samples:\n{page}");
        assert!(page.contains("aimdb_queries_total"));
        assert!(page.contains("aimdb_query_cost_units{quantile=\"0.95\"}"));
        assert!(page.contains("aimdb_buffer_hit_rate"));
        assert!(page.contains("aimdb_operator_rows_total{op=\"seq_scan\",node="));
        assert!(page.contains("aimdb_operator_ns_total{op=\"project\",node=\"0\",worker=\"0\"}"));
        assert!(page.contains("aimdb_lock_contention_total"));
        assert!(page.contains("aimdb_lock_contention_rank_total{rank=\"commit_lock\"}"));
        assert!(page.contains("aimdb_lock_wait_ns_total"));
        // all seven wait classes are always exposed, zero or not
        for class in wait::WaitClass::ALL {
            assert!(
                page.contains(&format!(
                    "aimdb_wait_ns_total{{class=\"{}\"}}",
                    class.name()
                )),
                "missing wait class {} in:\n{page}",
                class.name()
            );
        }
        assert!(page.contains("aimdb_wait_events_total{class=\"wal_fsync\"}"));
        assert!(page.contains("aimdb_statement_calls_total{fingerprint=\""));
        let kpis = db.kpis();
        assert!(kpis.p50_cost_per_query > 0.0);
        assert!(kpis.p50_cost_per_query <= kpis.p99_cost_per_query);
    }

    #[test]
    fn statement_stats_aggregate_by_fingerprint() {
        let db = observability_fixture();
        for i in 0..7 {
            db.execute(&format!("SELECT id FROM ev WHERE amt > {i}.0"))
                .unwrap();
        }
        db.execute("SELECT grp FROM ev WHERE grp = 3").unwrap();
        let stats = db.statement_stats();
        let hot = stats
            .iter()
            .find(|s| s.normalized == "select id from ev where amt > ?")
            .expect("literal-varied statements share one fingerprint");
        assert_eq!(hot.calls, 7);
        assert!(hot.rows > 0);
        assert!(hot.cost_units > 0.0);
        assert_eq!(hot.latency.count, 7);
        assert!(hot.latency.p50 <= hot.latency.p99);
        // the INSERT from the fixture went through the WAL, so its
        // fingerprint entry attributes commit-path waits
        let ins = stats
            .iter()
            .find(|s| s.normalized.starts_with("insert into ev values"))
            .expect("insert fingerprinted");
        assert_eq!(ins.errors, 0);
        assert!(
            ins.waits.get(wait::WaitClass::WalFsync).1 > 0
                || ins.waits.get(wait::WaitClass::GroupCommitFollower).1 > 0,
            "insert saw no commit-path waits: {:?}",
            ins.waits
        );
        // parse errors are observed too, under their own fingerprint
        let _ = db.execute("SELEC id FROM ev");
        let stats = db.statement_stats();
        let bad = stats
            .iter()
            .find(|s| s.normalized == "selec id from ev")
            .expect("parse error fingerprinted");
        assert_eq!(bad.errors, 1);
    }

    #[test]
    fn flight_recorder_captures_statement_lifecycle() {
        let db = observability_fixture();
        db.execute("SELECT COUNT(*) FROM ev").unwrap();
        let flight = db.flight_recorder();
        let dump = flight.dump_json("unit_test").to_string_pretty();
        let doc = aimdb_common::json::Json::parse(&dump).expect("dump round-trips");
        assert_eq!(doc.field("reason").unwrap().as_str().unwrap(), "unit_test");
        let events = flight.events();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
        assert!(kinds.contains(&"stmt_begin"));
        assert!(kinds.contains(&"stmt_end"));
        assert!(kinds.contains(&"commit"), "fixture INSERT commits");
        // stmt_end carries the fingerprint and elapsed time
        let end = events
            .iter()
            .rev()
            .find(|e| e.kind.name() == "stmt_end")
            .unwrap();
        assert_eq!(
            end.a,
            crate::fingerprint::fingerprint("SELECT COUNT(*) FROM ev")
        );
        assert_eq!(end.c, 0, "statement did not error");
    }

    #[test]
    fn traces_record_lifecycle_spans() {
        let db = observability_fixture();
        db.set_clock(Arc::new(aimdb_common::ManualClock::new()));
        db.execute("SELECT COUNT(*) FROM ev").unwrap();
        let trace = db.tracer.last().expect("trace recorded");
        assert!(trace.label.starts_with("SELECT COUNT(*)"));
        for phase in ["parse", "optimize", "execute"] {
            assert!(trace.span(phase).is_some(), "missing {phase} span");
        }
        let exec = trace.span("execute").unwrap();
        assert_eq!(exec.rows, 1);
        assert!(exec.cost_units > 0.0);
        assert!(!trace.ops.is_empty());
        assert_eq!(trace.ops[0].node, 0);
        // EXPLAIN ANALYZE runs its plan the way a SELECT does, so its
        // trace carries the same batch count and buffer-pool deltas
        db.execute("EXPLAIN ANALYZE SELECT COUNT(*) FROM ev")
            .unwrap();
        let trace = db.tracer.last().expect("trace recorded");
        let exec = trace.span("execute").unwrap();
        assert!(exec.batches > 0);
        assert!(exec.buffer_hits + exec.buffer_misses > 0);
    }

    #[test]
    fn query_tracing_knob_disables_tracing() {
        let db = observability_fixture();
        // the knob is read when a statement begins, so the SET that turns
        // tracing off is itself the last traced statement
        db.execute("SET query_tracing = 0").unwrap();
        db.tracer.clear();
        db.execute("SELECT COUNT(*) FROM ev").unwrap();
        assert!(db.tracer.is_empty());
        db.execute("SET query_tracing = 1").unwrap();
        db.execute("SELECT COUNT(*) FROM ev").unwrap();
        assert_eq!(db.tracer.len(), 1);
    }

    #[test]
    fn slow_query_log_honours_threshold_knob() {
        let db = observability_fixture();
        assert!(db.slow_query_log().is_empty());
        db.execute("SET slow_query_cost_threshold = 1").unwrap();
        db.execute("SELECT COUNT(*) FROM ev").unwrap();
        let log = db.slow_query_log();
        assert_eq!(log.len(), 1);
        let event = aimdb_common::json::Json::parse(&log[0]).expect("valid json");
        assert!(event
            .field("label")
            .and_then(aimdb_common::json::Json::as_str)
            .unwrap()
            .contains("SELECT COUNT(*)"));
        assert!(event.field("cost_units").unwrap().as_f64().unwrap() >= 1.0);
    }

    #[test]
    fn two_filters_in_one_plan_keep_separate_counters() {
        let db = observability_fixture();
        // one worker, so each scan node reports under one (node, worker) key
        db.execute("SET exec_parallelism = 1").unwrap();
        // self-join where both sides carry a filter: two seq_scan nodes
        // with embedded predicates at distinct node ids
        db.execute("SELECT a.id FROM ev a, ev b WHERE a.id = b.id AND a.amt > 10.0 AND b.grp = 1")
            .unwrap();
        let scans: Vec<_> = db
            .metrics
            .operator_stats()
            .into_iter()
            .filter(|((name, _, _), _)| *name == "seq_scan")
            .collect();
        assert!(scans.len() >= 2, "scans merged: {scans:?}");
        let nodes: std::collections::HashSet<usize> =
            scans.iter().map(|((_, node, _), _)| *node).collect();
        assert_eq!(nodes.len(), scans.len(), "node ids collide");
    }
}
