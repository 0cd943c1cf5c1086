//! What a workload is, and the one interface its operations talk
//! through.
//!
//! A workload owns its schema, loader, operation generator and oracle.
//! Operations are written once against [`Conn`]; the wire driver
//! ([`crate::driver`]) and the in-process probe ([`crate::probe`])
//! implement it, so the probe replays exactly the statement stream the
//! clients send.

use aimdb_common::{AimError, Value};
use aimdb_engine::{Database, QueryResult};

/// One statement as the client would send it.
#[derive(Debug, Clone)]
pub enum Req {
    /// A `Query` frame carrying SQL text.
    Query(String),
    /// An `Execute` frame for a statement registered by `Parse`.
    Execute {
        name: &'static str,
        params: Vec<Value>,
    },
}

/// Why a statement did not return a result.
#[derive(Debug)]
pub enum StmtError {
    /// The engine answered with an error frame.
    Db(AimError),
    /// The admission gate shed the statement.
    Shed,
}

/// A prepared statement the workload's clients register before the run.
#[derive(Debug, Clone, Copy)]
pub struct PreparedSql {
    pub name: &'static str,
    pub sql: &'static str,
}

/// The path between an operation and the database.
pub trait Conn {
    /// Send one statement and wait for its reply.
    fn stmt(&mut self, req: &Req) -> Result<QueryResult, StmtError>;
    /// The operation is starting another attempt (after a retryable
    /// error). The first attempt is implicit.
    fn retry(&mut self);
}

/// How one operation ended. A wrong answer is not an outcome: it is an
/// `Err(String)` that aborts the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpDone {
    /// Index into [`Workload::classes`].
    pub class: usize,
    /// False when the retry budget ran out, the statement was shed, or a
    /// non-retryable error came back.
    pub ok: bool,
}

/// Per-client generator state: a seeded stream of operations.
pub trait ClientState: Send {
    /// Once per connection, before warm-up: fetch whatever the oracle
    /// needs from the server (prepared statements are registered by the
    /// driver from [`Workload::prepared`]).
    fn warm(&mut self, _conn: &mut dyn Conn) -> Result<(), String> {
        Ok(())
    }

    /// Generate, run and verify the next operation.
    fn next_op(&mut self, conn: &mut dyn Conn) -> Result<OpDone, String>;

    /// Write workloads only: run one write transaction's body and roll it
    /// back, so the probe can time `ROLLBACK`.
    fn aborted_op(&mut self, _conn: &mut dyn Conn) -> Result<(), String> {
        Ok(())
    }
}

/// What set-up measured besides its own duration.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadInfo {
    /// Encoded bytes of the rows loaded (8 per INT/FLOAT, text length per
    /// TEXT) — the denominator of `storage.space_amp`.
    pub user_bytes: u64,
    /// Milliseconds inside `CREATE MODEL` (0 without models).
    pub train_ms: f64,
}

pub trait Workload: Send + Sync {
    fn name(&self) -> &'static str;
    /// Op classes: one transaction type / query shape each.
    fn classes(&self) -> &'static [&'static str];
    /// True when no operation writes (the probe can then re-run every
    /// statement piecewise).
    fn read_only(&self) -> bool;
    fn prepared(&self) -> &'static [PreparedSql] {
        &[]
    }
    /// DDL, seeded load, `ANALYZE`, models. Called on a fresh database.
    fn load(&self, db: &Database) -> Result<LoadInfo, String>;
    /// A client's generator; `client` distinguishes the streams.
    fn client(&self, client: usize) -> Box<dyn ClientState>;
    /// Checks on the database after the run (in-process, not measured).
    /// Also run on the recovered database by the durability check.
    fn check(&self, _db: &Database) -> Result<(), String> {
        Ok(())
    }
    /// User bytes added since load, for `storage.space_amp`.
    fn grown_bytes(&self, _db: &Database) -> Result<u64, String> {
        Ok(0)
    }
    /// Per-layer numbers only this workload can measure, by metric name
    /// (in-process, on the quiesced database).
    fn extra_probe(&self, _db: &Database) -> Result<Vec<(&'static str, f64)>, String> {
        Ok(Vec::new())
    }
}

/// Accumulates rows for `insert_rows` in batches and sums user bytes.
pub struct Loader<'a> {
    db: &'a Database,
    batch: usize,
    pub user_bytes: u64,
}

impl<'a> Loader<'a> {
    pub fn new(db: &'a Database, batch: usize) -> Loader<'a> {
        Loader {
            db,
            batch,
            user_bytes: 0,
        }
    }

    pub fn ddl(&self, statements: &[&str]) -> Result<(), String> {
        for sql in statements {
            self.db
                .execute(sql)
                .map_err(|e| format!("ddl ({e}): {sql}"))?;
        }
        Ok(())
    }

    pub fn insert(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<(), String> {
        self.user_bytes += rows.iter().flatten().map(value_bytes).sum::<u64>();
        let mut rows = rows;
        while !rows.is_empty() {
            let rest = rows.split_off(rows.len().min(self.batch));
            self.db
                .insert_rows(table, rows)
                .map_err(|e| format!("load {table}: {e}"))?;
            rows = rest;
        }
        Ok(())
    }
}

fn value_bytes(v: &Value) -> u64 {
    match v {
        Value::Text(s) => s.len() as u64,
        Value::Null => 0,
        _ => 8,
    }
}

/// Integer view of a scalar cell; aggregates may widen to float, and
/// every integer this benchmark stores is exact there.
pub fn cell_i64(v: &Value) -> Option<i64> {
    match v {
        Value::Int(n) => Some(*n),
        Value::Float(f) if f.fract() == 0.0 => Some(*f as i64),
        _ => None,
    }
}

/// In-process integer rows for the oracles (NULL reads as 0).
pub fn int_rows(db: &Database, sql: &str) -> Result<Vec<Vec<i64>>, String> {
    let r = db
        .execute(sql)
        .map_err(|e| format!("oracle ({e}): {sql}"))?;
    r.rows()
        .iter()
        .map(|row| {
            row.values()
                .iter()
                .map(|v| match v {
                    Value::Null => Ok(0),
                    v => cell_i64(v).ok_or_else(|| format!("oracle: non-int {v:?} from {sql}")),
                })
                .collect()
        })
        .collect()
}

pub fn int_scalar(db: &Database, sql: &str) -> Result<i64, String> {
    int_rows(db, sql)?
        .first()
        .and_then(|r| r.first().copied())
        .ok_or_else(|| format!("oracle: empty result from {sql}"))
}
