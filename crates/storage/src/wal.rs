//! Durable write-ahead log with LSNs, CRC-checked framing, and a
//! pluggable sink.
//!
//! Every record is serialized as `[len:u32][crc:u32][lsn:u64][payload]`
//! (little-endian), where the CRC-32 covers the LSN and the payload. The
//! framing makes torn tails detectable at recovery: parsing stops at the
//! first record whose length runs past the stream or whose checksum fails,
//! and everything before it is trusted.
//!
//! Records flow through a [`WalSink`]. [`MemSink`] is instantly durable
//! (the pre-durability behavior, used by unit tests); [`DiskSink`] buffers
//! appends and pushes them to a [`PageStore`]'s log area on [`Wal::flush`]
//! — the fsync barrier. Unflushed bytes are what a crash loses. Commit
//! records trigger a flush when `sync_on_commit` is set (the `wal_sync`
//! knob); checkpoint and DDL records always flush.
//!
//! The sink's bytes are the only copy of the log: [`Wal`] keeps counters,
//! not records. Live rollback reverses the transaction's MVCC write-set
//! (the engine's job); recovery streams the durable bytes through a
//! [`WalReader`].
//!
//! The log is cut at every checkpoint: once a `Checkpoint` record is
//! durable nothing before its frame is needed again, so [`Wal::append`]
//! asks the sink to drop that prefix ([`WalSink::drop_prefix`], one atomic
//! segment switch on the store). A durable log therefore begins with its
//! last checkpoint, or — before the first one, or on a store that cannot
//! cut — with its first record.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use aimdb_common::{wait, LockRank};
use bytes::{Buf, BufMut};
use parking_lot::{Condvar, Mutex};

use aimdb_common::{AimError, Result, Row, Schema};

use crate::codec::{decode_row, encode_row};
use crate::disk::PageStore;
use crate::heap::RowId;
use crate::page::PageId;

/// Transaction identifier. Id 0 is reserved for non-transactional records
/// (DDL, checkpoints), which recovery treats as always committed.
pub type TxnId = u64;

/// Logical snapshot of one table inside a checkpoint record.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSnapshot {
    pub name: String,
    pub schema: Schema,
    pub rows: Vec<Row>,
}

/// Logical description of one secondary index inside a checkpoint record.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexSnapshot {
    pub name: String,
    pub table: String,
    pub column: String,
}

/// A quiescent checkpoint: the full logical database state at a moment
/// when no transaction was open. Recovery restores the latest intact
/// checkpoint and replays only the records after it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CheckpointData {
    /// First transaction id safe to hand out after recovery.
    pub next_txn: TxnId,
    pub tables: Vec<TableSnapshot>,
    pub indexes: Vec<IndexSnapshot>,
}

/// One log record. Data records carry full images because redo is
/// value-based: row ids are reassigned when tables are rebuilt at
/// recovery, so a delete or update finds its victim by before-image and
/// writes the after-image.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    Begin {
        txn: TxnId,
    },
    Insert {
        txn: TxnId,
        table: String,
        rid: RowId,
        row: Row,
    },
    Delete {
        txn: TxnId,
        table: String,
        rid: RowId,
        before: Row,
    },
    Update {
        txn: TxnId,
        table: String,
        old_rid: RowId,
        new_rid: RowId,
        before: Row,
        after: Row,
    },
    Commit {
        txn: TxnId,
    },
    Abort {
        txn: TxnId,
    },
    CreateTable {
        name: String,
        schema: Schema,
    },
    DropTable {
        name: String,
    },
    CreateIndex {
        name: String,
        table: String,
        column: String,
    },
    DropIndex {
        name: String,
    },
    Checkpoint(Box<CheckpointData>),
}

impl LogRecord {
    /// The owning transaction; 0 for non-transactional records.
    pub fn txn(&self) -> TxnId {
        match self {
            LogRecord::Begin { txn }
            | LogRecord::Insert { txn, .. }
            | LogRecord::Delete { txn, .. }
            | LogRecord::Update { txn, .. }
            | LogRecord::Commit { txn }
            | LogRecord::Abort { txn } => *txn,
            _ => 0,
        }
    }

    /// Whether this record must reach durable storage as soon as it is
    /// appended regardless of the `wal_sync` setting (DDL, checkpoints).
    fn always_flush(&self) -> bool {
        matches!(
            self,
            LogRecord::CreateTable { .. }
                | LogRecord::DropTable { .. }
                | LogRecord::CreateIndex { .. }
                | LogRecord::DropIndex { .. }
                | LogRecord::Checkpoint(_)
        )
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) — one byte per step
// through a 256-entry table built at compile time.

const CRC_POLY: u32 = 0xEDB8_8320;

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Feed `bytes` into a running CRC-32 register (start from `!0`, finish
/// with `!`), so a checksum can span several slices without joining them.
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// A frame's checksum: CRC-32 over `lsn_le ++ payload`.
fn frame_crc(lsn: u64, payload: &[u8]) -> u32 {
    !crc32_update(crc32_update(!0, &lsn.to_le_bytes()), payload)
}

// ---------------------------------------------------------------------------
// Record payload codec.

const KIND_BEGIN: u8 = 0;
const KIND_INSERT: u8 = 1;
const KIND_DELETE: u8 = 2;
const KIND_UPDATE: u8 = 3;
const KIND_COMMIT: u8 = 4;
const KIND_ABORT: u8 = 5;
const KIND_CREATE_TABLE: u8 = 6;
const KIND_DROP_TABLE: u8 = 7;
const KIND_CREATE_INDEX: u8 = 8;
const KIND_DROP_INDEX: u8 = 9;
const KIND_CHECKPOINT: u8 = 10;

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.put_u32_le(s.len() as u32);
    out.put_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> Result<String> {
    let n = get_u32(buf)? as usize;
    if buf.remaining() < n {
        return Err(AimError::Storage("wal: truncated string".into()));
    }
    let s = String::from_utf8(buf[..n].to_vec())
        .map_err(|_| AimError::Storage("wal: invalid utf-8".into()))?;
    buf.advance(n);
    Ok(s)
}

fn get_u32(buf: &mut &[u8]) -> Result<u32> {
    if buf.remaining() < 4 {
        return Err(AimError::Storage("wal: truncated u32".into()));
    }
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut &[u8]) -> Result<u64> {
    if buf.remaining() < 8 {
        return Err(AimError::Storage("wal: truncated u64".into()));
    }
    Ok(buf.get_u64_le())
}

fn get_u8(buf: &mut &[u8]) -> Result<u8> {
    if buf.remaining() < 1 {
        return Err(AimError::Storage("wal: truncated byte".into()));
    }
    Ok(buf.get_u8())
}

fn put_rid(out: &mut Vec<u8>, rid: RowId) {
    out.put_u64_le(rid.page.0);
    out.put_u32_le(rid.slot as u32);
}

fn get_rid(buf: &mut &[u8]) -> Result<RowId> {
    let page = PageId(get_u64(buf)?);
    let slot = get_u32(buf)? as u16;
    Ok(RowId { page, slot })
}

fn put_row(out: &mut Vec<u8>, row: &Row) {
    let bytes = encode_row(row);
    out.put_u32_le(bytes.len() as u32);
    out.put_slice(&bytes);
}

fn get_row(buf: &mut &[u8]) -> Result<Row> {
    let n = get_u32(buf)? as usize;
    if buf.remaining() < n {
        return Err(AimError::Storage("wal: truncated row".into()));
    }
    let row = decode_row(&buf[..n])?;
    buf.advance(n);
    Ok(row)
}

fn put_schema(out: &mut Vec<u8>, schema: &Schema) {
    out.put_u32_le(schema.len() as u32);
    for col in schema.columns() {
        put_str(out, &col.name);
        out.put_u8(match col.data_type {
            aimdb_common::DataType::Int => 0,
            aimdb_common::DataType::Float => 1,
            aimdb_common::DataType::Text => 2,
            aimdb_common::DataType::Bool => 3,
        });
        out.put_u8(col.nullable as u8);
    }
}

fn get_schema(buf: &mut &[u8]) -> Result<Schema> {
    let n = get_u32(buf)? as usize;
    let mut cols = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let name = get_str(buf)?;
        let dt = match get_u8(buf)? {
            0 => aimdb_common::DataType::Int,
            1 => aimdb_common::DataType::Float,
            2 => aimdb_common::DataType::Text,
            3 => aimdb_common::DataType::Bool,
            other => {
                return Err(AimError::Storage(format!("wal: bad data type tag {other}")));
            }
        };
        let mut col = aimdb_common::Column::new(name, dt);
        if get_u8(buf)? == 0 {
            col = col.not_null();
        }
        cols.push(col);
    }
    Ok(Schema::new(cols))
}

/// Serialize a record's payload (kind byte + body, no framing).
pub fn encode_record(rec: &LogRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match rec {
        LogRecord::Begin { txn } => {
            out.put_u8(KIND_BEGIN);
            out.put_u64_le(*txn);
        }
        LogRecord::Insert {
            txn,
            table,
            rid,
            row,
        } => {
            out.put_u8(KIND_INSERT);
            out.put_u64_le(*txn);
            put_str(&mut out, table);
            put_rid(&mut out, *rid);
            put_row(&mut out, row);
        }
        LogRecord::Delete {
            txn,
            table,
            rid,
            before,
        } => {
            out.put_u8(KIND_DELETE);
            out.put_u64_le(*txn);
            put_str(&mut out, table);
            put_rid(&mut out, *rid);
            put_row(&mut out, before);
        }
        LogRecord::Update {
            txn,
            table,
            old_rid,
            new_rid,
            before,
            after,
        } => {
            out.put_u8(KIND_UPDATE);
            out.put_u64_le(*txn);
            put_str(&mut out, table);
            put_rid(&mut out, *old_rid);
            put_rid(&mut out, *new_rid);
            put_row(&mut out, before);
            put_row(&mut out, after);
        }
        LogRecord::Commit { txn } => {
            out.put_u8(KIND_COMMIT);
            out.put_u64_le(*txn);
        }
        LogRecord::Abort { txn } => {
            out.put_u8(KIND_ABORT);
            out.put_u64_le(*txn);
        }
        LogRecord::CreateTable { name, schema } => {
            out.put_u8(KIND_CREATE_TABLE);
            put_str(&mut out, name);
            put_schema(&mut out, schema);
        }
        LogRecord::DropTable { name } => {
            out.put_u8(KIND_DROP_TABLE);
            put_str(&mut out, name);
        }
        LogRecord::CreateIndex {
            name,
            table,
            column,
        } => {
            out.put_u8(KIND_CREATE_INDEX);
            put_str(&mut out, name);
            put_str(&mut out, table);
            put_str(&mut out, column);
        }
        LogRecord::DropIndex { name } => {
            out.put_u8(KIND_DROP_INDEX);
            put_str(&mut out, name);
        }
        LogRecord::Checkpoint(data) => {
            out.put_u8(KIND_CHECKPOINT);
            out.put_u64_le(data.next_txn);
            out.put_u32_le(data.tables.len() as u32);
            for t in &data.tables {
                put_str(&mut out, &t.name);
                put_schema(&mut out, &t.schema);
                out.put_u32_le(t.rows.len() as u32);
                for row in &t.rows {
                    put_row(&mut out, row);
                }
            }
            out.put_u32_le(data.indexes.len() as u32);
            for idx in &data.indexes {
                put_str(&mut out, &idx.name);
                put_str(&mut out, &idx.table);
                put_str(&mut out, &idx.column);
            }
        }
    }
    out
}

/// Parse one record payload (the inverse of [`encode_record`]).
pub fn decode_record(payload: &[u8]) -> Result<LogRecord> {
    let mut buf = payload;
    let rec = match get_u8(&mut buf)? {
        KIND_BEGIN => LogRecord::Begin {
            txn: get_u64(&mut buf)?,
        },
        KIND_INSERT => LogRecord::Insert {
            txn: get_u64(&mut buf)?,
            table: get_str(&mut buf)?,
            rid: get_rid(&mut buf)?,
            row: get_row(&mut buf)?,
        },
        KIND_DELETE => LogRecord::Delete {
            txn: get_u64(&mut buf)?,
            table: get_str(&mut buf)?,
            rid: get_rid(&mut buf)?,
            before: get_row(&mut buf)?,
        },
        KIND_UPDATE => LogRecord::Update {
            txn: get_u64(&mut buf)?,
            table: get_str(&mut buf)?,
            old_rid: get_rid(&mut buf)?,
            new_rid: get_rid(&mut buf)?,
            before: get_row(&mut buf)?,
            after: get_row(&mut buf)?,
        },
        KIND_COMMIT => LogRecord::Commit {
            txn: get_u64(&mut buf)?,
        },
        KIND_ABORT => LogRecord::Abort {
            txn: get_u64(&mut buf)?,
        },
        KIND_CREATE_TABLE => LogRecord::CreateTable {
            name: get_str(&mut buf)?,
            schema: get_schema(&mut buf)?,
        },
        KIND_DROP_TABLE => LogRecord::DropTable {
            name: get_str(&mut buf)?,
        },
        KIND_CREATE_INDEX => LogRecord::CreateIndex {
            name: get_str(&mut buf)?,
            table: get_str(&mut buf)?,
            column: get_str(&mut buf)?,
        },
        KIND_DROP_INDEX => LogRecord::DropIndex {
            name: get_str(&mut buf)?,
        },
        KIND_CHECKPOINT => {
            let next_txn = get_u64(&mut buf)?;
            let ntables = get_u32(&mut buf)? as usize;
            let mut tables = Vec::with_capacity(ntables.min(1024));
            for _ in 0..ntables {
                let name = get_str(&mut buf)?;
                let schema = get_schema(&mut buf)?;
                let nrows = get_u32(&mut buf)? as usize;
                let mut rows = Vec::with_capacity(nrows.min(65536));
                for _ in 0..nrows {
                    rows.push(get_row(&mut buf)?);
                }
                tables.push(TableSnapshot { name, schema, rows });
            }
            let nidx = get_u32(&mut buf)? as usize;
            let mut indexes = Vec::with_capacity(nidx.min(1024));
            for _ in 0..nidx {
                indexes.push(IndexSnapshot {
                    name: get_str(&mut buf)?,
                    table: get_str(&mut buf)?,
                    column: get_str(&mut buf)?,
                });
            }
            LogRecord::Checkpoint(Box::new(CheckpointData {
                next_txn,
                tables,
                indexes,
            }))
        }
        other => {
            return Err(AimError::Storage(format!(
                "wal: unknown record kind {other}"
            )))
        }
    };
    if buf.remaining() != 0 {
        return Err(AimError::Storage(format!(
            "wal: {} trailing bytes after record",
            buf.remaining()
        )));
    }
    Ok(rec)
}

/// Frame a record for the byte stream: `[len][crc][lsn][payload]`.
pub fn frame_record(lsn: u64, rec: &LogRecord) -> Vec<u8> {
    let payload = encode_record(rec);
    let mut out = Vec::with_capacity(16 + payload.len());
    out.put_u32_le(payload.len() as u32);
    out.put_u32_le(frame_crc(lsn, &payload));
    out.put_u64_le(lsn);
    out.put_slice(&payload);
    out
}

/// Streaming reader over a durable WAL byte stream: yields the intact
/// records in log order with their LSNs, one decoded record at a time,
/// and ends at the first torn or corrupt frame. Everything before the
/// damage is trusted; the damaged tail is counted, not decoded.
pub struct WalReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> WalReader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        WalReader { bytes, pos: 0 }
    }

    /// Bytes not consumed. Once the iterator has returned `None` this is
    /// the torn/corrupt tail (0 if the log ended cleanly).
    pub fn corrupt_tail_bytes(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

impl Iterator for WalReader<'_> {
    type Item = (u64, LogRecord);

    fn next(&mut self) -> Option<(u64, LogRecord)> {
        let rest = &self.bytes[self.pos..];
        if rest.len() < 16 {
            return None; // clean end, or torn header
        }
        let mut hdr = rest;
        let len = hdr.get_u32_le() as usize;
        let crc = hdr.get_u32_le();
        let lsn = hdr.get_u64_le();
        if rest.len() < 16 + len {
            return None; // torn payload
        }
        let payload = &rest[16..16 + len];
        if frame_crc(lsn, payload) != crc {
            return None; // bit rot / torn write inside the frame
        }
        let rec = decode_record(payload).ok()?;
        self.pos += 16 + len;
        Some((lsn, rec))
    }
}

/// A whole durable WAL byte stream, decoded.
#[derive(Debug, Default)]
pub struct WalScan {
    /// Intact records in log order, with their LSNs.
    pub records: Vec<(u64, LogRecord)>,
    /// Bytes dropped at the tail (torn/corrupt final write), 0 if clean.
    pub corrupt_tail_bytes: usize,
}

/// [`WalReader`] collected: every intact record of the log at once. For
/// tests and tools that want the full history; recovery folds over the
/// reader instead.
pub fn scan_wal(bytes: &[u8]) -> WalScan {
    let mut reader = WalReader::new(bytes);
    let records = reader.by_ref().collect();
    WalScan {
        records,
        corrupt_tail_bytes: reader.corrupt_tail_bytes(),
    }
}

// ---------------------------------------------------------------------------
// Sinks.

/// Where framed WAL bytes go. `append` may buffer; `flush` is the
/// durability barrier. `durable_bytes` returns only what would survive a
/// crash right now.
pub trait WalSink: Send + Sync {
    fn append(&self, bytes: &[u8]) -> Result<()>;
    fn flush(&self) -> Result<()>;
    /// Bytes appended but not yet flushed (lost by a crash).
    fn buffered(&self) -> usize;
    fn durable_bytes(&self) -> Result<Vec<u8>>;
    /// Length of the durable byte stream.
    fn durable_len(&self) -> usize;
    /// Atomically discard the first `n` durable bytes; returns how many
    /// went (0 from a sink whose store cannot cut its log).
    fn drop_prefix(&self, n: usize) -> Result<usize>;
}

/// Instantly durable in-memory sink (unit tests, ephemeral databases).
pub struct MemSink {
    bytes: Mutex<Vec<u8>>,
}

impl Default for MemSink {
    fn default() -> Self {
        MemSink::new()
    }
}

impl MemSink {
    pub fn new() -> Self {
        MemSink {
            bytes: Mutex::with_rank(Vec::new(), LockRank::WalSink),
        }
    }
}

impl WalSink for MemSink {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        self.bytes.lock().extend_from_slice(bytes);
        Ok(())
    }

    fn flush(&self) -> Result<()> {
        Ok(())
    }

    fn buffered(&self) -> usize {
        0
    }

    fn durable_bytes(&self) -> Result<Vec<u8>> {
        Ok(self.bytes.lock().clone())
    }

    fn durable_len(&self) -> usize {
        self.bytes.lock().len()
    }

    fn drop_prefix(&self, n: usize) -> Result<usize> {
        let mut bytes = self.bytes.lock();
        let n = n.min(bytes.len());
        bytes.drain(..n);
        Ok(n)
    }
}

/// Sink backed by a [`PageStore`]'s log area. Appends buffer in memory;
/// `flush` performs one durable `wal_append` with everything buffered —
/// the unit a fault injector can tear.
pub struct DiskSink {
    store: Arc<dyn PageStore>,
    buf: Mutex<Vec<u8>>,
}

impl DiskSink {
    pub fn new(store: Arc<dyn PageStore>) -> Self {
        DiskSink {
            store,
            buf: Mutex::with_rank(Vec::new(), LockRank::WalSink),
        }
    }
}

impl WalSink for DiskSink {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        self.buf.lock().extend_from_slice(bytes);
        Ok(())
    }

    fn flush(&self) -> Result<()> {
        let mut buf = self.buf.lock();
        if buf.is_empty() {
            return Ok(());
        }
        self.store.wal_append(&buf)?;
        buf.clear();
        Ok(())
    }

    fn buffered(&self) -> usize {
        self.buf.lock().len()
    }

    fn durable_bytes(&self) -> Result<Vec<u8>> {
        self.store.wal_bytes()
    }

    fn durable_len(&self) -> usize {
        self.store.wal_len()
    }

    fn drop_prefix(&self, n: usize) -> Result<usize> {
        self.store.wal_drop_prefix(n)
    }
}

// ---------------------------------------------------------------------------
// The log itself.

/// Counters only: appended records live in the sink's bytes.
struct WalInner {
    next_lsn: u64,
    since_checkpoint: u64,
    /// Cumulative count of commit records ever appended (group-commit
    /// batch accounting).
    commits_appended: u64,
    /// Bytes the sink holds, durable and buffered: the offset the next
    /// frame lands at, counted from the start of the durable log.
    sink_len: usize,
    /// LSN and frame offset of the last checkpoint appended, until the
    /// log has been cut there.
    uncut_checkpoint: Option<(u64, usize)>,
}

/// Group-commit coordination. One thread at a time is the flush leader;
/// everyone else whose record is already buffered parks on the condvar
/// and rides the leader's single sink flush.
struct GroupState {
    /// Highest LSN known durable (covered by a successful flush).
    durable_lsn: u64,
    /// Commit records covered by successful flushes so far.
    durable_commits: u64,
    /// A leader is currently flushing.
    flush_in_progress: bool,
    /// Completed flush attempts (success or failure) — wakes followers.
    attempts: u64,
}

/// Called after each durable group flush with the number of commit
/// records the flush made durable (the batch size).
pub type FlushObserver = Box<dyn Fn(u64) + Send + Sync>;

/// The write-ahead log: serializes records through a sink and keeps
/// nothing of them but counters. Commit flushes go through a group-commit
/// protocol: the first committer becomes leader, optionally waits
/// `group_window_us` for followers to queue their records, then performs
/// one sink flush on behalf of everyone buffered.
pub struct Wal {
    sink: Box<dyn WalSink>,
    sync_on_commit: AtomicBool,
    /// Microseconds a group-commit leader waits before flushing.
    group_window_us: AtomicU64,
    /// Successful flushes that pushed bytes to the store — the fsync count.
    flushes: AtomicU64,
    inner: Mutex<WalInner>,
    group: Mutex<GroupState>,
    group_cv: Condvar,
    flush_observer: Mutex<Option<FlushObserver>>,
}

impl Default for Wal {
    fn default() -> Self {
        Wal::new()
    }
}

impl Wal {
    /// An instantly-durable in-memory WAL.
    pub fn new() -> Self {
        Wal::with_sink(Box::new(MemSink::new()))
    }

    /// A log that continues whatever `sink` already holds durably.
    pub fn with_sink(sink: Box<dyn WalSink>) -> Self {
        let sink_len = sink.durable_len();
        Wal {
            sink,
            sync_on_commit: AtomicBool::new(true),
            group_window_us: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            inner: Mutex::with_rank(
                WalInner {
                    next_lsn: 1,
                    since_checkpoint: 0,
                    commits_appended: 0,
                    sink_len,
                    uncut_checkpoint: None,
                },
                LockRank::WalInner,
            ),
            group: Mutex::with_rank(
                GroupState {
                    durable_lsn: 0,
                    durable_commits: 0,
                    flush_in_progress: false,
                    attempts: 0,
                },
                LockRank::WalGroup,
            ),
            group_cv: Condvar::new(),
            flush_observer: Mutex::with_rank(None, LockRank::WalFlushObserver),
        }
    }

    /// Set the group-commit window: how long (µs) a flush leader waits
    /// for follower commits to queue before the shared flush. 0 keeps
    /// single-committer latency unchanged (flush immediately, but still
    /// absorb whatever queued concurrently).
    pub fn set_group_window_us(&self, us: u64) {
        // ordering: Relaxed — an isolated tuning knob; no other memory is
        // published with it, and a stale read merely changes batching.
        self.group_window_us.store(us, Ordering::Relaxed);
    }

    pub fn group_window_us(&self) -> u64 {
        // ordering: Relaxed — see set_group_window_us.
        self.group_window_us.load(Ordering::Relaxed)
    }

    /// Successful buffer-pushing flushes so far — the fsync count a
    /// group-commit benchmark compares against committed transactions.
    pub fn flush_count(&self) -> u64 {
        // ordering: Relaxed — statistics counter; durability decisions
        // never read it, only benchmarks and tests do.
        self.flushes.load(Ordering::Relaxed)
    }

    /// Highest LSN known durable.
    pub fn durable_lsn(&self) -> u64 {
        self.group.lock().durable_lsn
    }

    /// Install a callback invoked with each durable group's commit-record
    /// count (batch size). Used by the engine to feed its metrics
    /// histograms without a storage→trace dependency.
    pub fn set_flush_observer(&self, obs: FlushObserver) {
        *self.flush_observer.lock() = Some(obs);
    }

    /// Wait (or lead) until every record with LSN ≤ `lsn` is durable.
    /// The calling thread either becomes the flush leader — waiting
    /// `window_us` for followers, then flushing the sink once for the
    /// whole group — or parks until a leader's flush covers its LSN.
    fn group_commit(&self, lsn: u64, window_us: u64) -> Result<()> {
        let mut g = self.group.lock();
        loop {
            if g.durable_lsn >= lsn {
                return Ok(());
            }
            if g.flush_in_progress {
                // Follower: ride out the in-flight attempt, then re-check.
                // Parked time is a GroupCommitFollower wait.
                let wait = wait::enter(wait::WaitClass::GroupCommitFollower);
                let attempt = g.attempts;
                while g.flush_in_progress && g.attempts == attempt {
                    self.group_cv.wait(&mut g);
                }
                drop(wait);
                continue;
            }
            // Leader.
            g.flush_in_progress = true;
            drop(g);
            // The batching window plus the single sink flush is the
            // leader's WalFsync wait — durability stall, not cpu.
            let fsync_wait = wait::enter(wait::WaitClass::WalFsync);
            if window_us > 0 {
                std::thread::sleep(Duration::from_micros(window_us));
            }
            // Everything appended before this capture rides this flush.
            let (high, high_commits) = {
                let inner = self.inner.lock();
                (inner.next_lsn - 1, inner.commits_appended)
            };
            let had_bytes = self.sink.buffered() > 0;
            let res = self.sink.flush();
            drop(fsync_wait);
            let mut g = self.group.lock();
            g.flush_in_progress = false;
            g.attempts += 1;
            let batch = if res.is_ok() {
                g.durable_lsn = g.durable_lsn.max(high);
                let batch = high_commits.saturating_sub(g.durable_commits);
                g.durable_commits = g.durable_commits.max(high_commits);
                if had_bytes {
                    // ordering: Relaxed — statistics counter; the durable
                    // state it describes is guarded by the group lock.
                    self.flushes.fetch_add(1, Ordering::Relaxed);
                }
                batch
            } else {
                0
            };
            drop(g);
            self.group_cv.notify_all();
            res?;
            if batch > 0 {
                if let Some(obs) = self.flush_observer.lock().as_ref() {
                    obs(batch);
                }
            }
            return Ok(());
        }
    }

    /// Whether commit records force a flush (the `wal_sync` knob).
    pub fn set_sync_on_commit(&self, on: bool) {
        // ordering: Relaxed — a durability-policy flag read at the top of
        // each append; it gates behavior, it does not publish data.
        self.sync_on_commit.store(on, Ordering::Relaxed);
    }

    pub fn sync_on_commit(&self) -> bool {
        // ordering: Relaxed — see set_sync_on_commit.
        self.sync_on_commit.load(Ordering::Relaxed)
    }

    /// Append a record, returning its LSN. Commit records flush through
    /// the group-commit protocol when `sync_on_commit` is set; DDL and
    /// checkpoint records always flush (with no batching window), and a
    /// checkpoint that flushed cuts the log in front of itself.
    pub fn append(&self, rec: LogRecord) -> Result<u64> {
        let is_commit = matches!(rec, LogRecord::Commit { .. });
        let is_checkpoint = matches!(rec, LogRecord::Checkpoint(_));
        // ordering: Relaxed — policy flag; see set_sync_on_commit.
        let flush =
            rec.always_flush() || (is_commit && self.sync_on_commit.load(Ordering::Relaxed));
        let lsn;
        {
            let mut inner = self.inner.lock();
            lsn = inner.next_lsn;
            inner.next_lsn += 1;
            let frame = frame_record(lsn, &rec);
            self.sink.append(&frame)?;
            if is_checkpoint {
                inner.since_checkpoint = 0;
                inner.uncut_checkpoint = Some((lsn, inner.sink_len));
            } else {
                inner.since_checkpoint += 1;
            }
            inner.sink_len += frame.len();
            if is_commit {
                inner.commits_appended += 1;
            }
        }
        if flush {
            let window = if is_commit {
                // ordering: Relaxed — tuning knob; see set_group_window_us.
                self.group_window_us.load(Ordering::Relaxed)
            } else {
                0
            };
            self.group_commit(lsn, window)?;
            if is_checkpoint {
                self.cut_before_checkpoint(lsn)?;
            }
        }
        Ok(lsn)
    }

    /// Drop every durable byte in front of the checkpoint frame `lsn`,
    /// which the caller has just seen flushed. The frame's offset is
    /// below the durable length, so only durable bytes go; frames behind
    /// it keep their order and move down by what the sink says it dropped
    /// — nothing, on a store that cannot cut, and then the offsets stand.
    /// A checkpoint appended since owns the cut instead (it may not be
    /// durable yet, and this one is about to be redundant).
    fn cut_before_checkpoint(&self, lsn: u64) -> Result<()> {
        let mut inner = self.inner.lock();
        if let Some((cp_lsn, at)) = inner.uncut_checkpoint {
            if cp_lsn == lsn {
                inner.uncut_checkpoint = None;
                inner.sink_len -= self.sink.drop_prefix(at)?;
            }
        }
        Ok(())
    }

    /// Durability barrier: push buffered bytes to the sink's backing
    /// store, keeping the group-commit watermark consistent.
    pub fn flush(&self) -> Result<()> {
        let high = self.inner.lock().next_lsn - 1;
        if high == 0 {
            return self.sink.flush();
        }
        self.group_commit(high, 0)
    }

    /// Bytes appended but not yet durable.
    pub fn buffered(&self) -> usize {
        self.sink.buffered()
    }

    /// The durable byte stream (what recovery would see).
    pub fn durable_bytes(&self) -> Result<Vec<u8>> {
        self.sink.durable_bytes()
    }

    /// Records appended since the last checkpoint record.
    pub fn records_since_checkpoint(&self) -> u64 {
        self.inner.lock().since_checkpoint
    }

    pub fn next_lsn(&self) -> u64 {
        self.inner.lock().next_lsn
    }

    /// Records appended so far (checkpoints included).
    pub fn len(&self) -> usize {
        (self.inner.lock().next_lsn - 1) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimdb_common::{DataType, Value};

    fn rid(p: u64, s: u16) -> RowId {
        RowId {
            page: PageId(p),
            slot: s,
        }
    }

    fn row(i: i64) -> Row {
        Row::new(vec![Value::Int(i), Value::Text(format!("r{i}"))])
    }

    fn sample_records() -> Vec<LogRecord> {
        vec![
            LogRecord::CreateTable {
                name: "t".into(),
                schema: Schema::new(vec![
                    aimdb_common::Column::new("id", DataType::Int).not_null(),
                    aimdb_common::Column::new("name", DataType::Text),
                ]),
            },
            LogRecord::Begin { txn: 3 },
            LogRecord::Insert {
                txn: 3,
                table: "t".into(),
                rid: rid(1, 4),
                row: row(42),
            },
            LogRecord::Update {
                txn: 3,
                table: "t".into(),
                old_rid: rid(1, 4),
                new_rid: rid(1, 5),
                before: row(42),
                after: row(43),
            },
            LogRecord::Delete {
                txn: 3,
                table: "t".into(),
                rid: rid(1, 5),
                before: row(43),
            },
            LogRecord::Commit { txn: 3 },
            LogRecord::CreateIndex {
                name: "idx".into(),
                table: "t".into(),
                column: "id".into(),
            },
            LogRecord::DropIndex { name: "idx".into() },
            LogRecord::DropTable { name: "t".into() },
            LogRecord::Abort { txn: 9 },
            LogRecord::Checkpoint(Box::new(CheckpointData {
                next_txn: 10,
                tables: vec![TableSnapshot {
                    name: "t".into(),
                    schema: Schema::from_pairs(&[("id", DataType::Int)]),
                    rows: vec![Row::new(vec![Value::Int(1)]), Row::new(vec![Value::Null])],
                }],
                indexes: vec![IndexSnapshot {
                    name: "idx".into(),
                    table: "t".into(),
                    column: "id".into(),
                }],
            })),
        ]
    }

    #[test]
    fn record_codec_roundtrips_every_kind() {
        for rec in sample_records() {
            let payload = encode_record(&rec);
            assert_eq!(decode_record(&payload).unwrap(), rec, "{rec:?}");
        }
    }

    #[test]
    fn framed_stream_roundtrips() {
        let recs = sample_records();
        let mut bytes = Vec::new();
        for (i, rec) in recs.iter().enumerate() {
            bytes.extend_from_slice(&frame_record(i as u64 + 1, rec));
        }
        let scan = scan_wal(&bytes);
        assert_eq!(scan.corrupt_tail_bytes, 0);
        assert_eq!(scan.records.len(), recs.len());
        for (i, (lsn, rec)) in scan.records.iter().enumerate() {
            assert_eq!(*lsn, i as u64 + 1);
            assert_eq!(rec, &recs[i]);
        }
    }

    #[test]
    fn crc_detects_torn_and_corrupt_tails() {
        let recs = sample_records();
        let mut bytes = Vec::new();
        for (i, rec) in recs.iter().enumerate() {
            bytes.extend_from_slice(&frame_record(i as u64 + 1, rec));
        }
        // torn tail: drop the last 5 bytes
        let torn = &bytes[..bytes.len() - 5];
        let scan = scan_wal(torn);
        assert_eq!(scan.records.len(), recs.len() - 1);
        assert!(scan.corrupt_tail_bytes > 0);
        // bit flip inside the last record's payload
        let mut flipped = bytes.clone();
        let n = flipped.len();
        flipped[n - 1] ^= 0xFF;
        let scan = scan_wal(&flipped);
        assert_eq!(scan.records.len(), recs.len() - 1);
        assert!(scan.corrupt_tail_bytes > 0);
        // records before the damage are untouched
        assert_eq!(scan.records[0].1, recs[0]);
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC-32 of "123456789"
        assert_eq!(!crc32_update(!0, b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }

    /// The bitwise CRC-32 the table replaced: the reference it must match.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    mod crc_props {
        use super::{crc32_bitwise, crc32_update, frame_crc};
        use proptest::prelude::*;

        proptest! {
            // Same checksum as the bitwise reference, whole and split into
            // frame parts, so logs written before the table still read back.
            #[test]
            fn table_crc_matches_bitwise_reference(
                lsn in any::<u64>(),
                payload in prop::collection::vec(any::<u8>(), 0..600),
            ) {
                prop_assert_eq!(!crc32_update(!0, &payload), crc32_bitwise(&payload));
                let mut joined = lsn.to_le_bytes().to_vec();
                joined.extend_from_slice(&payload);
                prop_assert_eq!(frame_crc(lsn, &payload), crc32_bitwise(&joined));
            }
        }
    }

    #[test]
    fn disk_sink_buffers_until_flush() {
        use crate::disk::Disk;
        let disk = Arc::new(Disk::new());
        let wal = Wal::with_sink(Box::new(DiskSink::new(disk.clone())));
        wal.set_sync_on_commit(false);
        wal.append(LogRecord::Begin { txn: 1 }).unwrap();
        wal.append(LogRecord::Commit { txn: 1 }).unwrap();
        assert!(wal.buffered() > 0);
        assert_eq!(disk.wal_len(), 0, "nothing durable before the barrier");
        wal.flush().unwrap();
        assert_eq!(wal.buffered(), 0);
        let scan = scan_wal(&disk.wal_bytes().unwrap());
        assert_eq!(scan.records.len(), 2);
        // sync mode: commit flushes on its own
        wal.set_sync_on_commit(true);
        wal.append(LogRecord::Begin { txn: 2 }).unwrap();
        wal.append(LogRecord::Commit { txn: 2 }).unwrap();
        assert_eq!(wal.buffered(), 0);
        assert_eq!(scan_wal(&disk.wal_bytes().unwrap()).records.len(), 4);
    }

    #[test]
    fn group_commit_batches_concurrent_commits_into_fewer_flushes() {
        use crate::disk::Disk;
        use std::sync::atomic::AtomicU64;

        let disk = Arc::new(Disk::new());
        let wal = Arc::new(Wal::with_sink(Box::new(DiskSink::new(disk.clone()))));
        wal.set_group_window_us(300);
        let batches = Arc::new(Mutex::new(Vec::new()));
        let observed = Arc::clone(&batches);
        wal.set_flush_observer(Box::new(move |b| observed.lock().push(b)));

        const THREADS: u64 = 8;
        const COMMITS: u64 = 20;
        let next = AtomicU64::new(1);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..COMMITS {
                        let txn = next.fetch_add(1, Ordering::Relaxed);
                        wal.append(LogRecord::Begin { txn }).unwrap();
                        wal.append(LogRecord::Commit { txn }).unwrap();
                    }
                });
            }
        });

        let committed = THREADS * COMMITS;
        let flushes = wal.flush_count();
        assert!(flushes >= 1);
        assert!(
            flushes < committed,
            "group commit never batched: {flushes} flushes for {committed} commits"
        );
        let batches = batches.lock();
        assert_eq!(
            batches.iter().sum::<u64>(),
            committed,
            "observer batch sizes must account for every commit exactly once"
        );
        // every Ok commit is durable
        let scan = scan_wal(&disk.wal_bytes().unwrap());
        let durable_commits = scan
            .records
            .iter()
            .filter(|(_, r)| matches!(r, LogRecord::Commit { .. }))
            .count() as u64;
        assert_eq!(durable_commits, committed);
        assert_eq!(scan.corrupt_tail_bytes, 0);
    }

    #[test]
    fn group_commit_failure_surfaces_and_store_stays_usable_after_transient() {
        use crate::disk::Disk;
        use crate::fault::{FaultInjector, FaultPlan};

        // op 1 = CreateTable flush; op 2 = first commit flush fails once.
        let inj = Arc::new(FaultInjector::new(
            Arc::new(Disk::new()),
            FaultPlan::default().with_io_error_at(vec![2]),
        ));
        let store: Arc<dyn PageStore> = inj;
        let wal = Wal::with_sink(Box::new(DiskSink::new(store.clone())));
        wal.append(LogRecord::CreateTable {
            name: "t".into(),
            schema: Schema::from_pairs(&[("id", DataType::Int)]),
        })
        .unwrap();
        wal.append(LogRecord::Begin { txn: 1 }).unwrap();
        let err = wal.append(LogRecord::Commit { txn: 1 });
        assert!(err.is_err(), "transient flush failure must surface");
        // The next commit retries the flush and succeeds (buffer intact).
        wal.append(LogRecord::Begin { txn: 2 }).unwrap();
        wal.append(LogRecord::Commit { txn: 2 }).unwrap();
        let scan = scan_wal(&store.wal_bytes().unwrap());
        assert_eq!(scan.records.len(), 5, "retried flush carried everything");
    }

    #[test]
    fn flush_watermark_advances_without_commits() {
        let wal = Wal::new();
        assert_eq!(wal.durable_lsn(), 0);
        wal.append(LogRecord::Begin { txn: 1 }).unwrap();
        wal.flush().unwrap();
        assert_eq!(wal.durable_lsn(), 1);
    }

    #[test]
    fn counters_track_appends_and_the_log_reads_back_from_the_checkpoint() {
        let wal = Wal::new();
        assert!(wal.is_empty());
        wal.append(LogRecord::Begin { txn: 1 }).unwrap();
        wal.append(LogRecord::Commit { txn: 1 }).unwrap();
        assert_eq!(wal.records_since_checkpoint(), 2);
        wal.append(LogRecord::Checkpoint(Box::default())).unwrap();
        assert_eq!(wal.records_since_checkpoint(), 0);
        wal.append(LogRecord::Begin { txn: 2 }).unwrap();
        assert_eq!(wal.records_since_checkpoint(), 1);
        // len() counts every append, checkpoints included; the sink holds
        // the last checkpoint and what follows it.
        assert_eq!(wal.len(), 4);
        let scan = scan_wal(&wal.durable_bytes().unwrap());
        assert_eq!(scan.corrupt_tail_bytes, 0);
        assert!(matches!(
            scan.records[..],
            [
                (3, LogRecord::Checkpoint(_)),
                (4, LogRecord::Begin { txn: 2 })
            ]
        ));
    }

    fn durable_records(disk: &crate::disk::Disk) -> Vec<(u64, LogRecord)> {
        let scan = scan_wal(&disk.wal_bytes().unwrap());
        assert_eq!(scan.corrupt_tail_bytes, 0);
        scan.records
    }

    #[test]
    fn every_checkpoint_cuts_the_durable_log_in_front_of_itself() {
        use crate::disk::Disk;
        let disk = Arc::new(Disk::new());
        let wal = Wal::with_sink(Box::new(DiskSink::new(disk.clone())));
        for round in 0..3u64 {
            for k in 0..5 {
                let txn = round * 5 + k + 1;
                wal.append(LogRecord::Begin { txn }).unwrap();
                wal.append(LogRecord::Commit { txn }).unwrap();
            }
            // an unflushed record rides the checkpoint's flush and must
            // not confuse the offsets
            wal.append(LogRecord::Begin { txn: 100 + round }).unwrap();
            let lsn = wal.append(LogRecord::Checkpoint(Box::default())).unwrap();
            let recs = durable_records(&disk);
            assert_eq!(recs.len(), 1, "round {round}: only the checkpoint is left");
            assert!(matches!(recs[0], (l, LogRecord::Checkpoint(_)) if l == lsn));
        }
        // a log reopened over what is durable keeps cutting at the right
        // byte: its offsets start at the store's length, not at zero
        let wal = Wal::with_sink(Box::new(DiskSink::new(disk.clone())));
        wal.append(LogRecord::Begin { txn: 200 }).unwrap();
        wal.append(LogRecord::Commit { txn: 200 }).unwrap();
        assert_eq!(durable_records(&disk).len(), 3);
        wal.append(LogRecord::Checkpoint(Box::default())).unwrap();
        assert_eq!(durable_records(&disk).len(), 1);
    }

    #[test]
    fn a_store_that_cannot_cut_keeps_the_whole_log_readable() {
        /// `MemSink` that refuses the cut, as a `PageStore` with the
        /// default `wal_drop_prefix` makes a `DiskSink` do.
        struct NoCut {
            sink: MemSink,
            asked: Arc<Mutex<Vec<usize>>>,
        }
        impl WalSink for NoCut {
            fn append(&self, bytes: &[u8]) -> Result<()> {
                self.sink.append(bytes)
            }
            fn flush(&self) -> Result<()> {
                self.sink.flush()
            }
            fn buffered(&self) -> usize {
                self.sink.buffered()
            }
            fn durable_bytes(&self) -> Result<Vec<u8>> {
                self.sink.durable_bytes()
            }
            fn durable_len(&self) -> usize {
                self.sink.durable_len()
            }
            fn drop_prefix(&self, n: usize) -> Result<usize> {
                self.asked.lock().push(n);
                Ok(0)
            }
        }
        let asked = Arc::new(Mutex::with_rank(Vec::new(), LockRank::WalSink));
        let wal = Wal::with_sink(Box::new(NoCut {
            sink: MemSink::new(),
            asked: Arc::clone(&asked),
        }));
        let mut frame_starts = Vec::new();
        for txn in 1..=2 {
            wal.append(LogRecord::Begin { txn }).unwrap();
            frame_starts.push(wal.durable_bytes().unwrap().len());
            wal.append(LogRecord::Checkpoint(Box::default())).unwrap();
        }
        // nothing was dropped, so each cut was asked for at the frame's
        // offset in the uncut log, and every record is still there
        assert_eq!(*asked.lock(), frame_starts);
        assert_eq!(scan_wal(&wal.durable_bytes().unwrap()).records.len(), 4);
    }
}
