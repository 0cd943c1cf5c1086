//! Multi-version concurrency control: snapshot isolation primitives.
//!
//! Rows carry begin/end timestamps ([`VersionMeta`]); a transaction reads
//! through a [`Snapshot`] frozen at begin time, so readers never block
//! writers and writers never block readers. Writes claim the version they
//! supersede under first-updater-wins: the second transaction to touch a
//! row version gets [`aimdb_common::AimError::WriteConflict`] and can
//! retry on a fresh snapshot. Commit stamps every version in the
//! transaction's write-set with one commit timestamp under the global
//! [`TxnRuntime::commit_lock`], *after* the commit record is durable in
//! the WAL — visibility implies durability.
//!
//! Rows that predate MVCC (recovery rebuilds, checkpoint restores) carry
//! no metadata and read as committed-at-timestamp-zero; they acquire a
//! meta lazily when first claimed. A quiescent checkpoint vacuums dead
//! versions and folds committed metas back into this legacy state, so the
//! version table stays bounded by the write volume between checkpoints.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, MutexGuard};

use aimdb_common::{wait, LockRank};
use aimdb_storage::RowId;

/// Commit timestamps are a monotone counter separate from transaction
/// ids: ids order *begins*, commit timestamps order *visibility*.
pub type CommitTs = u64;

/// A transaction's frozen read view: everything committed at or before
/// `read_ts`, plus the transaction's own uncommitted writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// The owning transaction id (own writes are visible).
    pub txn: u64,
    /// Highest commit timestamp visible to this transaction.
    pub read_ts: CommitTs,
}

/// Version metadata for one heap row. `begin_*` describes the insert
/// that created the version, `end_*` the delete/update that superseded
/// it. A `None` timestamp with a `Some` transaction means the operation
/// is still uncommitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionMeta {
    pub begin_txn: u64,
    pub begin_ts: Option<CommitTs>,
    pub end_txn: Option<u64>,
    pub end_ts: Option<CommitTs>,
}

impl VersionMeta {
    /// A version just inserted by `txn`, not yet committed.
    pub fn created_by(txn: u64) -> Self {
        VersionMeta {
            begin_txn: txn,
            begin_ts: None,
            end_txn: None,
            end_ts: None,
        }
    }

    /// The implicit meta of a row that predates MVCC bookkeeping:
    /// committed at timestamp zero, never superseded.
    pub fn legacy() -> Self {
        VersionMeta {
            begin_txn: 0,
            begin_ts: Some(0),
            end_txn: None,
            end_ts: None,
        }
    }

    /// Snapshot-isolation visibility: created no later than the snapshot
    /// (or by the snapshot's own transaction) and not yet superseded from
    /// the snapshot's point of view.
    pub fn visible_to(&self, s: &Snapshot) -> bool {
        let created = match self.begin_ts {
            Some(ts) => ts <= s.read_ts,
            None => self.begin_txn == s.txn,
        };
        if !created {
            return false;
        }
        let ended = match self.end_ts {
            Some(ts) => ts <= s.read_ts,
            None => self.end_txn == Some(s.txn),
        };
        !ended
    }

    /// The latest-committed filter used by readers without a snapshot
    /// (auto-commit SELECTs, benches): committed and not committed-dead.
    /// An uncommitted claim by someone else does not hide the version.
    pub fn latest_committed(&self) -> bool {
        self.begin_ts.is_some() && self.end_ts.is_none()
    }

    /// Does a reader holding `snap` — or none, for the latest-committed
    /// view — see the version whose meta is `meta`? A row without a meta
    /// is legacy-committed and visible to everyone.
    pub fn admits(meta: Option<&VersionMeta>, snap: Option<&Snapshot>) -> bool {
        match (meta, snap) {
            (None, _) => true,
            (Some(m), Some(s)) => m.visible_to(s),
            (Some(m), None) => m.latest_committed(),
        }
    }
}

/// A resolved row-visibility filter for one scan: the table's live
/// version metas cloned once (rows without a meta are legacy-committed
/// and always pass), the heap insertion watermark at resolve time, and
/// the reader's snapshot if it has one. Per-row checks take no lock, so
/// morsel workers share one `RowVis` freely.
///
/// The watermark closes the insert race: a row that reaches the heap
/// after the metas were cloned would otherwise read as meta-less —
/// i.e. legacy-committed — and leak an uncommitted insert into the
/// scan. Any row at or beyond the watermark was born after this filter
/// resolved and is invisible outright (it cannot be committed within
/// the reader's frozen view either way).
#[derive(Debug, Clone)]
pub struct RowVis {
    metas: HashMap<RowId, VersionMeta>,
    /// Last heap page and its slot count when the filter was resolved.
    /// `None` means the heap was empty.
    watermark: Option<(aimdb_storage::PageId, u16)>,
    snap: Option<Snapshot>,
}

impl RowVis {
    pub fn new(
        metas: HashMap<RowId, VersionMeta>,
        watermark: Option<(aimdb_storage::PageId, u16)>,
        snap: Option<Snapshot>,
    ) -> Self {
        RowVis {
            metas,
            watermark,
            snap,
        }
    }

    /// Should the row at `rid` be visible to this reader?
    pub fn allows(&self, rid: RowId) -> bool {
        match self.watermark {
            // the heap was empty when this filter resolved
            None => return false,
            Some((last_page, slots)) => {
                if rid.page > last_page || (rid.page == last_page && rid.slot >= slots) {
                    return false;
                }
            }
        }
        VersionMeta::admits(self.metas.get(&rid), self.snap.as_ref())
    }
}

/// One entry in a transaction's write-set, in execution order. Rollback
/// walks it in reverse; commit stamps every entry with the commit ts.
#[derive(Debug, Clone)]
pub enum WriteOp {
    /// `txn` inserted the version at `rid` (INSERT, or the new version
    /// of an UPDATE).
    Created { table: String, rid: RowId },
    /// `txn` claimed the version at `rid` as superseded (DELETE, or the
    /// old version of an UPDATE).
    Ended { table: String, rid: RowId },
}

/// Per-transaction runtime state: the frozen read timestamp and the
/// write-set accumulated so far.
#[derive(Debug, Default)]
pub struct TxnInfo {
    pub read_ts: CommitTs,
    pub writes: Vec<WriteOp>,
}

/// Shared MVCC state for one database: the commit-timestamp counter, the
/// commit/checkpoint serialization lock, and the active-transaction map.
///
/// Registration takes `commit_lock`, so a checkpoint that holds the lock
/// and observes `active_count() == 0` is truly quiescent: no transaction
/// is in flight and none can start until the lock is released.
pub struct TxnRuntime {
    /// Last published commit timestamp. Stamp-then-bump under
    /// `commit_lock` makes a whole transaction visible atomically.
    commit_ts: AtomicU64,
    /// Serializes commit stamping, registration and checkpoints.
    pub commit_lock: Mutex<()>,
    active: Mutex<HashMap<u64, TxnInfo>>,
    /// Read timestamps of plain-statement readers in flight, with a
    /// refcount per timestamp. They hold no registered transaction, but
    /// their frozen snapshots may still need old versions — the vacuum
    /// horizon is the minimum over this set.
    readers: Mutex<HashMap<CommitTs, usize>>,
}

impl Default for TxnRuntime {
    fn default() -> Self {
        TxnRuntime::new()
    }
}

impl TxnRuntime {
    pub fn new() -> Self {
        TxnRuntime {
            commit_ts: AtomicU64::new(0),
            commit_lock: Mutex::with_rank((), LockRank::CommitLock),
            active: Mutex::with_rank(HashMap::new(), LockRank::TxnActive),
            readers: Mutex::with_rank(HashMap::new(), LockRank::TxnReaders),
        }
    }

    /// The single place the active-transaction map is locked; every use
    /// below goes through it, so its rank is declared exactly once.
    fn active(&self) -> MutexGuard<'_, HashMap<u64, TxnInfo>> {
        self.active.lock()
    }

    /// Highest commit timestamp whose transaction is fully visible.
    pub fn last_commit_ts(&self) -> CommitTs {
        // ordering: Acquire — pairs with the Release in
        // publish_commit_ts; a reader that observes ts T must also see
        // every version stamp the committer wrote before publishing T.
        self.commit_ts.load(Ordering::Acquire)
    }

    /// Register `txn` as active and freeze its snapshot. Serialized with
    /// commits and checkpoints via `commit_lock`.
    pub fn register(&self, txn: u64) -> Snapshot {
        // Serialization against in-flight commits is a SnapshotRegister
        // wait (the lock acquire itself also counts as LockAcquire when
        // contended; exclusive attribution keeps the two disjoint).
        let wait = wait::enter(wait::WaitClass::SnapshotRegister);
        let _g = self.commit_lock.lock();
        drop(wait);
        let read_ts = self.last_commit_ts();
        self.active().insert(
            txn,
            TxnInfo {
                read_ts,
                writes: Vec::new(),
            },
        );
        Snapshot { txn, read_ts }
    }

    /// Append one write to `txn`'s write-set (no-op if `txn` is not
    /// registered — defensive, should not happen).
    pub fn record_write(&self, txn: u64, op: WriteOp) {
        if let Some(info) = self.active().get_mut(&txn) {
            info.writes.push(op);
        }
    }

    /// Deregister `txn`, returning its write-set for stamping (commit)
    /// or reversal (rollback).
    pub fn take(&self, txn: u64) -> Option<TxnInfo> {
        self.active().remove(&txn)
    }

    /// Number of registered in-flight transactions.
    pub fn active_count(&self) -> usize {
        self.active().len()
    }

    /// Publish a new commit timestamp. The caller must hold
    /// `commit_lock` and have stamped every write-set entry first.
    pub fn publish_commit_ts(&self, cts: CommitTs) {
        // ordering: Release — pairs with the Acquire in last_commit_ts;
        // all version stamps written before this store become visible to
        // any thread that reads ts >= cts.
        self.commit_ts.store(cts, Ordering::Release);
    }

    /// Register a plain-statement reader and freeze its read timestamp;
    /// pair with [`TxnRuntime::reader_exit`]. Taking `commit_lock`
    /// makes registration atomic against commit publication and the
    /// checkpoint's horizon computation: a reader is either fully
    /// visible to the vacuum or strictly newer than everything it
    /// removes.
    pub fn reader_enter(&self) -> CommitTs {
        // See register(): commit_lock serialization is a
        // SnapshotRegister wait.
        let wait = wait::enter(wait::WaitClass::SnapshotRegister);
        let _g = self.commit_lock.lock();
        drop(wait);
        let ts = self.last_commit_ts();
        *self.readers.lock().entry(ts).or_insert(0) += 1;
        ts
    }

    /// Statement-reader exit (see [`TxnRuntime::reader_enter`]).
    pub fn reader_exit(&self, ts: CommitTs) {
        let mut readers = self.readers.lock();
        if let Some(n) = readers.get_mut(&ts) {
            *n -= 1;
            if *n == 0 {
                readers.remove(&ts);
            }
        }
    }

    /// The vacuum horizon: every version superseded at or before this
    /// timestamp is invisible to all current snapshots (registered
    /// transactions and plain-statement readers) and to every future
    /// one, so the checkpoint may physically remove it.
    pub fn vacuum_horizon(&self) -> CommitTs {
        let last = self.last_commit_ts();
        let rmin = self.readers.lock().keys().min().copied().unwrap_or(last);
        let amin = self
            .active()
            .values()
            .map(|i| i.read_ts)
            .min()
            .unwrap_or(last);
        last.min(rmin).min(amin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(n: u64) -> RowId {
        RowId {
            page: aimdb_storage::PageId(n),
            slot: 0,
        }
    }

    #[test]
    fn legacy_rows_visible_everywhere() {
        let m = VersionMeta::legacy();
        assert!(m.latest_committed());
        assert!(m.visible_to(&Snapshot { txn: 9, read_ts: 0 }));
    }

    #[test]
    fn uncommitted_insert_visible_only_to_owner() {
        let m = VersionMeta::created_by(7);
        assert!(m.visible_to(&Snapshot { txn: 7, read_ts: 3 }));
        assert!(!m.visible_to(&Snapshot { txn: 8, read_ts: 3 }));
        assert!(!m.latest_committed());
    }

    #[test]
    fn committed_versions_respect_read_ts() {
        let mut m = VersionMeta::created_by(7);
        m.begin_ts = Some(5);
        assert!(m.visible_to(&Snapshot { txn: 1, read_ts: 5 }));
        assert!(!m.visible_to(&Snapshot { txn: 1, read_ts: 4 }));
        // committed delete at ts 8 hides the row only from ts >= 8
        m.end_txn = Some(9);
        m.end_ts = Some(8);
        assert!(m.visible_to(&Snapshot { txn: 1, read_ts: 7 }));
        assert!(!m.visible_to(&Snapshot { txn: 1, read_ts: 8 }));
        assert!(!m.latest_committed());
    }

    #[test]
    fn uncommitted_delete_hides_only_from_owner() {
        let mut m = VersionMeta::legacy();
        m.end_txn = Some(4);
        assert!(!m.visible_to(&Snapshot { txn: 4, read_ts: 9 }));
        assert!(m.visible_to(&Snapshot { txn: 5, read_ts: 9 }));
        // latest-committed readers still see it until the delete commits
        assert!(m.latest_committed());
    }

    #[test]
    fn row_vis_defaults_to_legacy() {
        // watermark admits pages 0..=9 fully
        let wm = Some((aimdb_storage::PageId(9), u16::MAX));
        let vis = RowVis::new(HashMap::new(), wm, None);
        assert!(vis.allows(rid(1)));
        let mut metas = HashMap::new();
        metas.insert(rid(2), VersionMeta::created_by(3));
        let vis = RowVis::new(metas, wm, None);
        assert!(vis.allows(rid(1)));
        assert!(!vis.allows(rid(2)));
    }

    #[test]
    fn row_vis_watermark_excludes_rows_born_mid_scan() {
        // resolve-time heap: last page 5 with 2 slots used
        let wm = Some((aimdb_storage::PageId(5), 2));
        let vis = RowVis::new(HashMap::new(), wm, None);
        assert!(vis.allows(rid(4)));
        assert!(vis.allows(RowId {
            page: aimdb_storage::PageId(5),
            slot: 1,
        }));
        // appended to the last page after resolve: invisible
        assert!(!vis.allows(RowId {
            page: aimdb_storage::PageId(5),
            slot: 2,
        }));
        // a page allocated after resolve: invisible
        assert!(!vis.allows(rid(6)));
        // empty heap at resolve time admits nothing
        let vis = RowVis::new(HashMap::new(), None, None);
        assert!(!vis.allows(rid(0)));
    }

    #[test]
    fn runtime_register_take_roundtrip() {
        let rt = TxnRuntime::new();
        let snap = rt.register(11);
        assert_eq!(snap.read_ts, 0);
        assert_eq!(rt.active_count(), 1);
        rt.record_write(
            11,
            WriteOp::Created {
                table: "t".into(),
                rid: rid(1),
            },
        );
        let info = rt.take(11).unwrap();
        assert_eq!(info.writes.len(), 1);
        assert_eq!(rt.active_count(), 0);
        assert!(rt.take(11).is_none());
    }

    #[test]
    fn commit_ts_publishes_monotone() {
        let rt = TxnRuntime::new();
        {
            let _g = rt.commit_lock.lock();
            rt.publish_commit_ts(1);
        }
        assert_eq!(rt.last_commit_ts(), 1);
        let snap = rt.register(2);
        assert_eq!(snap.read_ts, 1);
    }
}
