//! Transaction-id allocation and WAL logging helpers.
//!
//! The engine keeps no open-transaction state of its own. A transaction
//! is a [`TxnHandle`](crate::db::TxnHandle) its caller holds — a test, a
//! load generator, or a server session's slot — and all a [`TxnManager`]
//! does is hand out the ids, each logged with its `Begin` record, and let
//! recovery move the floor past every id in the durable log. Commit and
//! rollback mechanics live in the database's MVCC path ([`crate::mvcc`]):
//! rollback reverses the in-memory write-set, commit group-commits the
//! WAL record and stamps version timestamps.
//!
//! Every append goes through the durable WAL and is fallible: an injected
//! storage fault on a log write surfaces as `Err` from the statement, not
//! a panic.

use aimdb_common::{Result, Row};
use aimdb_storage::wal::{LogRecord, TxnId, Wal};
use aimdb_storage::RowId;

/// The transaction-id allocator.
#[derive(Debug)]
pub struct TxnManager {
    next_id: TxnId,
}

impl Default for TxnManager {
    fn default() -> Self {
        TxnManager::new()
    }
}

impl TxnManager {
    /// Ids start at 1: id 0 is the plain reader's "owns no writes" mark.
    pub fn new() -> Self {
        TxnManager { next_id: 1 }
    }

    /// First id that will be handed out next. Recovery bumps this past
    /// every id seen in the durable log.
    pub fn next_id(&self) -> TxnId {
        self.next_id
    }

    pub fn set_next_id(&mut self, id: TxnId) {
        self.next_id = self.next_id.max(id).max(1);
    }

    /// Allocate a fresh transaction id and log its `Begin`.
    pub fn fresh_id(&mut self, wal: &Wal) -> Result<TxnId> {
        let id = self.next_id;
        self.next_id += 1;
        wal.append(LogRecord::Begin { txn: id })?;
        Ok(id)
    }
}

/// Log helpers used by the DML executor. All carry full row images so the
/// durable log supports redo (after-image) and recovery audits
/// (before-image).
pub fn log_insert(wal: &Wal, txn: TxnId, table: &str, rid: RowId, row: Row) -> Result<()> {
    wal.append(LogRecord::Insert {
        txn,
        table: table.to_string(),
        rid,
        row,
    })?;
    Ok(())
}

pub fn log_delete(wal: &Wal, txn: TxnId, table: &str, rid: RowId, before: Row) -> Result<()> {
    wal.append(LogRecord::Delete {
        txn,
        table: table.to_string(),
        rid,
        before,
    })?;
    Ok(())
}

#[allow(clippy::too_many_arguments)]
pub fn log_update(
    wal: &Wal,
    txn: TxnId,
    table: &str,
    old_rid: RowId,
    new_rid: RowId,
    before: Row,
    after: Row,
) -> Result<()> {
    wal.append(LogRecord::Update {
        txn,
        table: table.to_string(),
        old_rid,
        new_rid,
        before,
        after,
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_stay_fresh_and_monotone_across_restores() {
        let wal = Wal::new();
        let mut tm = TxnManager::new();
        let a = tm.fresh_id(&wal).unwrap();
        let b = tm.fresh_id(&wal).unwrap();
        assert_eq!((a, b), (1, 2), "ids start at 1 and never repeat");
        // recovery moves the floor past every id in the log...
        tm.set_next_id(40);
        assert_eq!(tm.next_id(), 40);
        // ...and never backward, not even to 0
        tm.set_next_id(10);
        tm.set_next_id(0);
        assert_eq!(tm.next_id(), 40);
        // ids handed out after a restore start at the floor
        assert_eq!(tm.fresh_id(&wal).unwrap(), 40);
        assert_eq!(tm.next_id(), 41);
        // every id was logged with its Begin
        assert_eq!(wal.len(), 3);
    }
}
