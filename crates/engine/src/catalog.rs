//! Catalog: tables, secondary indexes, and their physical storage.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use aimdb_common::{AimError, LockRank, Result, Row, Schema, Value};
use aimdb_storage::{BTree, BufferPool, HeapFile, RowId};

use crate::mvcc::{RowVis, Snapshot, VersionMeta};

/// A secondary index: one column, B+tree from value to row ids.
pub struct Index {
    pub name: String,
    pub table: String,
    pub column: String,
    pub tree: RwLock<BTree<Value, Vec<RowId>>>,
}

impl Index {
    /// Row ids whose key equals `v`.
    pub fn lookup(&self, v: &Value) -> Vec<RowId> {
        self.tree.read().get(v).cloned().unwrap_or_default()
    }

    /// Row ids with key in `[lo, hi]`.
    pub fn range(&self, lo: &Value, hi: &Value) -> Vec<RowId> {
        self.tree
            .read()
            .range(lo, hi)
            .into_iter()
            .flat_map(|(_, rids)| rids)
            .collect()
    }

    /// Same result as [`range`], but pulled through the B+tree's
    /// chunked leaf-chain cursor in `chunk`-key steps — the batched
    /// scan path used by the vectorized executor.
    ///
    /// [`range`]: Index::range
    pub fn range_batched(&self, lo: &Value, hi: &Value, chunk: usize) -> Vec<RowId> {
        let tree = self.tree.read();
        let mut cur = tree.range_cursor(lo, hi);
        let mut pairs: Vec<(Value, Vec<RowId>)> = Vec::new();
        let mut out = Vec::new();
        loop {
            pairs.clear();
            if cur.next_chunk(chunk.max(1), &mut pairs) == 0 {
                return out;
            }
            out.extend(pairs.drain(..).flat_map(|(_, rids)| rids));
        }
    }

    /// Row ids with key in the inclusive interval `[lo, hi]`, an absent
    /// end being unbounded: a point lookup when the ends coincide,
    /// otherwise the batched range scan in `chunk`-key steps. NULL keys
    /// sort below every number and are never returned by an open `lo`.
    pub fn probe(&self, lo: Option<&Value>, hi: Option<&Value>, chunk: usize) -> Vec<RowId> {
        match (lo, hi) {
            (Some(l), Some(h)) if l == h => self.lookup(l),
            (l, h) => {
                let lo = l.cloned().unwrap_or(Value::Float(f64::NEG_INFINITY));
                let hi = h.cloned().unwrap_or(Value::Float(f64::INFINITY));
                self.range_batched(&lo, &hi, chunk)
            }
        }
    }

    fn insert_entry(&self, v: Value, rid: RowId) {
        let mut tree = self.tree.write();
        match tree.get_mut(&v) {
            Some(rids) => rids.push(rid),
            None => {
                tree.insert(v, vec![rid]);
            }
        }
    }

    fn remove_entry(&self, v: &Value, rid: RowId) {
        let mut tree = self.tree.write();
        if let Some(rids) = tree.get_mut(v) {
            rids.retain(|r| *r != rid);
            if rids.is_empty() {
                tree.remove(v);
            }
        }
    }
}

/// A table: schema + heap + indexes on it.
pub struct Table {
    pub name: String,
    pub schema: Schema,
    pub heap: HeapFile,
    /// column name (lowercase) → index
    indexes: RwLock<HashMap<String, Arc<Index>>>,
    /// Live MVCC version metadata. Rows absent from this map are
    /// legacy-committed (recovery rebuilds, vacuumed versions) and
    /// visible to every reader.
    versions: Mutex<HashMap<RowId, VersionMeta>>,
}

impl Table {
    pub fn new(name: String, schema: Schema, pool: Arc<BufferPool>) -> Self {
        Table {
            name,
            schema,
            heap: HeapFile::new(pool),
            indexes: RwLock::with_rank(HashMap::new(), LockRank::TableIndexes),
            versions: Mutex::with_rank(HashMap::new(), LockRank::TableVersions),
        }
    }

    /// Insert a row, maintaining all indexes. Values are validated and
    /// coerced against the schema.
    pub fn insert(&self, values: Vec<Value>) -> Result<RowId> {
        let values = self.schema.check_row(values)?;
        let row = Row::new(values);
        let rid = self.heap.insert(&row)?;
        for idx in self.indexes.read().values() {
            let col = self.schema.index_of(&idx.column)?;
            idx.insert_entry(row.get(col).clone(), rid);
        }
        Ok(rid)
    }

    /// Delete by row id; returns the old row if it existed.
    pub fn delete(&self, rid: RowId) -> Result<Option<Row>> {
        let Some(old) = self.heap.get(rid)? else {
            return Ok(None);
        };
        self.heap.delete(rid)?;
        for idx in self.indexes.read().values() {
            let col = self.schema.index_of(&idx.column)?;
            idx.remove_entry(old.get(col), rid);
        }
        Ok(Some(old))
    }

    /// Replace the row at `rid`; returns `(old_row, new_rid)`.
    pub fn update(&self, rid: RowId, values: Vec<Value>) -> Result<(Row, RowId)> {
        let old = self
            .delete(rid)?
            .ok_or_else(|| AimError::NotFound(format!("row {rid:?}")))?;
        let new_rid = self.insert(values)?;
        Ok((old, new_rid))
    }

    /// Raw heap scan: every physical row, including versions invisible
    /// to the caller. Readers should use [`Table::scan_visible`].
    pub fn scan(&self) -> Result<Vec<(RowId, Row)>> {
        self.heap.scan()
    }

    /// Scan through a visibility filter: the caller's snapshot, or the
    /// latest-committed view when no transaction is open.
    pub fn scan_visible(&self, snap: Option<Snapshot>) -> Result<Vec<(RowId, Row)>> {
        let vis = self.visibility(snap)?;
        Ok(self
            .heap
            .scan()?
            .into_iter()
            .filter(|(rid, _)| vis.allows(*rid))
            .collect())
    }

    /// Resolve a row-visibility filter for one scan: clone the live
    /// version metas and capture the heap insertion watermark, both
    /// under the versions lock. [`Table::mvcc_insert`] holds the same
    /// lock across heap insert + meta registration, so every row below
    /// the watermark has its meta in the clone — per-row checks then
    /// take no lock at all.
    pub fn visibility(&self, snap: Option<Snapshot>) -> Result<RowVis> {
        let vs = self.versions.lock();
        let wm = self.heap.watermark()?;
        Ok(RowVis::new(vs.clone(), wm, snap))
    }

    /// Keep the row ids `snap` (or, without one, the latest-committed
    /// view) may see — the filter for a rid list that came out of an
    /// index, checked per rid under the versions lock instead of through
    /// a clone of the whole map. No insertion watermark is needed here:
    /// [`Table::mvcc_insert`] holds this lock from before the row's index
    /// entry exists until its meta is registered, so a rid an index has
    /// handed out has its meta in the map by the time the lock is ours.
    /// A version dropped since (rollback, vacuum) lost its heap row
    /// before its meta, so it either fails here or reads as absent from
    /// the heap afterwards; slot ids are never reused.
    pub fn retain_visible(&self, rids: &mut Vec<RowId>, snap: Option<Snapshot>) {
        let vs = self.versions.lock();
        rids.retain(|rid| VersionMeta::admits(vs.get(rid), snap.as_ref()));
    }

    /// Insert a new, uncommitted version owned by `txn`. The versions
    /// lock is held across the heap insert so the row, its index entries
    /// and its meta appear atomically to [`Table::visibility`] and
    /// [`Table::retain_visible`] — a reader never observes the row as
    /// meta-less (which would read as committed).
    pub fn mvcc_insert(&self, values: Vec<Value>, txn: u64) -> Result<RowId> {
        let mut vs = self.versions.lock();
        let rid = self.insert(values)?;
        vs.insert(rid, VersionMeta::created_by(txn));
        Ok(rid)
    }

    /// Claim the version at `rid` as superseded by the snapshot's
    /// transaction, under first-updater-wins: any competing claim or any
    /// version committed after the snapshot's `read_ts` is a
    /// [`AimError::WriteConflict`]. Rows without a meta are legacy
    /// committed and acquire one on first claim.
    pub fn mvcc_claim(&self, rid: RowId, snap: &Snapshot) -> Result<()> {
        let mut vs = self.versions.lock();
        let meta = vs.entry(rid).or_insert_with(VersionMeta::legacy);
        if meta.end_ts.is_some() {
            return Err(AimError::WriteConflict(format!(
                "row {rid:?} in {} superseded by a committed transaction",
                self.name
            )));
        }
        if let Some(owner) = meta.end_txn {
            if owner == snap.txn {
                return Ok(()); // already claimed by us
            }
            return Err(AimError::WriteConflict(format!(
                "row {rid:?} in {} claimed by concurrent transaction {owner}",
                self.name
            )));
        }
        match meta.begin_ts {
            None if meta.begin_txn != snap.txn => Err(AimError::WriteConflict(format!(
                "row {rid:?} in {} is an uncommitted insert of transaction {}",
                self.name, meta.begin_txn
            ))),
            Some(ts) if ts > snap.read_ts => Err(AimError::WriteConflict(format!(
                "row {rid:?} in {} committed at ts {ts}, after snapshot ts {}",
                self.name, snap.read_ts
            ))),
            _ => {
                meta.end_txn = Some(snap.txn);
                Ok(())
            }
        }
    }

    /// Release `txn`'s uncommitted claim on `rid` (rollback).
    pub fn mvcc_unclaim(&self, rid: RowId, txn: u64) {
        let mut vs = self.versions.lock();
        if let Some(meta) = vs.get_mut(&rid) {
            if meta.end_txn == Some(txn) && meta.end_ts.is_none() {
                meta.end_txn = None;
                // a legacy meta with no remaining claim carries no info
                if *meta == VersionMeta::legacy() {
                    vs.remove(&rid);
                }
            }
        }
    }

    /// Physically remove an uncommitted version created by a rolled-back
    /// transaction, along with its meta and index entries.
    ///
    /// The heap delete comes *first*: a concurrent scan that resolved its
    /// visibility before the delete holds the uncommitted meta (row
    /// hidden), and one resolving after no longer finds the row at all.
    /// Removing the meta first would open a window where the live row
    /// reads as meta-less — i.e. legacy-committed — to a fresh scan.
    pub fn mvcc_drop_created(&self, rid: RowId) -> Result<()> {
        self.delete(rid)?;
        self.versions.lock().remove(&rid);
        Ok(())
    }

    /// Stamp the commit timestamp onto a version created by the
    /// committing transaction.
    pub fn mvcc_stamp_begin(&self, rid: RowId, cts: u64) {
        if let Some(meta) = self.versions.lock().get_mut(&rid) {
            meta.begin_ts = Some(cts);
        }
    }

    /// Stamp the commit timestamp onto a version superseded by the
    /// committing transaction.
    pub fn mvcc_stamp_end(&self, rid: RowId, cts: u64) {
        if let Some(meta) = self.versions.lock().get_mut(&rid) {
            meta.end_ts = Some(cts);
        }
    }

    /// Garbage-collect at a quiescent point (no active transactions):
    /// physically delete versions whose superseding transaction
    /// committed, and fold surviving committed metas back into the
    /// implicit legacy state. Returns the number of dead versions
    /// removed.
    /// `horizon` is the oldest read timestamp any live or future
    /// snapshot can hold ([`crate::mvcc::TxnRuntime::vacuum_horizon`]):
    /// versions superseded at or before it are invisible to everyone.
    pub fn vacuum(&self, horizon: u64) -> Result<usize> {
        let dead: Vec<RowId> = {
            let vs = self.versions.lock();
            vs.iter()
                .filter(|(_, m)| m.end_ts.map(|e| e <= horizon).unwrap_or(false))
                .map(|(rid, _)| *rid)
                .collect()
        };
        // Heap deletes happen *before* the metas go: a reader entering
        // mid-vacuum (its read timestamp is the latest commit, at or
        // above every dead version's end timestamp) either finds a dead
        // row together with the meta that hides it, or no row at all —
        // never a meta-less dead row masquerading as legacy-committed.
        for rid in &dead {
            self.delete(*rid)?;
        }
        let mut vs = self.versions.lock();
        for rid in &dead {
            vs.remove(rid);
        }
        // Fold committed metas visible to every live snapshot back into
        // the implicit legacy state; keep uncommitted creations, claimed
        // or superseded versions, and commits newer than the horizon.
        vs.retain(|_, m| {
            let uncommitted = m.begin_ts.is_none();
            let claimed = m.end_txn.is_some() || m.end_ts.is_some();
            let young = m.begin_ts.map(|b| b > horizon).unwrap_or(false);
            uncommitted || claimed || young
        });
        Ok(dead.len())
    }

    pub fn row_count(&self) -> Result<usize> {
        self.heap.len()
    }

    /// Build a new index over `column`, backfilling existing rows.
    pub fn create_index(&self, name: &str, column: &str) -> Result<Arc<Index>> {
        let col = self.schema.index_of(column)?;
        let mut map = self.indexes.write();
        let key = column.to_ascii_lowercase();
        if map.contains_key(&key) {
            return Err(AimError::AlreadyExists(format!(
                "index on {}.{column}",
                self.name
            )));
        }
        let idx = Arc::new(Index {
            name: name.to_string(),
            table: self.name.clone(),
            column: column.to_string(),
            tree: RwLock::with_rank(BTree::new(), LockRank::IndexTree),
        });
        for (rid, row) in self.heap.scan()? {
            idx.insert_entry(row.get(col).clone(), rid);
        }
        map.insert(key, Arc::clone(&idx));
        Ok(idx)
    }

    pub fn drop_index_on(&self, column: &str) -> bool {
        self.indexes
            .write()
            .remove(&column.to_ascii_lowercase())
            .is_some()
    }

    /// The index on `column`, if one exists.
    pub fn index_on(&self, column: &str) -> Option<Arc<Index>> {
        self.indexes
            .read()
            .get(&column.to_ascii_lowercase())
            .cloned()
    }
}

/// The catalog of all tables and indexes.
pub struct Catalog {
    tables: RwLock<HashMap<String, Arc<Table>>>,
    /// index name (lowercase) → (table, column)
    index_names: RwLock<HashMap<String, (String, String)>>,
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog::new()
    }
}

impl Catalog {
    pub fn new() -> Self {
        Catalog {
            tables: RwLock::with_rank(HashMap::new(), LockRank::CatalogTables),
            index_names: RwLock::with_rank(HashMap::new(), LockRank::CatalogIndexNames),
        }
    }

    pub fn create_table(
        &self,
        name: &str,
        schema: Schema,
        pool: Arc<BufferPool>,
    ) -> Result<Arc<Table>> {
        let key = name.to_ascii_lowercase();
        let mut tables = self.tables.write();
        if tables.contains_key(&key) {
            return Err(AimError::AlreadyExists(format!("table {name}")));
        }
        let t = Arc::new(Table::new(name.to_string(), schema, pool));
        tables.insert(key, Arc::clone(&t));
        Ok(t)
    }

    pub fn drop_table(&self, name: &str) -> Result<()> {
        let key = name.to_ascii_lowercase();
        self.tables
            .write()
            .remove(&key)
            .map(|_| ())
            .ok_or_else(|| AimError::NotFound(format!("table {name}")))?;
        // drop its index names
        self.index_names
            .write()
            .retain(|_, (t, _)| !t.eq_ignore_ascii_case(name));
        Ok(())
    }

    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| AimError::NotFound(format!("table {name}")))
    }

    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .tables
            .read()
            .values()
            .map(|t| t.name.clone())
            .collect();
        names.sort();
        names
    }

    pub fn create_index(&self, name: &str, table: &str, column: &str) -> Result<()> {
        let key = name.to_ascii_lowercase();
        if self.index_names.read().contains_key(&key) {
            return Err(AimError::AlreadyExists(format!("index {name}")));
        }
        let t = self.table(table)?;
        t.create_index(name, column)?;
        self.index_names
            .write()
            .insert(key, (table.to_string(), column.to_string()));
        Ok(())
    }

    /// All secondary indexes as `(name, table, column)`, sorted by name —
    /// the shape checkpoint snapshots persist.
    pub fn indexes(&self) -> Vec<(String, String, String)> {
        let mut out: Vec<(String, String, String)> = self
            .index_names
            .read()
            .iter()
            .map(|(name, (table, column))| (name.clone(), table.clone(), column.clone()))
            .collect();
        out.sort();
        out
    }

    pub fn drop_index(&self, name: &str) -> Result<()> {
        let key = name.to_ascii_lowercase();
        let (table, column) = self
            .index_names
            .write()
            .remove(&key)
            .ok_or_else(|| AimError::NotFound(format!("index {name}")))?;
        let t = self.table(&table)?;
        t.drop_index_on(&column);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimdb_common::DataType;
    use aimdb_storage::Disk;

    fn setup() -> (Arc<BufferPool>, Catalog) {
        let pool = Arc::new(BufferPool::new(Arc::new(Disk::new()), 64));
        (pool, Catalog::new())
    }

    fn schema() -> Schema {
        Schema::from_pairs(&[("id", DataType::Int), ("name", DataType::Text)])
    }

    #[test]
    fn create_insert_scan() {
        let (pool, cat) = setup();
        let t = cat.create_table("users", schema(), pool).unwrap();
        t.insert(vec![Value::Int(1), Value::Text("ann".into())])
            .unwrap();
        t.insert(vec![Value::Int(2), Value::Text("bob".into())])
            .unwrap();
        assert_eq!(t.row_count().unwrap(), 2);
        assert!(cat
            .create_table(
                "USERS",
                schema(),
                Arc::new(BufferPool::new(Arc::new(Disk::new()), 4))
            )
            .is_err());
        assert!(cat.table("Users").is_ok());
    }

    #[test]
    fn index_maintained_through_dml() {
        let (pool, cat) = setup();
        let t = cat.create_table("u", schema(), pool).unwrap();
        let r1 = t
            .insert(vec![Value::Int(1), Value::Text("a".into())])
            .unwrap();
        cat.create_index("idx_id", "u", "id").unwrap();
        let r2 = t
            .insert(vec![Value::Int(2), Value::Text("b".into())])
            .unwrap();
        let idx = t.index_on("id").unwrap();
        assert_eq!(idx.lookup(&Value::Int(1)), vec![r1]);
        assert_eq!(idx.lookup(&Value::Int(2)), vec![r2]);
        // update moves the row
        let (_, r2b) = t
            .update(r2, vec![Value::Int(3), Value::Text("b".into())])
            .unwrap();
        assert!(idx.lookup(&Value::Int(2)).is_empty());
        assert_eq!(idx.lookup(&Value::Int(3)), vec![r2b]);
        // delete removes the entry
        t.delete(r1).unwrap();
        assert!(idx.lookup(&Value::Int(1)).is_empty());
    }

    #[test]
    fn index_range_scan() {
        let (pool, cat) = setup();
        let t = cat.create_table("u", schema(), pool).unwrap();
        for i in 0..100 {
            t.insert(vec![Value::Int(i), Value::Text(format!("n{i}"))])
                .unwrap();
        }
        cat.create_index("idx", "u", "id").unwrap();
        let idx = t.index_on("id").unwrap();
        assert_eq!(idx.range(&Value::Int(10), &Value::Int(19)).len(), 10);
    }

    #[test]
    fn duplicate_keys_in_index() {
        let (pool, cat) = setup();
        let t = cat.create_table("u", schema(), pool).unwrap();
        cat.create_index("idx", "u", "id").unwrap();
        let a = t
            .insert(vec![Value::Int(7), Value::Text("x".into())])
            .unwrap();
        let b = t
            .insert(vec![Value::Int(7), Value::Text("y".into())])
            .unwrap();
        let idx = t.index_on("id").unwrap();
        let mut rids = idx.lookup(&Value::Int(7));
        rids.sort();
        let mut expect = vec![a, b];
        expect.sort();
        assert_eq!(rids, expect);
        t.delete(a).unwrap();
        assert_eq!(idx.lookup(&Value::Int(7)), vec![b]);
        // a long rid list grows and shrinks where it lives in the tree
        let mut rids = vec![b];
        for i in 0..200 {
            rids.push(
                t.insert(vec![Value::Int(7), Value::Text(format!("n{i}"))])
                    .unwrap(),
            );
        }
        assert_eq!(idx.lookup(&Value::Int(7)), rids);
        for rid in rids.drain(..).step_by(2).collect::<Vec<_>>() {
            t.delete(rid).unwrap();
        }
        assert_eq!(idx.lookup(&Value::Int(7)).len(), 100);
        for rid in idx.lookup(&Value::Int(7)) {
            t.delete(rid).unwrap();
        }
        assert!(idx.lookup(&Value::Int(7)).is_empty());
        assert!(idx.tree.read().is_empty(), "an emptied key leaves the tree");
    }

    #[test]
    fn drop_index_and_table() {
        let (pool, cat) = setup();
        cat.create_table("u", schema(), pool).unwrap();
        cat.create_index("idx", "u", "id").unwrap();
        assert!(cat.create_index("idx", "u", "name").is_err()); // name taken
        cat.drop_index("IDX").unwrap();
        assert!(cat.drop_index("idx").is_err());
        cat.drop_table("u").unwrap();
        assert!(cat.table("u").is_err());
    }

    #[test]
    fn insert_validates_schema() {
        let (pool, cat) = setup();
        let t = cat.create_table("u", schema(), pool).unwrap();
        assert!(t.insert(vec![Value::Int(1)]).is_err());
        assert!(t
            .insert(vec![Value::Text("no".into()), Value::Text("x".into())])
            .is_err());
    }
}
