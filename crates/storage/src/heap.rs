//! Heap files: unordered collections of rows on slotted pages.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use aimdb_common::{AimError, ColVec, LockRank, Result, Row};

use crate::buffer::BufferPool;
use crate::codec::{decode_row, decode_row_into, encode_row};
use crate::page::PageId;

/// Physical address of a row: page + slot. Stable across deletions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId {
    pub page: PageId,
    pub slot: u16,
}

/// A heap file storing rows of one table. Pages are appended as needed;
/// inserts go to the last page with room (first-fit from the tail).
pub struct HeapFile {
    pool: Arc<BufferPool>,
    pages: Mutex<Vec<PageId>>,
}

impl HeapFile {
    pub fn new(pool: Arc<BufferPool>) -> Self {
        HeapFile {
            pool,
            pages: Mutex::with_rank(Vec::new(), LockRank::HeapPages),
        }
    }

    /// Insert a row, returning its [`RowId`].
    pub fn insert(&self, row: &Row) -> Result<RowId> {
        let bytes = encode_row(row);
        let mut pages = self.pages.lock();
        if let Some(&last) = pages.last() {
            let slot = self.pool.with_page_mut(last, |p| Ok(p.insert(&bytes)))?;
            if let Some(slot) = slot {
                return Ok(RowId { page: last, slot });
            }
        }
        let page = self.pool.allocate()?;
        pages.push(page);
        let slot = self
            .pool
            .with_page_mut(page, |p| Ok(p.insert(&bytes)))?
            .ok_or_else(|| AimError::Storage("row too large for a fresh page".into()))?;
        Ok(RowId { page, slot })
    }

    /// Fetch one row by id; `None` if deleted.
    pub fn get(&self, id: RowId) -> Result<Option<Row>> {
        let page = self.pool.get(id.page)?;
        match page.get(id.slot) {
            Some(bytes) => Ok(Some(decode_row(bytes)?)),
            None => Ok(None),
        }
    }

    /// Decode the fields `keep` of the `width`-field row at `id` straight
    /// into `cols`, one lane per kept field (see
    /// [`decode_row_into`]), without building a [`Row`]. Returns
    /// `false`, appending nothing, if the slot is deleted.
    pub fn get_into(
        &self,
        id: RowId,
        width: usize,
        keep: &[usize],
        cols: &mut [ColVec],
    ) -> Result<bool> {
        let page = self.pool.get(id.page)?;
        match page.get(id.slot) {
            Some(bytes) => decode_row_into(bytes, width, keep, cols).map(|()| true),
            None => Ok(false),
        }
    }

    /// Delete a row (tombstone).
    pub fn delete(&self, id: RowId) -> Result<()> {
        self.pool.with_page_mut(id.page, |p| p.delete(id.slot))
    }

    /// Replace the row at `id`. The new version may land at a new RowId if
    /// it no longer fits in place; the returned id is authoritative.
    pub fn update(&self, id: RowId, row: &Row) -> Result<RowId> {
        self.delete(id)?;
        self.insert(row)
    }

    /// Materialize all live rows with their ids, in page order.
    pub fn scan(&self) -> Result<Vec<(RowId, Row)>> {
        let pages: Vec<PageId> = self.pages.lock().clone();
        let mut out = Vec::new();
        for pid in pages {
            let page = self.pool.get(pid)?;
            for (slot, bytes) in page.iter() {
                out.push((RowId { page: pid, slot }, decode_row(bytes)?));
            }
        }
        Ok(out)
    }

    /// Number of live rows (scans all pages).
    pub fn len(&self) -> Result<usize> {
        let pages: Vec<PageId> = self.pages.lock().clone();
        let mut n = 0;
        for pid in pages {
            n += self.pool.get(pid)?.live_count();
        }
        Ok(n)
    }

    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    pub fn num_pages(&self) -> usize {
        self.pages.lock().len()
    }

    /// Insertion high-water mark: the last page and its slot count,
    /// captured atomically against concurrent inserts (which hold the
    /// same page-list lock while appending). Because page ids are
    /// allocated monotonically and slot ids are never reused, a row is
    /// at or beyond the mark **iff** it was inserted after this call —
    /// MVCC scans use that to exclude rows born mid-scan.
    pub fn watermark(&self) -> Result<Option<(PageId, u16)>> {
        let pages = self.pages.lock();
        match pages.last() {
            None => Ok(None),
            Some(&last) => {
                let n = self.pool.get(last)?.slot_count();
                Ok(Some((last, n)))
            }
        }
    }

    /// Open a streaming cursor over the heap for batched scans. The
    /// cursor snapshots the page list at open time; rows inserted after
    /// that may or may not be observed (same guarantee as [`scan`]).
    ///
    /// [`scan`]: HeapFile::scan
    pub fn scan_cursor(&self) -> HeapScanCursor {
        HeapScanCursor {
            pool: Arc::clone(&self.pool),
            pages: self.pages.lock().clone(),
            pos: 0,
        }
    }

    /// Snapshot the heap for concurrent morsel-driven scans: the page
    /// list is captured once, and every cursor handed out by the
    /// returned source reads that same snapshot, so parallel workers
    /// observe exactly the rows a serial [`scan_cursor`] at the same
    /// instant would (the buffer pool itself is safe for concurrent
    /// readers).
    ///
    /// [`scan_cursor`]: HeapFile::scan_cursor
    pub fn morsel_source(&self) -> MorselSource {
        MorselSource {
            pool: Arc::clone(&self.pool),
            pages: Arc::new(self.pages.lock().clone()),
        }
    }
}

/// A sharable snapshot of a heap file's page list, from which workers
/// open cursors over page sub-ranges (morsels). `Send + Sync`: clone it
/// (cheap — two `Arc`s) or reference it from scoped worker threads.
#[derive(Clone)]
pub struct MorselSource {
    pool: Arc<BufferPool>,
    pages: Arc<Vec<PageId>>,
}

impl MorselSource {
    /// Pages in the snapshot.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// A cursor over the page-index range `[start, end)` of the
    /// snapshot (clamped to the snapshot length).
    pub fn cursor(&self, start: usize, end: usize) -> HeapScanCursor {
        let end = end.min(self.pages.len());
        let start = start.min(end);
        HeapScanCursor {
            pool: Arc::clone(&self.pool),
            pages: self.pages[start..end].to_vec(),
            pos: 0,
        }
    }

    /// A dispenser that partitions this snapshot into `morsel_pages`-page
    /// morsels.
    pub fn dispenser(&self, morsel_pages: usize) -> MorselDispenser {
        MorselDispenser::new(self.pages.len(), morsel_pages)
    }
}

/// A claimed unit of scan work: the half-open page-index range
/// `[start, end)` plus the morsel's sequence number. Merging worker
/// outputs in `index` order reproduces the serial scan's row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsel {
    /// Sequence number: morsel `i` covers pages `[i*size, (i+1)*size)`.
    pub index: usize,
    pub start: usize,
    pub end: usize,
}

/// Shared atomic work dispenser: partitions `page_count` pages into
/// fixed-size morsels that worker threads [`claim`] lock-free until the
/// range is exhausted. Every page lands in exactly one morsel, in order,
/// with no overlap — the property test in `tests/proptests.rs` pins this
/// for arbitrary `(page_count, morsel_pages)` including empty heaps.
///
/// [`claim`]: MorselDispenser::claim
pub struct MorselDispenser {
    page_count: usize,
    morsel_pages: usize,
    next: AtomicUsize,
}

impl MorselDispenser {
    /// `morsel_pages` is clamped to at least 1.
    pub fn new(page_count: usize, morsel_pages: usize) -> Self {
        MorselDispenser {
            page_count,
            morsel_pages: morsel_pages.max(1),
            next: AtomicUsize::new(0),
        }
    }

    /// Claim the next unclaimed morsel; `None` once all pages are
    /// handed out. Safe to call from any number of threads.
    pub fn claim(&self) -> Option<Morsel> {
        loop {
            // ordering: Relaxed — the counter only partitions indices; the
            // page data a claim grants access to is handed out under the
            // buffer pool's lock, which provides the synchronization.
            let start = self.next.load(Ordering::Relaxed);
            if start >= self.page_count {
                return None;
            }
            let end = (start + self.morsel_pages).min(self.page_count);
            // ordering: Relaxed on success and failure — same reasoning;
            // the CAS itself is atomic, and no payload is published.
            if self
                .next
                .compare_exchange_weak(start, end, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return Some(Morsel {
                    index: start / self.morsel_pages,
                    start,
                    end,
                });
            }
        }
    }

    /// Total morsels this dispenser will hand out.
    pub fn morsel_count(&self) -> usize {
        self.page_count.div_ceil(self.morsel_pages)
    }
}

/// Streaming heap-scan cursor: decodes whole pages at a time into the
/// caller's column builders so the vectorized executor can fill column
/// batches without per-row dispatch.
pub struct HeapScanCursor {
    pool: Arc<BufferPool>,
    pages: Vec<PageId>,
    pos: usize,
}

impl HeapScanCursor {
    /// Decode live rows straight into column builders — no per-row
    /// [`Row`] allocation. Each row has `width` fields, of which the ones
    /// `keep` names go into `cols`, one lane per kept field (see
    /// [`decode_row_into`]). Appends at least `min_rows` rows to every
    /// column in `cols` (whole pages at a time, so it may overshoot) and
    /// returns `(rows_appended, more)` where `more` is `false` once the
    /// cursor is exhausted. Slots whose [`RowId`] the optional `vis`
    /// filter rejects are skipped without being decoded: MVCC snapshot
    /// scans pass the snapshot's visibility predicate here; `None`
    /// decodes every live slot (physical scan). With a `rids` sink, the
    /// [`RowId`] of every decoded row is pushed onto it, in row order.
    pub fn fill_batch_vis(
        &mut self,
        min_rows: usize,
        width: usize,
        keep: &[usize],
        cols: &mut [ColVec],
        vis: Option<&(dyn Fn(RowId) -> bool + Sync)>,
        mut rids: Option<&mut Vec<RowId>>,
    ) -> Result<(usize, bool)> {
        let mut appended = 0usize;
        while self.pos < self.pages.len() {
            if appended >= min_rows {
                return Ok((appended, true));
            }
            let pid = self.pages[self.pos];
            self.pos += 1;
            let page = self.pool.get(pid)?;
            for (slot, bytes) in page.iter() {
                if let Some(f) = vis {
                    if !f(RowId { page: pid, slot }) {
                        continue;
                    }
                }
                decode_row_into(bytes, width, keep, cols)?;
                if let Some(rids) = rids.as_mut() {
                    rids.push(RowId { page: pid, slot });
                }
                appended += 1;
            }
        }
        Ok((appended, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::Disk;
    use aimdb_common::Value;

    fn heap() -> HeapFile {
        let disk = Arc::new(Disk::new());
        let pool = Arc::new(BufferPool::new(disk, 16));
        HeapFile::new(pool)
    }

    fn row(i: i64) -> Row {
        Row::new(vec![Value::Int(i), Value::Text(format!("row-{i}"))])
    }

    #[test]
    fn insert_get_roundtrip() {
        let h = heap();
        let id = h.insert(&row(1)).unwrap();
        assert_eq!(h.get(id).unwrap().unwrap(), row(1));
    }

    #[test]
    fn scan_returns_all_in_order() {
        let h = heap();
        for i in 0..500 {
            h.insert(&row(i)).unwrap();
        }
        let rows = h.scan().unwrap();
        assert_eq!(rows.len(), 500);
        assert!(h.num_pages() > 1, "should have spilled to multiple pages");
        assert_eq!(rows[0].1, row(0));
        assert_eq!(rows[499].1, row(499));
    }

    #[test]
    fn delete_hides_row() {
        let h = heap();
        let a = h.insert(&row(1)).unwrap();
        let b = h.insert(&row(2)).unwrap();
        h.delete(a).unwrap();
        assert!(h.get(a).unwrap().is_none());
        assert_eq!(h.get(b).unwrap().unwrap(), row(2));
        assert_eq!(h.len().unwrap(), 1);
    }

    #[test]
    fn update_moves_row() {
        let h = heap();
        let a = h.insert(&row(1)).unwrap();
        let a2 = h.update(a, &row(99)).unwrap();
        assert!(h.get(a).unwrap().is_none());
        assert_eq!(h.get(a2).unwrap().unwrap(), row(99));
    }

    /// Stream `cur` to its end through an Int and a Text lane,
    /// `min_rows` a call, pairing each row with the id the visibility
    /// hook was asked about.
    fn stream(mut cur: HeapScanCursor, min_rows: usize) -> Vec<(RowId, Row)> {
        use aimdb_common::DataType;
        let ids = std::sync::Mutex::new(Vec::new());
        let vis = |rid: RowId| {
            ids.lock().unwrap().push(rid);
            true
        };
        let mut cols = vec![
            ColVec::with_capacity(DataType::Int, min_rows),
            ColVec::with_capacity(DataType::Text, min_rows),
        ];
        let mut total = 0;
        loop {
            let (n, more) = cur
                .fill_batch_vis(min_rows, 2, &[0, 1], &mut cols, Some(&vis), None)
                .unwrap();
            total += n;
            if !more {
                break;
            }
        }
        let ids = ids.into_inner().unwrap();
        assert_eq!(ids.len(), total);
        ids.into_iter()
            .enumerate()
            .map(|(i, id)| (id, Row::new(vec![cols[0].value(i), cols[1].value(i)])))
            .collect()
    }

    #[test]
    fn scan_cursor_matches_scan() {
        let h = heap();
        for i in 0..500 {
            h.insert(&row(i)).unwrap();
        }
        h.delete(RowId {
            page: h.scan().unwrap()[3].0.page,
            slot: h.scan().unwrap()[3].0.slot,
        })
        .unwrap();
        let want = h.scan().unwrap();
        assert_eq!(stream(h.scan_cursor(), 64), want);
    }

    #[test]
    fn fill_batch_matches_scan() {
        use aimdb_common::DataType;
        let h = heap();
        for i in 0..500 {
            h.insert(&row(i)).unwrap();
        }
        let ids: Vec<RowId> = h.scan().unwrap().iter().map(|(id, _)| *id).collect();
        h.delete(ids[3]).unwrap();
        h.delete(ids[499]).unwrap();
        let want = h.scan().unwrap();
        let mut cur = h.scan_cursor();
        let mut cols = vec![
            ColVec::with_capacity(DataType::Int, 64),
            ColVec::with_capacity(DataType::Text, 64),
        ];
        let mut total = 0;
        loop {
            let (n, more) = cur
                .fill_batch_vis(64, 2, &[0, 1], &mut cols, None, None)
                .unwrap();
            total += n;
            if !more {
                break;
            }
        }
        assert_eq!(total, want.len());
        for (i, (_, r)) in want.iter().enumerate() {
            assert_eq!(&cols[0].value(i), r.get(0));
            assert_eq!(&cols[1].value(i), r.get(1));
        }
    }

    #[test]
    fn fill_batch_vis_skips_filtered_rows() {
        use aimdb_common::DataType;
        let h = heap();
        for i in 0..200 {
            h.insert(&row(i)).unwrap();
        }
        let ids: Vec<RowId> = h.scan().unwrap().iter().map(|(id, _)| *id).collect();
        let hidden: std::collections::HashSet<RowId> = ids.iter().copied().step_by(3).collect();
        let mut cur = h.scan_cursor();
        let mut cols = vec![
            ColVec::with_capacity(DataType::Int, 64),
            ColVec::with_capacity(DataType::Text, 64),
        ];
        let vis = |rid: RowId| !hidden.contains(&rid);
        let mut total = 0;
        let mut rids = Vec::new();
        loop {
            let (n, more) = cur
                .fill_batch_vis(64, 2, &[0, 1], &mut cols, Some(&vis), Some(&mut rids))
                .unwrap();
            total += n;
            if !more {
                break;
            }
        }
        assert_eq!(total, 200 - hidden.len());
        // the sink names each decoded row, in row order
        let shown: Vec<RowId> = ids.iter().copied().filter(|r| vis(*r)).collect();
        assert_eq!(rids, shown);
        for i in 0..total {
            match cols[0].value(i) {
                Value::Int(v) => assert!(v % 3 != 0, "hidden row {v} leaked"),
                other => panic!("unexpected value {other:?}"),
            }
        }
    }

    #[test]
    fn fill_batch_on_empty_heap() {
        use aimdb_common::DataType;
        let h = heap();
        let mut cur = h.scan_cursor();
        let mut cols = vec![ColVec::with_capacity(DataType::Int, 8)];
        assert_eq!(
            cur.fill_batch_vis(8, 1, &[0], &mut cols, None, None)
                .unwrap(),
            (0, false)
        );
        assert!(cols[0].is_empty());
    }

    #[test]
    fn scan_cursor_on_empty_heap() {
        // pages that hold only deleted slots stream nothing
        let h = heap();
        let ids: Vec<RowId> = (0..50).map(|i| h.insert(&row(i)).unwrap()).collect();
        for id in ids {
            h.delete(id).unwrap();
        }
        assert!(h.num_pages() > 0);
        assert!(stream(h.scan_cursor(), 16).is_empty());
    }

    #[test]
    fn get_into_appends_a_live_row_and_nothing_for_a_deleted_one() {
        use aimdb_common::DataType;
        let h = heap();
        let a = h.insert(&row(1)).unwrap();
        let b = h.insert(&row(2)).unwrap();
        h.delete(a).unwrap();
        let mut cols = vec![
            ColVec::with_capacity(DataType::Int, 2),
            ColVec::with_capacity(DataType::Text, 2),
        ];
        assert!(!h.get_into(a, 2, &[0, 1], &mut cols).unwrap());
        assert!(cols.iter().all(ColVec::is_empty));
        assert!(h.get_into(b, 2, &[0, 1], &mut cols).unwrap());
        assert!(cols.iter().all(|c| c.len() == 1));
        assert_eq!(cols[0].value(0), Value::Int(2));
        assert_eq!(cols[1].value(0), Value::Text("row-2".into()));
        // a tombstone after a live row still appends nothing
        assert!(!h.get_into(a, 2, &[0, 1], &mut cols).unwrap());
        assert!(cols.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn empty_heap() {
        let h = heap();
        assert!(h.is_empty().unwrap());
        assert_eq!(h.scan().unwrap().len(), 0);
    }

    #[test]
    fn dispenser_partitions_exactly() {
        let d = MorselDispenser::new(10, 3);
        assert_eq!(d.morsel_count(), 4);
        let got: Vec<Morsel> = std::iter::from_fn(|| d.claim()).collect();
        assert_eq!(got.len(), 4);
        assert_eq!(
            got[0],
            Morsel {
                index: 0,
                start: 0,
                end: 3
            }
        );
        assert_eq!(
            got[3],
            Morsel {
                index: 3,
                start: 9,
                end: 10
            }
        );
        assert!(d.claim().is_none());
    }

    #[test]
    fn dispenser_empty_and_zero_size() {
        let d = MorselDispenser::new(0, 4);
        assert_eq!(d.morsel_count(), 0);
        assert!(d.claim().is_none());
        // morsel size clamps to 1
        let d = MorselDispenser::new(2, 0);
        assert_eq!(d.morsel_count(), 2);
        assert_eq!(
            d.claim().unwrap(),
            Morsel {
                index: 0,
                start: 0,
                end: 1
            }
        );
    }

    #[test]
    fn dispenser_threaded_claims_cover_all_pages_once() {
        use std::sync::Mutex as StdMutex;
        let d = MorselDispenser::new(97, 3);
        let claimed: StdMutex<Vec<Morsel>> = StdMutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    while let Some(m) = d.claim() {
                        claimed.lock().unwrap().push(m);
                    }
                });
            }
        });
        let mut got = claimed.into_inner().unwrap();
        got.sort_by_key(|m| m.start);
        let mut covered = vec![false; 97];
        for m in &got {
            for (p, c) in covered.iter_mut().enumerate().take(m.end).skip(m.start) {
                assert!(!*c, "page {p} claimed twice");
                *c = true;
            }
        }
        assert!(covered.into_iter().all(|c| c));
        // indices are dense and order-preserving under the start sort
        for (i, m) in got.iter().enumerate() {
            assert_eq!(m.index, i);
        }
    }

    #[test]
    fn morsel_source_cursors_match_serial_scan() {
        use aimdb_common::DataType;
        let h = heap();
        for i in 0..700 {
            h.insert(&row(i)).unwrap();
        }
        let want = h.scan().unwrap();
        let src = h.morsel_source();
        assert_eq!(src.page_count(), h.num_pages());
        let d = src.dispenser(2);
        // claim all morsels, scan each, then merge in morsel order
        let mut pieces: Vec<(usize, Vec<(i64, String)>)> = Vec::new();
        while let Some(m) = d.claim() {
            let mut cur = src.cursor(m.start, m.end);
            let mut cols = vec![
                ColVec::with_capacity(DataType::Int, 64),
                ColVec::with_capacity(DataType::Text, 64),
            ];
            let mut n = 0;
            loop {
                let (k, more) = cur
                    .fill_batch_vis(64, 2, &[0, 1], &mut cols, None, None)
                    .unwrap();
                n += k;
                if !more {
                    break;
                }
            }
            let vals = (0..n)
                .map(|i| match (cols[0].value(i), cols[1].value(i)) {
                    (Value::Int(a), Value::Text(b)) => (a, b),
                    other => panic!("unexpected values {other:?}"),
                })
                .collect();
            pieces.push((m.index, vals));
        }
        pieces.sort_by_key(|(i, _)| *i);
        let merged: Vec<(i64, String)> = pieces.into_iter().flat_map(|(_, v)| v).collect();
        let want: Vec<(i64, String)> = want
            .into_iter()
            .map(|(_, r)| match (r.get(0), r.get(1)) {
                (Value::Int(a), Value::Text(b)) => (*a, b.clone()),
                other => panic!("unexpected row {other:?}"),
            })
            .collect();
        assert_eq!(merged, want);
    }
}
