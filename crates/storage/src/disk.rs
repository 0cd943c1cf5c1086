//! Simulated disk: a page store with I/O accounting and a durable WAL
//! byte area.
//!
//! The tutorial's AI4DB techniques (knob tuning, index advice, KV design)
//! all reason about I/O cost. Rather than stubbing "assume a disk exists",
//! this is a real page store — just backed by memory — whose read/write
//! counters are the ground-truth signal those components learn from.
//!
//! [`PageStore`] is the boundary the buffer pool and WAL sit on. [`Disk`]
//! is the plain implementation; [`crate::fault::FaultInjector`] wraps any
//! `PageStore` to inject torn writes, I/O errors, and crash points for the
//! recovery harness.

use std::collections::HashMap;

use parking_lot::Mutex;

use aimdb_common::{AimError, LockRank, Result};

use crate::page::{Page, PageId, PAGE_SIZE};

/// The storage boundary: page I/O plus an append-only durable log area.
///
/// A `wal_append` models a synchronous log write (the bytes are durable
/// once the call returns `Ok`); `wal_bytes` models reading the log back at
/// recovery time and returns only what survived.
pub trait PageStore: Send + Sync {
    /// Allocate a fresh zeroed page and return its id.
    fn allocate(&self) -> Result<PageId>;
    fn read(&self, id: PageId) -> Result<Page>;
    fn write(&self, id: PageId, page: &Page) -> Result<()>;
    fn num_pages(&self) -> usize;
    fn stats(&self) -> DiskStats;
    /// Reset counters (between experiment phases).
    fn reset_stats(&self);
    /// Durably append bytes to the log area (an fsync'd write).
    fn wal_append(&self, bytes: &[u8]) -> Result<()>;
    /// The durable log byte stream, for recovery.
    fn wal_bytes(&self) -> Result<Vec<u8>>;
    /// Durable log length in bytes.
    fn wal_len(&self) -> usize;
    /// Truncate the log area to `len` bytes (discard a corrupt tail).
    /// No-op if already shorter.
    fn wal_truncate(&self, len: usize) -> Result<()>;
    /// Atomically discard the first `n` bytes of the durable log — a
    /// switch to a new log segment that starts at byte `n`: after a crash
    /// the log is either whole or exactly `n` bytes shorter at the front,
    /// never in between. Returns how many bytes were dropped. A store
    /// that cannot cut its log keeps everything and returns 0; callers
    /// subtract only what this returns.
    fn wal_drop_prefix(&self, _n: usize) -> Result<usize> {
        Ok(0)
    }
}

/// Cumulative I/O counters for a [`Disk`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    pub reads: u64,
    pub writes: u64,
    pub allocations: u64,
    /// Durable log writes (WAL flushes reaching the disk).
    pub wal_appends: u64,
}

impl DiskStats {
    /// A simple cost metric: sequential-vs-random distinction is handled by
    /// higher-level cost models; the disk itself charges one unit per I/O.
    pub fn total_ios(&self) -> u64 {
        self.reads + self.writes
    }
}

struct DiskInner {
    pages: HashMap<PageId, Box<[u8; PAGE_SIZE]>>,
    wal: Vec<u8>,
    next_id: u64,
    stats: DiskStats,
}

/// An in-memory simulated disk. Thread-safe; all methods take `&self`.
pub struct Disk {
    inner: Mutex<DiskInner>,
}

impl Default for Disk {
    fn default() -> Self {
        Disk::new()
    }
}

impl Disk {
    pub fn new() -> Self {
        Disk {
            inner: Mutex::with_rank(
                DiskInner {
                    pages: HashMap::new(),
                    wal: Vec::new(),
                    next_id: 0,
                    stats: DiskStats::default(),
                },
                LockRank::DiskInner,
            ),
        }
    }

    /// Allocate a fresh zeroed page and return its id.
    pub fn allocate(&self) -> Result<PageId> {
        let mut inner = self.inner.lock();
        let id = PageId(inner.next_id);
        inner.next_id += 1;
        inner.stats.allocations += 1;
        let bytes: Box<[u8; PAGE_SIZE]> = Page::new()
            .as_bytes()
            .try_into()
            .map(Box::new)
            .map_err(|_| AimError::Storage("page buffer has wrong length".into()))?;
        inner.pages.insert(id, bytes);
        Ok(id)
    }

    pub fn read(&self, id: PageId) -> Result<Page> {
        let mut inner = self.inner.lock();
        inner.stats.reads += 1;
        let bytes = inner
            .pages
            .get(&id)
            .ok_or_else(|| AimError::Storage(format!("read of unallocated page {id:?}")))?;
        Page::from_bytes(&bytes[..])
    }

    pub fn write(&self, id: PageId, page: &Page) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.stats.writes += 1;
        let slot = inner
            .pages
            .get_mut(&id)
            .ok_or_else(|| AimError::Storage(format!("write to unallocated page {id:?}")))?;
        slot.copy_from_slice(page.as_bytes());
        Ok(())
    }

    pub fn num_pages(&self) -> usize {
        self.inner.lock().pages.len()
    }

    pub fn stats(&self) -> DiskStats {
        self.inner.lock().stats
    }

    /// Reset counters (between experiment phases).
    pub fn reset_stats(&self) {
        self.inner.lock().stats = DiskStats::default();
    }

    /// Durably append bytes to the WAL area.
    pub fn wal_append(&self, bytes: &[u8]) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.stats.wal_appends += 1;
        inner.wal.extend_from_slice(bytes);
        Ok(())
    }

    /// The durable WAL byte stream.
    pub fn wal_bytes(&self) -> Result<Vec<u8>> {
        Ok(self.inner.lock().wal.clone())
    }

    pub fn wal_len(&self) -> usize {
        self.inner.lock().wal.len()
    }

    /// Truncate the WAL area to `len` bytes.
    pub fn wal_truncate(&self, len: usize) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.wal.truncate(len);
        Ok(())
    }

    /// Drop the first `n` bytes of the WAL area (all of it if shorter)
    /// and return how many went. The remainder moves to an allocation of
    /// its own size, so the dropped segment's memory is given back.
    pub fn wal_drop_prefix(&self, n: usize) -> Result<usize> {
        let mut inner = self.inner.lock();
        let n = n.min(inner.wal.len());
        inner.wal = inner.wal.split_off(n);
        Ok(n)
    }
}

impl PageStore for Disk {
    fn allocate(&self) -> Result<PageId> {
        Disk::allocate(self)
    }

    fn read(&self, id: PageId) -> Result<Page> {
        Disk::read(self, id)
    }

    fn write(&self, id: PageId, page: &Page) -> Result<()> {
        Disk::write(self, id, page)
    }

    fn num_pages(&self) -> usize {
        Disk::num_pages(self)
    }

    fn stats(&self) -> DiskStats {
        Disk::stats(self)
    }

    fn reset_stats(&self) {
        Disk::reset_stats(self)
    }

    fn wal_append(&self, bytes: &[u8]) -> Result<()> {
        Disk::wal_append(self, bytes)
    }

    fn wal_bytes(&self) -> Result<Vec<u8>> {
        Disk::wal_bytes(self)
    }

    fn wal_len(&self) -> usize {
        Disk::wal_len(self)
    }

    fn wal_truncate(&self, len: usize) -> Result<()> {
        Disk::wal_truncate(self, len)
    }

    fn wal_drop_prefix(&self, n: usize) -> Result<usize> {
        Disk::wal_drop_prefix(self, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_read_write_roundtrip() {
        let d = Disk::new();
        let id = d.allocate().unwrap();
        let mut p = d.read(id).unwrap();
        p.insert(b"abc").unwrap();
        d.write(id, &p).unwrap();
        let q = d.read(id).unwrap();
        assert_eq!(q.get(0).unwrap(), b"abc");
    }

    #[test]
    fn unallocated_page_errors() {
        let d = Disk::new();
        assert!(d.read(PageId(99)).is_err());
        assert!(d.write(PageId(99), &Page::new()).is_err());
    }

    #[test]
    fn stats_count_ios() {
        let d = Disk::new();
        let id = d.allocate().unwrap();
        let _ = d.read(id).unwrap();
        let _ = d.read(id).unwrap();
        d.write(id, &Page::new()).unwrap();
        let s = d.stats();
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.allocations, 1);
        assert_eq!(s.total_ios(), 3);
        d.reset_stats();
        assert_eq!(d.stats().total_ios(), 0);
    }

    #[test]
    fn page_ids_are_unique() {
        let d = Disk::new();
        let a = d.allocate().unwrap();
        let b = d.allocate().unwrap();
        assert_ne!(a, b);
        assert_eq!(d.num_pages(), 2);
    }

    #[test]
    fn wal_area_appends_durably() {
        let d = Disk::new();
        assert_eq!(d.wal_len(), 0);
        d.wal_append(b"abc").unwrap();
        d.wal_append(b"def").unwrap();
        assert_eq!(d.wal_bytes().unwrap(), b"abcdef");
        assert_eq!(d.wal_len(), 6);
        assert_eq!(d.stats().wal_appends, 2);
    }

    #[test]
    fn wal_drop_prefix_cuts_the_front_and_reports_what_went() {
        let d = Disk::new();
        d.wal_append(b"abcdef").unwrap();
        assert_eq!(d.wal_drop_prefix(4).unwrap(), 4);
        assert_eq!(d.wal_bytes().unwrap(), b"ef");
        d.wal_append(b"gh").unwrap();
        assert_eq!(d.wal_bytes().unwrap(), b"efgh");
        assert_eq!(d.wal_drop_prefix(99).unwrap(), 4, "clamped to the length");
        assert_eq!(d.wal_len(), 0);
    }
}
