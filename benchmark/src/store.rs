//! `CountingStore`: a [`PageStore`] that forwards to a [`Disk`] and counts
//! calls, bytes and time — the storage layer measured from outside.
//!
//! The product's `DiskStats` counts calls only. Time in the store and
//! bytes appended to the log are what `storage.disk.busy_share` and
//! `storage.wal.bytes_per_commit` need, so traced runs put the database
//! on this wrapper. Counting is switchable so the untraced slices of a
//! traced run pay one relaxed load per call and nothing else.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use aimdb_common::Result;
use aimdb_storage::disk::{Disk, DiskStats, PageStore};
use aimdb_storage::page::{Page, PageId};

/// Cumulative counters; all monotone, read as before/after snapshots.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreCounts {
    pub page_reads: u64,
    pub page_writes: u64,
    pub allocations: u64,
    pub wal_appends: u64,
    pub wal_bytes: u64,
    /// Nanoseconds spent inside the wrapped store, all calls.
    pub busy_ns: u64,
}

impl StoreCounts {
    pub fn delta_since(&self, earlier: &StoreCounts) -> StoreCounts {
        StoreCounts {
            page_reads: self.page_reads - earlier.page_reads,
            page_writes: self.page_writes - earlier.page_writes,
            allocations: self.allocations - earlier.allocations,
            wal_appends: self.wal_appends - earlier.wal_appends,
            wal_bytes: self.wal_bytes - earlier.wal_bytes,
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }
}

pub struct CountingStore {
    inner: Arc<Disk>,
    counting: AtomicBool,
    page_reads: AtomicU64,
    page_writes: AtomicU64,
    allocations: AtomicU64,
    wal_appends: AtomicU64,
    wal_bytes: AtomicU64,
    busy_ns: AtomicU64,
}

impl CountingStore {
    pub fn new(inner: Arc<Disk>) -> CountingStore {
        CountingStore {
            inner,
            counting: AtomicBool::new(false),
            page_reads: AtomicU64::new(0),
            page_writes: AtomicU64::new(0),
            allocations: AtomicU64::new(0),
            wal_appends: AtomicU64::new(0),
            wal_bytes: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }

    pub fn set_counting(&self, on: bool) {
        // Relaxed: the flag gates statistics only; a call that sees the
        // old value is counted (or not) in the neighbouring slice.
        self.counting.store(on, Ordering::Relaxed);
    }

    pub fn counts(&self) -> StoreCounts {
        StoreCounts {
            page_reads: self.page_reads.load(Ordering::Relaxed),
            page_writes: self.page_writes.load(Ordering::Relaxed),
            allocations: self.allocations.load(Ordering::Relaxed),
            wal_appends: self.wal_appends.load(Ordering::Relaxed),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }

    /// Forward one call, counting it and its time when counting is on.
    fn counted<T>(&self, counter: &AtomicU64, f: impl FnOnce(&Disk) -> T) -> T {
        if !self.counting.load(Ordering::Relaxed) {
            return f(&self.inner);
        }
        let t0 = Instant::now();
        let out = f(&self.inner);
        self.busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        counter.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl PageStore for CountingStore {
    fn allocate(&self) -> Result<PageId> {
        self.counted(&self.allocations, Disk::allocate)
    }

    fn read(&self, id: PageId) -> Result<Page> {
        self.counted(&self.page_reads, |d| d.read(id))
    }

    fn write(&self, id: PageId, page: &Page) -> Result<()> {
        self.counted(&self.page_writes, |d| d.write(id, page))
    }

    fn num_pages(&self) -> usize {
        self.inner.num_pages()
    }

    fn stats(&self) -> DiskStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
    }

    fn wal_append(&self, bytes: &[u8]) -> Result<()> {
        if self.counting.load(Ordering::Relaxed) {
            self.wal_bytes
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        self.counted(&self.wal_appends, |d| d.wal_append(bytes))
    }

    fn wal_bytes(&self) -> Result<Vec<u8>> {
        self.inner.wal_bytes()
    }

    fn wal_len(&self) -> usize {
        self.inner.wal_len()
    }

    fn wal_truncate(&self, len: usize) -> Result<()> {
        self.inner.wal_truncate(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_while_counting_and_always_forwards() {
        let disk = Arc::new(Disk::new());
        let store = CountingStore::new(Arc::clone(&disk));
        let id = store.allocate().expect("allocate");
        store.wal_append(b"abc").expect("append");
        assert_eq!(store.counts().allocations, 0);
        assert_eq!(disk.num_pages(), 1);
        store.set_counting(true);
        let page = store.read(id).expect("read");
        store.write(id, &page).expect("write");
        store.wal_append(b"defgh").expect("append");
        let c = store.counts();
        assert_eq!(
            (c.page_reads, c.page_writes, c.wal_appends, c.wal_bytes),
            (1, 1, 1, 5)
        );
        assert_eq!(disk.wal_len(), 8);
    }
}
