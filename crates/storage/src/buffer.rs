//! Buffer pool with CLOCK (second-chance) eviction that hands out shared
//! pages.
//!
//! A frame holds its page as an `Arc<Page>`: [`BufferPool::get`] returns a
//! pointer clone, not a copy, and the caller reads it after the pool lock
//! is released. [`BufferPool::with_page_mut`] writes through
//! [`Arc::make_mut`], so it copies the page only when a reader still holds
//! the old image — that reader keeps the snapshot it took. Replacement is
//! CLOCK: a ring of resident page ids, a reference bit per frame set when
//! the page is loaded and on every hit, and a hand that clears set bits as
//! it passes and evicts the first frame whose bit is already clear — O(1)
//! amortized per miss.
//!
//! Capacity (in pages) is a live-tunable knob — the knob-tuning experiment
//! (E1) resizes it and observes the hit-rate response. Hit/miss/eviction
//! counters feed the KPI surface consumed by the monitoring components.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use aimdb_common::{wait, AimError, LockRank, Result};

use crate::disk::PageStore;
use crate::page::{Page, PageId};

/// Cumulative buffer-pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub flushes: u64,
}

impl BufferStats {
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Frame {
    page: Arc<Page>,
    dirty: bool,
    /// CLOCK reference bit: set by the load and by every hit, cleared as
    /// the hand passes.
    referenced: bool,
}

struct PoolInner {
    frames: HashMap<PageId, Frame>,
    /// Resident page ids in CLOCK order; always the keys of `frames`.
    ring: Vec<PageId>,
    /// Ring position of the next eviction candidate.
    hand: usize,
    capacity: usize,
    stats: BufferStats,
}

/// CLOCK buffer pool in front of a [`PageStore`]. One mutex guards the
/// frame table, and a miss does its `PageStore` I/O under it.
pub struct BufferPool {
    disk: Arc<dyn PageStore>,
    inner: Mutex<PoolInner>,
}

impl BufferPool {
    pub fn new(disk: Arc<dyn PageStore>, capacity: usize) -> Self {
        BufferPool {
            disk,
            inner: Mutex::with_rank(
                PoolInner {
                    frames: HashMap::new(),
                    ring: Vec::new(),
                    hand: 0,
                    capacity: capacity.max(1),
                    stats: BufferStats::default(),
                },
                LockRank::BufferPool,
            ),
        }
    }

    pub fn disk(&self) -> &Arc<dyn PageStore> {
        &self.disk
    }

    pub fn capacity(&self) -> usize {
        self.inner.lock().capacity
    }

    /// Resize the pool (the `buffer_pool_pages` knob). Shrinking evicts
    /// CLOCK victims immediately.
    pub fn resize(&self, capacity: usize) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.capacity = capacity.max(1);
        while inner.frames.len() > inner.capacity {
            let slot = Self::evict(self.disk.as_ref(), &mut inner)?;
            inner.ring.swap_remove(slot);
        }
        Ok(())
    }

    /// Run the CLOCK hand to the first frame not referenced since the hand
    /// last passed it, clearing reference bits on the way; write the frame
    /// back if dirty and drop it. Returns the ring slot it held, which
    /// still names the victim: the caller must refill or remove it.
    fn evict(disk: &dyn PageStore, inner: &mut PoolInner) -> Result<usize> {
        if inner.ring.is_empty() {
            return Err(AimError::Storage("buffer pool has nothing to evict".into()));
        }
        loop {
            let slot = inner.hand % inner.ring.len();
            let id = inner.ring[slot];
            let frame = inner
                .frames
                .get_mut(&id)
                .ok_or_else(|| AimError::Storage(format!("CLOCK ring names absent page {id:?}")))?;
            if frame.referenced {
                frame.referenced = false;
                inner.hand = slot + 1;
                continue;
            }
            if frame.dirty {
                disk.write(id, &frame.page)?;
                inner.stats.flushes += 1;
            }
            inner.frames.remove(&id);
            inner.stats.evictions += 1;
            inner.hand = slot;
            return Ok(slot);
        }
    }

    fn load<'a>(&self, inner: &'a mut PoolInner, id: PageId) -> Result<&'a mut Frame> {
        if let Some(frame) = inner.frames.get_mut(&id) {
            frame.referenced = true;
            inner.stats.hits += 1;
        } else {
            inner.stats.misses += 1;
            // A miss stalls the caller on storage: the page read plus the
            // eviction (possibly a dirty write-back) are a BufferMiss wait.
            let wait = wait::enter(wait::WaitClass::BufferMiss);
            let page = Arc::new(self.disk.read(id)?);
            if inner.frames.len() >= inner.capacity {
                let slot = Self::evict(self.disk.as_ref(), inner)?;
                inner.ring[slot] = id;
                inner.hand = slot + 1;
            } else {
                inner.ring.push(id);
            }
            drop(wait);
            inner.frames.insert(
                id,
                Frame {
                    page,
                    dirty: false,
                    // The load is the first reference. Inserting with the
                    // bit clear missed 10% more often on an equal-work
                    // TPC-C run (and 5% more than the LRU this replaced).
                    referenced: true,
                },
            );
        }
        inner
            .frames
            .get_mut(&id)
            .ok_or_else(|| AimError::Storage(format!("page {id:?} missing after load")))
    }

    /// Read a page through the pool: a shared handle to the cached frame.
    /// It stays valid, and unchanged, however the frame is later written
    /// or evicted.
    pub fn get(&self, id: PageId) -> Result<Arc<Page>> {
        let mut inner = self.inner.lock();
        Ok(Arc::clone(&self.load(&mut inner, id)?.page))
    }

    /// Mutate a page through the pool; marks the frame dirty. Copies the
    /// page first only if a reader still holds the current image.
    pub fn with_page_mut<R>(
        &self,
        id: PageId,
        f: impl FnOnce(&mut Page) -> Result<R>,
    ) -> Result<R> {
        let mut inner = self.inner.lock();
        let frame = self.load(&mut inner, id)?;
        let out = f(Arc::make_mut(&mut frame.page))?;
        frame.dirty = true;
        Ok(out)
    }

    /// Allocate a new page on disk and cache it.
    pub fn allocate(&self) -> Result<PageId> {
        let id = self.disk.allocate()?;
        let mut inner = self.inner.lock();
        // Touch it so it is resident.
        self.load(&mut inner, id)?;
        Ok(id)
    }

    /// Write all dirty frames back to disk.
    pub fn flush_all(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        let PoolInner { frames, stats, .. } = &mut *inner;
        for (&id, frame) in frames.iter_mut().filter(|(_, f)| f.dirty) {
            self.disk.write(id, &frame.page)?;
            frame.dirty = false;
            stats.flushes += 1;
        }
        Ok(())
    }

    pub fn stats(&self) -> BufferStats {
        self.inner.lock().stats
    }

    pub fn reset_stats(&self) {
        self.inner.lock().stats = BufferStats::default();
    }

    pub fn resident(&self) -> usize {
        self.inner.lock().frames.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::Disk;

    fn pool(cap: usize) -> (Arc<Disk>, BufferPool) {
        let disk = Arc::new(Disk::new());
        let pool = BufferPool::new(disk.clone(), cap);
        (disk, pool)
    }

    #[test]
    fn hit_after_first_access() {
        let (_d, p) = pool(4);
        let id = p.allocate().unwrap();
        p.reset_stats();
        let _ = p.get(id).unwrap();
        let _ = p.get(id).unwrap();
        let s = p.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 0);
    }

    /// Resident ids, sorted, read without touching reference bits; also
    /// checks that the CLOCK ring names exactly the resident frames.
    fn resident_ids(p: &BufferPool) -> Vec<PageId> {
        let inner = p.inner.lock();
        let mut ids: Vec<PageId> = inner.frames.keys().copied().collect();
        let mut ring = inner.ring.clone();
        ids.sort();
        ring.sort();
        assert_eq!(ring, ids, "ring and frame table disagree");
        ids
    }

    #[test]
    fn clock_spares_a_page_hit_since_the_hand_last_passed() {
        let (_d, p) = pool(3);
        let _a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        let c = p.allocate().unwrap();
        // Every frame was referenced by its load: the hand sweeps the ring
        // once, clearing each bit, and comes back round to take a.
        let d = p.allocate().unwrap();
        assert_eq!(resident_ids(&p), vec![b, c, d]);
        // Since the hand passed them, c was hit and b was not.
        let _ = p.get(c).unwrap();
        let e = p.allocate().unwrap();
        assert_eq!(resident_ids(&p), vec![c, d, e]);
        assert_eq!(p.stats().evictions, 2);
    }

    #[test]
    fn readers_keep_their_snapshot_across_writes() {
        let (_d, p) = pool(2);
        let a = p.allocate().unwrap();
        let before = p.get(a).unwrap();
        p.with_page_mut(a, |pg| {
            pg.insert(b"new").unwrap();
            Ok(())
        })
        .unwrap();
        assert_eq!(
            before.live_count(),
            0,
            "old handle still reads the old image"
        );
        let after = p.get(a).unwrap();
        assert_eq!(after.get(0).unwrap(), b"new");
        // An unshared frame is written in place: no copy, same allocation.
        drop(before);
        let ptr = Arc::as_ptr(&after);
        drop(after);
        p.with_page_mut(a, |pg| {
            pg.insert(b"again").unwrap();
            Ok(())
        })
        .unwrap();
        assert_eq!(Arc::as_ptr(&p.get(a).unwrap()), ptr);
    }

    #[test]
    fn dirty_page_survives_eviction() {
        let (_d, p) = pool(1);
        let a = p.allocate().unwrap();
        p.with_page_mut(a, |pg| {
            pg.insert(b"keep").unwrap();
            Ok(())
        })
        .unwrap();
        let _b = p.allocate().unwrap(); // evicts a, must flush
        let back = p.get(a).unwrap();
        assert_eq!(back.get(0).unwrap(), b"keep");
    }

    #[test]
    fn resize_shrinks_and_grows() {
        let (_d, p) = pool(8);
        for _ in 0..8 {
            p.allocate().unwrap();
        }
        assert_eq!(p.resident(), 8);
        p.resize(3).unwrap();
        assert_eq!(p.resident(), 3);
        assert_eq!(p.capacity(), 3);
        p.resize(0).unwrap(); // clamped to 1
        assert_eq!(p.capacity(), 1);
        assert_eq!(resident_ids(&p).len(), 1);
        p.resize(4).unwrap();
        for _ in 0..6 {
            p.allocate().unwrap();
        }
        assert_eq!(resident_ids(&p).len(), 4);
    }

    #[test]
    fn flush_all_persists_dirty_frames() {
        let (d, p) = pool(4);
        let a = p.allocate().unwrap();
        p.with_page_mut(a, |pg| {
            pg.insert(b"x").unwrap();
            Ok(())
        })
        .unwrap();
        p.flush_all().unwrap();
        // bypass the pool: disk copy must contain the tuple
        let raw = d.read(a).unwrap();
        assert_eq!(raw.get(0).unwrap(), b"x");
    }

    #[test]
    fn hit_rate_math() {
        let s = BufferStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(BufferStats::default().hit_rate(), 0.0);
    }
}
