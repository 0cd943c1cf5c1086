//! Fixed-size pages with a slotted layout.
//!
//! Layout (little-endian):
//! ```text
//! [0..2)   slot_count: u16
//! [2..4)   free_space_offset: u16   (end of free region; tuples grow down)
//! [4..)    slot directory: slot_count entries of (offset: u16, len: u16)
//! [...]    free space
//! [...]    tuple data (grows from the end of the page toward the directory)
//! ```
//! `len == 0` marks a deleted slot; slot indices are stable so `RowId`s
//! remain valid across deletions.

use aimdb_common::{AimError, Result};

/// Size of every page, in bytes. 4 KiB mirrors common DBMS defaults.
pub const PAGE_SIZE: usize = 4096;

const HEADER: usize = 4;
const SLOT: usize = 4;

/// Identifies a page within a [`crate::disk::Disk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

/// A slotted page. Owns its bytes; the buffer pool shares these as
/// `Arc<Page>` and copies one only to write it while a reader holds it.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Page::new()
    }
}

impl Page {
    /// A fresh, empty page.
    pub fn new() -> Self {
        let mut data = Box::new([0u8; PAGE_SIZE]);
        // free_space_offset starts at the end of the page
        data[2..4].copy_from_slice(&(PAGE_SIZE as u16).to_le_bytes());
        Page { data }
    }

    /// A page holding a copy of `bytes` — one copy into a fresh heap
    /// allocation, no zero-fill first.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let data = <Box<[u8; PAGE_SIZE]>>::try_from(Box::<[u8]>::from(bytes)).map_err(|b| {
            AimError::Storage(format!("page must be {PAGE_SIZE} bytes, got {}", b.len()))
        })?;
        Ok(Page { data })
    }

    pub fn as_bytes(&self) -> &[u8] {
        &self.data[..]
    }

    /// Number of slots ever allocated in this page (tombstoned slots
    /// included — slot ids are never reused).
    pub fn slot_count(&self) -> u16 {
        u16::from_le_bytes([self.data[0], self.data[1]])
    }

    fn free_offset(&self) -> u16 {
        u16::from_le_bytes([self.data[2], self.data[3]])
    }

    fn set_slot_count(&mut self, n: u16) {
        self.data[0..2].copy_from_slice(&n.to_le_bytes());
    }

    fn set_free_offset(&mut self, off: u16) {
        self.data[2..4].copy_from_slice(&off.to_le_bytes());
    }

    fn slot(&self, idx: u16) -> (u16, u16) {
        let base = HEADER + idx as usize * SLOT;
        let off = u16::from_le_bytes([self.data[base], self.data[base + 1]]);
        let len = u16::from_le_bytes([self.data[base + 2], self.data[base + 3]]);
        (off, len)
    }

    fn set_slot(&mut self, idx: u16, off: u16, len: u16) {
        let base = HEADER + idx as usize * SLOT;
        self.data[base..base + 2].copy_from_slice(&off.to_le_bytes());
        self.data[base + 2..base + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Bytes of free space available for one more tuple (including its
    /// slot-directory entry).
    pub fn free_space(&self) -> usize {
        let dir_end = HEADER + self.slot_count() as usize * SLOT;
        (self.free_offset() as usize).saturating_sub(dir_end)
    }

    /// Insert a tuple; returns the slot index, or `None` if it doesn't fit.
    pub fn insert(&mut self, tuple: &[u8]) -> Option<u16> {
        if tuple.len() + SLOT > self.free_space() || tuple.len() > u16::MAX as usize {
            return None;
        }
        let slot_idx = self.slot_count();
        let new_off = self.free_offset() as usize - tuple.len();
        self.data[new_off..new_off + tuple.len()].copy_from_slice(tuple);
        self.set_slot(slot_idx, new_off as u16, tuple.len() as u16);
        self.set_slot_count(slot_idx + 1);
        self.set_free_offset(new_off as u16);
        Some(slot_idx)
    }

    /// Read the tuple in `slot`, or `None` if out of range or deleted.
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let (off, len) = self.slot(slot);
        if len == 0 {
            return None;
        }
        Some(&self.data[off as usize..(off + len) as usize])
    }

    /// Tombstone a slot. Space is not compacted (slot ids stay stable).
    pub fn delete(&mut self, slot: u16) -> Result<()> {
        if slot >= self.slot_count() {
            return Err(AimError::Storage(format!("slot {slot} out of range")));
        }
        let (off, _) = self.slot(slot);
        self.set_slot(slot, off, 0);
        Ok(())
    }

    /// Iterate live `(slot, tuple)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u8])> + '_ {
        (0..self.slot_count()).filter_map(move |s| self.get(s).map(|t| (s, t)))
    }

    /// Number of live (non-deleted) tuples.
    pub fn live_count(&self) -> usize {
        self.iter().count()
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("slots", &self.slot_count())
            .field("free", &self.free_space())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_get_roundtrip() {
        let mut p = Page::new();
        let s0 = p.insert(b"hello").unwrap();
        let s1 = p.insert(b"world!").unwrap();
        assert_eq!(p.get(s0).unwrap(), b"hello");
        assert_eq!(p.get(s1).unwrap(), b"world!");
        assert_eq!(p.live_count(), 2);
    }

    #[test]
    fn delete_tombstones_but_keeps_slot_ids() {
        let mut p = Page::new();
        let s0 = p.insert(b"a").unwrap();
        let s1 = p.insert(b"b").unwrap();
        p.delete(s0).unwrap();
        assert!(p.get(s0).is_none());
        assert_eq!(p.get(s1).unwrap(), b"b");
        assert_eq!(p.live_count(), 1);
        assert!(p.delete(99).is_err());
    }

    #[test]
    fn fills_up_and_rejects_overflow() {
        let mut p = Page::new();
        let tuple = [7u8; 100];
        let mut n = 0;
        while p.insert(&tuple).is_some() {
            n += 1;
        }
        // ~ (4096 - 4) / 104 tuples
        assert!((35..=40).contains(&n), "inserted {n}");
        assert!(p.insert(&tuple).is_none());
        // a tiny tuple may still fit
        assert!(p.free_space() < 104 + 4);
    }

    #[test]
    fn serialization_roundtrip() {
        let mut p = Page::new();
        p.insert(b"persist me").unwrap();
        let q = Page::from_bytes(p.as_bytes()).unwrap();
        assert_eq!(q.get(0).unwrap(), b"persist me");
        assert!(Page::from_bytes(&[0u8; 7]).is_err());
    }

    #[test]
    fn oversized_tuple_rejected() {
        let mut p = Page::new();
        assert!(p.insert(&vec![0u8; PAGE_SIZE]).is_none());
    }
}
