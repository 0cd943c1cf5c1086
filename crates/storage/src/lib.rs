//! # aimdb-storage
//!
//! The physical storage substrate: a simulated disk with I/O accounting, a
//! buffer pool that shares pages as `Arc<Page>` and evicts by CLOCK,
//! slotted-page heap files, a B+tree index,
//! row value serialization, and a durable CRC-checked write-ahead log with
//! a fault-injection layer for crash-recovery testing.
//!
//! Everything is in-process and deterministic. The simulated disk counts
//! reads and writes so higher layers (cost models, knob tuning, the learned
//! KV-design experiment) can reason about I/O without real hardware, and
//! exposes a durable WAL byte area that survives simulated crashes.

pub mod btree;
pub mod buffer;
pub mod codec;
pub mod disk;
pub mod fault;
pub mod heap;
pub mod page;
pub mod wal;

pub use btree::{BTree, RangeCursor};
pub use buffer::{BufferPool, BufferStats};
pub use disk::{Disk, DiskStats, PageStore};
pub use fault::{FaultInjector, FaultPlan, TornMode};
pub use heap::{HeapFile, HeapScanCursor, Morsel, MorselDispenser, MorselSource, RowId};
pub use page::{PageId, PAGE_SIZE};
pub use wal::{
    scan_wal, CheckpointData, DiskSink, IndexSnapshot, LogRecord, MemSink, TableSnapshot, TxnId,
    Wal, WalReader, WalScan, WalSink,
};
