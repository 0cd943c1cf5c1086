//! The global lock hierarchy.
//!
//! Every `Mutex`/`RwLock` in the engine, storage and trace crates carries
//! one of these ranks (lint rule L004 enforces construction through
//! `Mutex::with_rank`). The rule is simple: **a thread may only acquire a
//! lock whose rank is strictly greater than every lock it already
//! holds.** Any schedule that obeys the rule is deadlock-free by
//! construction — a wait-for cycle needs at least one edge pointing down
//! the hierarchy.
//!
//! In debug builds the `parking_lot` shim keeps a thread-local stack of
//! held ranks and reports every violation as a structured
//! [`crate::AimError::LockOrder`] (it never panics — lint rule L001); the
//! witness compiles out in release builds. Per-rank contended-acquire
//! counters stay on in both profiles and surface as the
//! `aimdb_lock_contention_total` metric.
//!
//! ## The partial order
//!
//! Ranks ascend in acquisition order; the number IS the rank. Gaps are
//! deliberate so a new lock can slot in without renumbering. The order is
//! derived from the acquisition chains the engine actually executes:
//!
//! ```text
//! ServerAdmission(0) -> ServerSessions(1) the TCP front end sits above
//!   |                                    the whole engine: the admission
//!   v                                    gate and session registry are
//!                                        acquired before any statement
//!                                        reaches `Database`
//! EngineClock(2) .. EngineHook(8)        leaf config RwLocks on Database;
//!   |                                    stats.read() is held across
//!   v                                    planning, which walks the catalog
//! CommitLock(10)                         commit/checkpoint serialization
//!   |                                    (checkpoint holds it across
//!   v                                    vacuum + snapshot + WAL append)
//! TxnManager(15)                         transaction-id allocator;
//!   |                                    fresh_id appends to the WAL with
//!   v                                    the manager lock held
//! TxnActive(20) / TxnReaders(25)         MVCC registration maps
//!   |
//!   v
//! CatalogTables(30) / CatalogIndexNames(35)
//!   |
//!   v
//! TableVersions(40)                      version metas; held across heap
//!   |                                    insert and index maintenance
//!   v
//! TableIndexes(45) -> IndexTree(50)      index map read guard is held
//!   |                                    while the B+tree lock is taken
//!   v
//! HeapPages(55) -> BufferPool(60)        page directory, then frames
//!   |
//!   v
//! WalInner(65) -> WalSink(70) -> WalGroup(75)
//!   |                                    append holds inner across the
//!   v                                    sink write; the group-commit
//! FaultInjector(80) -> DiskInner(85)     leader flushes with no WAL lock
//!   |                                    held; the checkpoint cut reaches
//!   |                                    the store holding inner
//!   v
//! WalFlushObserver(90) -> FaultHook(91)  the flush observer calls into
//!   |                                    the metrics registry; the fault
//!   v                                    hook fires with storage locks
//! MetricsOperators(92) -> StatementStats(93) -> MetricsRegistry(94)
//!   |                                    held (never FaultInjector); the
//!   v                                    statement store observes into
//! FlightRecorder(95) -> TracerInner(96)  the registry. The flight
//!   |                                    recorder must sit above every
//!   v                                    rank held at a record site.
//! Knobs(98)                              pure leaves: nothing is ever
//!                                        acquired while these are held
//! ```

/// Rank of one lock in the global hierarchy. See the module docs for the
/// partial order; the discriminant is the rank level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u16)]
pub enum LockRank {
    /// `AdmissionGate::core` (server) — admit/queue/reject bookkeeping.
    /// Acquired before anything else on the statement path; never held
    /// across an engine call (the gate decides, then releases).
    ServerAdmission = 0,
    /// `Server::sessions` (server) — the live-connection registry.
    /// Acquired after the admission gate on accept, before any engine
    /// lock.
    ServerSessions = 1,
    /// `Database::clock` — injectable time source.
    EngineClock = 2,
    /// `Database::stats` — table statistics; the read guard is held
    /// across planning, which acquires catalog and heap locks.
    EngineStats = 4,
    /// `Database::estimator` — pluggable cardinality estimator.
    EngineEstimator = 6,
    /// `Database::hook` — DB4AI model hook.
    EngineHook = 8,
    /// `TxnRuntime::commit_lock` — serializes commit stamping,
    /// registration and quiescent checkpoints. The top of the hierarchy:
    /// a checkpoint holds it across vacuum, state snapshot and the WAL
    /// checkpoint append.
    CommitLock = 10,
    /// `Database::txn` — transaction-id allocator; held
    /// across the WAL `Begin` append in `fresh_id`.
    TxnManager = 15,
    /// `TxnRuntime::active` — registered in-flight transactions.
    TxnActive = 20,
    /// `TxnRuntime::readers` — statement-reader timestamp refcounts.
    TxnReaders = 25,
    /// `Catalog::tables` — the table map.
    CatalogTables = 30,
    /// `Catalog::index_names` — index-name → table map.
    CatalogIndexNames = 35,
    /// `Table::versions` — MVCC version metas; held across heap inserts
    /// and index maintenance.
    TableVersions = 40,
    /// `Table::indexes` — per-table index map; the guard is held while
    /// individual index trees are locked and while `create_index` scans
    /// the heap.
    TableIndexes = 45,
    /// `Index::tree` — one B+tree.
    IndexTree = 50,
    /// `HeapFile::pages` — the page directory; held across buffer-pool
    /// calls in `insert`.
    HeapPages = 55,
    /// `BufferPool::inner` — frame table and CLOCK ring; still held across
    /// `PageStore` I/O (a miss's read, a dirty victim's write-back). Page
    /// contents are read after release, through the `Arc<Page>` handed out.
    BufferPool = 60,
    /// `Wal::inner` — LSN allocator, counters and frame offsets; held
    /// across the sink append and across the checkpoint cut, which
    /// reaches the store (`FaultInjector`, `DiskInner`).
    WalInner = 65,
    /// `DiskSink::buf` / `MemSink::bytes` — the WAL byte staging buffer.
    WalSink = 70,
    /// `Wal::group` — group-commit leader/follower state. Never held
    /// together with `WalInner`: the leader drops it before capturing
    /// the flush high-water mark.
    WalGroup = 75,
    /// `FaultInjector::state` — held while forwarding to the disk.
    FaultInjector = 80,
    /// `Disk::inner` — the simulated device.
    DiskInner = 85,
    /// `Wal::flush_observer` — held while calling the observer, which
    /// records into the metrics registry.
    WalFlushObserver = 90,
    /// `FaultInjector::crash_hook` — held while invoking the crash-dump
    /// hook, after the injector state lock is released (the caller may
    /// still hold storage locks like `WalSink`/`BufferPool`).
    FaultHook = 91,
    /// `Metrics::operators` — per-operator runtime counters.
    MetricsOperators = 92,
    /// `StatementStore::inner` — per-fingerprint statement statistics;
    /// observes into the metrics registry, never back into the engine.
    StatementStats = 93,
    /// `MetricsRegistry::inner` — the counter/gauge/histogram registry.
    MetricsRegistry = 94,
    /// `FlightRecorder::inner` — the crash-dump event ring; recorded
    /// into from commit/conflict/fault paths, so it ranks above every
    /// lock held at those sites.
    FlightRecorder = 95,
    /// `Tracer::inner` — query trace ring buffer.
    TracerInner = 96,
    /// `ModelRuntime::registry` (db4ai) — trained-model versions; pure
    /// math happens under it, never an engine call.
    ModelRegistry = 97,
    /// `Knobs::values` — live knob map; guards never escape `Knobs`.
    Knobs = 98,
}

impl LockRank {
    /// Every rank, in ascending order. Drives the dense index used by
    /// the shim's per-rank contention counters.
    pub const ALL: [LockRank; 31] = [
        LockRank::ServerAdmission,
        LockRank::ServerSessions,
        LockRank::EngineClock,
        LockRank::EngineStats,
        LockRank::EngineEstimator,
        LockRank::EngineHook,
        LockRank::CommitLock,
        LockRank::TxnManager,
        LockRank::TxnActive,
        LockRank::TxnReaders,
        LockRank::CatalogTables,
        LockRank::CatalogIndexNames,
        LockRank::TableVersions,
        LockRank::TableIndexes,
        LockRank::IndexTree,
        LockRank::HeapPages,
        LockRank::BufferPool,
        LockRank::WalInner,
        LockRank::WalSink,
        LockRank::WalGroup,
        LockRank::FaultInjector,
        LockRank::DiskInner,
        LockRank::WalFlushObserver,
        LockRank::FaultHook,
        LockRank::MetricsOperators,
        LockRank::StatementStats,
        LockRank::MetricsRegistry,
        LockRank::FlightRecorder,
        LockRank::TracerInner,
        LockRank::ModelRegistry,
        LockRank::Knobs,
    ];

    /// The numeric level: acquisition order must be strictly increasing.
    pub const fn level(self) -> u16 {
        self as u16
    }

    /// Stable snake_case name, used in witness reports and as the `rank`
    /// label of `aimdb_lock_contention_total`.
    pub const fn name(self) -> &'static str {
        match self {
            LockRank::ServerAdmission => "server_admission",
            LockRank::ServerSessions => "server_sessions",
            LockRank::EngineClock => "engine_clock",
            LockRank::EngineStats => "engine_stats",
            LockRank::EngineEstimator => "engine_estimator",
            LockRank::EngineHook => "engine_hook",
            LockRank::CommitLock => "commit_lock",
            LockRank::TxnManager => "txn_manager",
            LockRank::TxnActive => "txn_active",
            LockRank::TxnReaders => "txn_readers",
            LockRank::CatalogTables => "catalog_tables",
            LockRank::CatalogIndexNames => "catalog_index_names",
            LockRank::TableVersions => "table_versions",
            LockRank::TableIndexes => "table_indexes",
            LockRank::IndexTree => "index_tree",
            LockRank::HeapPages => "heap_pages",
            LockRank::BufferPool => "buffer_pool",
            LockRank::WalInner => "wal_inner",
            LockRank::WalSink => "wal_sink",
            LockRank::WalGroup => "wal_group",
            LockRank::FaultInjector => "fault_injector",
            LockRank::DiskInner => "disk_inner",
            LockRank::WalFlushObserver => "wal_flush_observer",
            LockRank::FaultHook => "fault_hook",
            LockRank::MetricsOperators => "metrics_operators",
            LockRank::StatementStats => "statement_stats",
            LockRank::MetricsRegistry => "metrics_registry",
            LockRank::FlightRecorder => "flight_recorder",
            LockRank::TracerInner => "tracer_inner",
            LockRank::ModelRegistry => "model_registry",
            LockRank::Knobs => "knobs",
        }
    }

    /// Dense index into `ALL` (contention-counter slot).
    pub fn idx(self) -> usize {
        // ALL is sorted by level, so a binary search over levels is a
        // branch-light perfect lookup without a 2^16 table.
        Self::ALL
            .binary_search_by_key(&self.level(), |r| r.level())
            .unwrap_or(0)
    }

    /// May a thread already holding `held` (its highest held level)
    /// acquire `next`? The hierarchy demands strictly increasing levels.
    pub const fn may_follow(held: u16, next: u16) -> bool {
        next > held
    }
}

impl std::fmt::Display for LockRank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}({})", self.name(), self.level())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_sorted_strictly_ascending_and_complete() {
        for w in LockRank::ALL.windows(2) {
            assert!(
                w[0].level() < w[1].level(),
                "{} must rank below {}",
                w[0],
                w[1]
            );
        }
        // idx() is a bijection onto 0..ALL.len()
        for (i, r) in LockRank::ALL.iter().enumerate() {
            assert_eq!(r.idx(), i);
        }
    }

    #[test]
    fn names_are_unique_snake_case() {
        let mut seen = std::collections::HashSet::new();
        for r in LockRank::ALL {
            assert!(seen.insert(r.name()), "duplicate rank name {}", r.name());
            assert!(r.name().chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }

    #[test]
    fn monotonicity_predicate() {
        assert!(LockRank::may_follow(
            LockRank::CommitLock.level(),
            LockRank::TxnActive.level()
        ));
        assert!(!LockRank::may_follow(
            LockRank::HeapPages.level(),
            LockRank::CommitLock.level()
        ));
        // equal ranks may not nest either
        assert!(!LockRank::may_follow(10, 10));
    }

    #[test]
    fn display_carries_name_and_level() {
        assert_eq!(LockRank::CommitLock.to_string(), "commit_lock(10)");
    }
}
