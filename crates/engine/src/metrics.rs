//! The KPI surface consumed by monitoring and tuning components.
//!
//! Every query execution reports its cost units and outcome here; the
//! health monitor (E11), activity monitor (E12) and knob tuner (E1) read
//! [`KpiSnapshot`]s rather than scraping engine internals — the same
//! architectural boundary external AI4DB tools have against a real DBMS.
//!
//! Storage is an [`aimdb_trace::MetricsRegistry`]: monotonic counters
//! plus a log-linear cost histogram, which replaces the previous
//! 512-sample sliding window — quantiles (p50/p95/p99) now cover the
//! whole run in O(1) memory instead of the last 512 queries, and the
//! same registry renders the Prometheus-style `Database::metrics_text()`
//! page.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use aimdb_common::LockRank;
use aimdb_trace::MetricsRegistry;

use crate::exec::{OpKey, OpStats};

// Registry metric names (exposition page identifiers).
pub const QUERIES_TOTAL: &str = "aimdb_queries_total";
pub const ROWS_EMITTED_TOTAL: &str = "aimdb_rows_emitted_total";
pub const ERRORS_TOTAL: &str = "aimdb_errors_total";
pub const TXN_COMMITS_TOTAL: &str = "aimdb_txn_commits_total";
pub const TXN_ABORTS_TOTAL: &str = "aimdb_txn_aborts_total";
pub const RECOVERIES_TOTAL: &str = "aimdb_recoveries_total";
pub const WAL_REPLAYED_TOTAL: &str = "aimdb_wal_records_replayed_total";
pub const QUERY_COST_UNITS: &str = "aimdb_query_cost_units";
/// Transactions made durable per WAL fsync (histogram; p50 > 1 means
/// group commit is actually batching).
pub const GROUP_COMMIT_BATCH: &str = "aimdb_group_commit_batch";
/// Wall-clock seconds from commit request to published visibility.
pub const COMMIT_LATENCY_SECONDS: &str = "aimdb_commit_latency_seconds";
/// Contended lock acquisitions (a `lock()` that had to block), summed
/// over all ranks; per-rank counts ride the exposition page as
/// `aimdb_lock_contention_rank_total{rank="..."}`.
pub const LOCK_CONTENTION_TOTAL: &str = "aimdb_lock_contention_total";
/// Nanoseconds spent blocked acquiring contended locks, summed over all
/// ranks — the *time* companion to [`LOCK_CONTENTION_TOTAL`]'s count
/// (an acquisition tally alone cannot distinguish a thousand cheap
/// collisions from one long convoy). Per-rank time rides the exposition
/// page as `aimdb_lock_wait_ns_rank_total{rank="..."}`.
pub const LOCK_WAIT_NS_TOTAL: &str = "aimdb_lock_wait_ns_total";

/// A point-in-time view of engine health metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KpiSnapshot {
    pub queries_executed: u64,
    pub rows_emitted: u64,
    /// Cost units charged by the executor (proxy for latency).
    pub total_cost_units: f64,
    pub avg_cost_per_query: f64,
    pub p50_cost_per_query: f64,
    pub p95_cost_per_query: f64,
    pub p99_cost_per_query: f64,
    pub buffer_hit_rate: f64,
    pub disk_reads: u64,
    pub disk_writes: u64,
    pub errors: u64,
    pub txns_committed: u64,
    pub txns_aborted: u64,
    /// Crash recoveries performed on this instance's store.
    pub recoveries: u64,
    /// WAL records replayed across all recoveries.
    pub wal_records_replayed: u64,
}

/// Engine metrics collector over a [`MetricsRegistry`], plus the
/// per-operator counter table keyed by (operator, plan-node id).
pub struct Metrics {
    registry: Arc<MetricsRegistry>,
    /// Per-operator rows / batches / wall-time / cost, keyed by operator
    /// name and preorder plan-node id so two instances of one operator
    /// in the same plan shape keep separate counters.
    operators: Mutex<BTreeMap<OpKey, OpStats>>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    pub fn new() -> Self {
        Metrics {
            registry: Arc::new(MetricsRegistry::default()),
            operators: Mutex::with_rank(BTreeMap::new(), LockRank::MetricsOperators),
        }
    }

    /// The underlying registry (shared with the exposition page).
    pub fn registry(&self) -> &MetricsRegistry {
        self.registry.as_ref()
    }

    /// An owned handle to the registry, for observers that outlive the
    /// borrow (e.g. the WAL flush observer reporting group-commit batch
    /// sizes from whichever thread leads the flush).
    pub fn registry_handle(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.registry)
    }

    /// Observe one commit's request-to-visibility latency.
    pub fn record_commit_latency(&self, seconds: f64) {
        self.registry.observe(COMMIT_LATENCY_SECONDS, seconds);
    }

    pub fn record_query(&self, rows: u64, cost_units: f64) {
        self.registry.inc_counter(QUERIES_TOTAL, 1);
        self.registry.inc_counter(ROWS_EMITTED_TOTAL, rows);
        self.registry.observe(QUERY_COST_UNITS, cost_units);
    }

    pub fn record_error(&self) {
        self.registry.inc_counter(ERRORS_TOTAL, 1);
    }

    pub fn record_commit(&self) {
        self.registry.inc_counter(TXN_COMMITS_TOTAL, 1);
    }

    pub fn record_abort(&self) {
        self.registry.inc_counter(TXN_ABORTS_TOTAL, 1);
    }

    /// Accumulate per-operator execution stats (rows, batches, wall-time,
    /// cost units) reported by the vectorized executor for one plan node
    /// as observed by one worker. The serial pipeline reports under
    /// worker 0; morsel workers report under their 1-based worker id, so
    /// two workers running the same plan node never merge.
    pub fn record_operator(&self, name: &'static str, node: usize, worker: usize, stats: OpStats) {
        let mut ops = self.operators.lock();
        let e = ops.entry((name, node, worker)).or_default();
        e.rows += stats.rows;
        e.batches += stats.batches;
        e.ns += stats.ns;
        e.cost_units += stats.cost_units;
        e.wait.merge(&stats.wait);
    }

    /// Per-operator counters accumulated since the last reset, in stable
    /// (operator name, plan-node id, worker id) order.
    pub fn operator_stats(&self) -> Vec<(OpKey, OpStats)> {
        self.operators
            .lock()
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect()
    }

    /// Record one completed crash recovery and how many WAL records it
    /// replayed.
    pub fn record_recovery(&self, records_replayed: u64) {
        self.registry.inc_counter(RECOVERIES_TOTAL, 1);
        self.registry
            .inc_counter(WAL_REPLAYED_TOTAL, records_replayed);
    }

    /// Snapshot combining engine counters with storage counters supplied by
    /// the caller (buffer hit rate, disk I/O).
    pub fn snapshot(&self, buffer_hit_rate: f64, disk_reads: u64, disk_writes: u64) -> KpiSnapshot {
        let cost = self
            .registry
            .histogram(QUERY_COST_UNITS)
            .unwrap_or_default();
        let avg = if cost.count > 0 {
            cost.sum / cost.count as f64
        } else {
            0.0
        };
        KpiSnapshot {
            queries_executed: self.registry.counter(QUERIES_TOTAL),
            rows_emitted: self.registry.counter(ROWS_EMITTED_TOTAL),
            total_cost_units: cost.sum,
            avg_cost_per_query: avg,
            p50_cost_per_query: cost.p50,
            p95_cost_per_query: cost.p95,
            p99_cost_per_query: cost.p99,
            buffer_hit_rate,
            disk_reads,
            disk_writes,
            errors: self.registry.counter(ERRORS_TOTAL),
            txns_committed: self.registry.counter(TXN_COMMITS_TOTAL),
            txns_aborted: self.registry.counter(TXN_ABORTS_TOTAL),
            recoveries: self.registry.counter(RECOVERIES_TOTAL),
            wal_records_replayed: self.registry.counter(WAL_REPLAYED_TOTAL),
        }
    }

    pub fn reset(&self) {
        self.registry.reset();
        self.operators.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots() {
        let m = Metrics::new();
        m.record_query(10, 5.0);
        m.record_query(20, 15.0);
        m.record_error();
        m.record_commit();
        let s = m.snapshot(0.9, 100, 50);
        assert_eq!(s.queries_executed, 2);
        assert_eq!(s.rows_emitted, 30);
        assert_eq!(s.avg_cost_per_query, 10.0);
        assert_eq!(s.errors, 1);
        assert_eq!(s.txns_committed, 1);
        assert_eq!(s.buffer_hit_rate, 0.9);
    }

    #[test]
    fn p95_tracks_tail() {
        let m = Metrics::new();
        for _ in 0..95 {
            m.record_query(1, 1.0);
        }
        for _ in 0..5 {
            m.record_query(1, 100.0);
        }
        let s = m.snapshot(0.0, 0, 0);
        assert!(s.p95_cost_per_query >= 1.0);
        assert!(s.p95_cost_per_query <= 100.0);
        assert!(s.p95_cost_per_query > s.avg_cost_per_query / 2.0);
        // quantiles are ordered
        assert!(s.p50_cost_per_query <= s.p95_cost_per_query);
        assert!(s.p95_cost_per_query <= s.p99_cost_per_query);
    }

    #[test]
    fn reset_clears() {
        let m = Metrics::new();
        m.record_query(1, 1.0);
        m.reset();
        assert_eq!(m.snapshot(0.0, 0, 0).queries_executed, 0);
    }

    #[test]
    fn operator_stats_key_on_operator_and_node() {
        let m = Metrics::new();
        // two filters in one plan (nodes 1 and 3) no longer merge
        m.record_operator(
            "filter",
            1,
            0,
            OpStats {
                rows: 10,
                batches: 2,
                ns: 100,
                cost_units: 1.0,
                wait: Default::default(),
            },
        );
        m.record_operator(
            "filter",
            3,
            0,
            OpStats {
                rows: 5,
                batches: 1,
                ns: 50,
                cost_units: 0.5,
                wait: Default::default(),
            },
        );
        // same (operator, node, worker) accumulates across queries
        m.record_operator(
            "filter",
            1,
            0,
            OpStats {
                rows: 2,
                batches: 1,
                ns: 10,
                cost_units: 0.2,
                wait: Default::default(),
            },
        );
        let stats = m.operator_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].0, ("filter", 1, 0));
        assert_eq!(stats[0].1.rows, 12);
        assert_eq!(stats[0].1.batches, 3);
        assert_eq!(stats[0].1.ns, 110);
        assert_eq!(stats[1].0, ("filter", 3, 0));
        assert_eq!(stats[1].1.rows, 5);
        m.reset();
        assert!(m.operator_stats().is_empty());
    }

    #[test]
    fn operator_stats_keep_workers_separate() {
        // regression: two morsel workers reporting the same plan node
        // used to silently merge into one counter — the worker dimension
        // must keep them apart while stable ordering groups them by node
        let m = Metrics::new();
        m.record_operator(
            "seq_scan",
            2,
            1,
            OpStats {
                rows: 30,
                batches: 3,
                ns: 300,
                cost_units: 3.0,
                wait: Default::default(),
            },
        );
        m.record_operator(
            "seq_scan",
            2,
            2,
            OpStats {
                rows: 12,
                batches: 2,
                ns: 120,
                cost_units: 1.2,
                wait: Default::default(),
            },
        );
        let stats = m.operator_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].0, ("seq_scan", 2, 1));
        assert_eq!(stats[0].1.rows, 30);
        assert_eq!(stats[1].0, ("seq_scan", 2, 2));
        assert_eq!(stats[1].1.rows, 12);
        // per-worker counters still roll up to the node total
        let total: u64 = stats
            .iter()
            .filter(|((_, node, _), _)| *node == 2)
            .map(|(_, s)| s.rows)
            .sum();
        assert_eq!(total, 42);
    }

    #[test]
    fn registry_exposes_counters_and_quantiles() {
        let m = Metrics::new();
        m.record_query(3, 10.0);
        assert_eq!(m.registry().counter(QUERIES_TOTAL), 1);
        assert!(m.registry().quantile(QUERY_COST_UNITS, 0.5) >= 10.0);
        let page = m.registry().render();
        assert!(page.contains("aimdb_query_cost_units{quantile=\"0.95\"}"));
    }
}
