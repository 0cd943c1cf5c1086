//! The context every plan execution runs in, and the per-operator
//! counters it collects.
//!
//! [`ExecContext`] carries the catalog, the scalar-function registry,
//! the MVCC snapshot scans read through, an optional clock, and the
//! actual-cost accumulator. The batch executor
//! ([`crate::execute_batched_parallel`], the engine's only plan
//! interpreter) charges cost units proportional to rows touched and I/O
//! performed; those measured units are the "latency" feedback signal
//! the learned optimizer (E7) and the performance predictors (E12)
//! train on — the analogue of NEO's execution-latency feedback loop.
//! Per-operator counters ([`OpStats`], keyed by [`OpKey`]) and morsel
//! workers' footprints ([`WorkerSpan`]) are drained by the engine after
//! each query.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

use aimdb_common::{Clock, WaitSet};
use aimdb_sql::expr::ScalarFns;

use crate::catalog::Catalog;
use crate::mvcc::Snapshot;

/// Per-operator execution counters accumulated by the vectorized
/// executor: output rows, non-empty output batches, wall time and cost
/// units spent in the operator subtree (both inclusive of children; ns
/// is 0 when the context has no clock).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpStats {
    pub rows: u64,
    pub batches: u64,
    pub ns: u64,
    pub cost_units: f64,
    /// Blocked time by wait class incurred while pulling from this
    /// operator's subtree (inclusive of children, like `ns`).
    pub wait: WaitSet,
}

/// Key for per-operator counters: operator name, the preorder plan-node
/// id (root = 0, matching `EXPLAIN` line order), and the worker id that
/// did the work (0 = the main thread / serial pipeline; morsel workers
/// are numbered from 1). Two filters in one plan — or two workers
/// running the same plan node — keep separate counters.
pub type OpKey = (&'static str, usize, usize);

/// The worker id the serial pipeline (and every main-thread operator)
/// reports under.
pub const MAIN_WORKER: usize = 0;

/// Wall-clock footprint of one morsel worker inside a parallel region:
/// when it started and stopped (context clock, ns), and how much of that
/// window it spent processing morsels (`busy_ns`: inside its region
/// pipeline's `next`, claims included, plus folding what that yields)
/// rather than setting up or idling. Feeds the per-worker trace spans
/// and the `worker_busy_ratio` gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSpan {
    /// 1-based worker id (matching the `OpKey` worker dimension).
    pub worker: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
}

/// Execution context: catalog access, scalar-function registry, and the
/// actual-cost accumulator.
pub struct ExecContext<'a> {
    pub catalog: &'a Catalog,
    pub fns: &'a dyn ScalarFns,
    cost_units: Cell<f64>,
    clock: Option<&'a dyn Clock>,
    /// MVCC read view for scans: `Some` inside a transaction (snapshot
    /// isolation), `None` for latest-committed reads.
    snapshot: Cell<Option<Snapshot>>,
    op_stats: RefCell<BTreeMap<OpKey, OpStats>>,
    worker_spans: RefCell<Vec<WorkerSpan>>,
}

impl<'a> ExecContext<'a> {
    pub fn new(catalog: &'a Catalog, fns: &'a dyn ScalarFns) -> Self {
        ExecContext {
            catalog,
            fns,
            cost_units: Cell::new(0.0),
            clock: None,
            snapshot: Cell::new(None),
            op_stats: RefCell::new(BTreeMap::new()),
            worker_spans: RefCell::new(Vec::new()),
        }
    }

    /// Pin the MVCC snapshot every scan in this context reads through.
    pub fn set_snapshot(&self, snap: Option<Snapshot>) {
        self.snapshot.set(snap);
    }

    /// The context's MVCC read view, if one is pinned.
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.snapshot.get()
    }

    /// A context that also timestamps per-operator work (used by the
    /// vectorized executor to fill the engine's operator metrics).
    pub fn with_clock(catalog: &'a Catalog, fns: &'a dyn ScalarFns, clock: &'a dyn Clock) -> Self {
        ExecContext {
            clock: Some(clock),
            ..Self::new(catalog, fns)
        }
    }

    pub(crate) fn charge(&self, units: f64) {
        self.cost_units.set(self.cost_units.get() + units);
    }

    /// Actual cost units charged so far (the measured "latency").
    pub fn cost_units(&self) -> f64 {
        self.cost_units.get()
    }

    /// Current clock reading in nanoseconds (0 without a clock).
    pub(crate) fn clock_ns(&self) -> u64 {
        match self.clock {
            Some(c) => (c.now_secs() * 1e9) as u64,
            None => 0,
        }
    }

    /// A context for one morsel worker: the same catalog, functions,
    /// clock and snapshot, with counters of its own (the cells are not
    /// `Sync`, so each worker owns one). [`ExecContext::absorb`] merges
    /// it back once the worker has joined.
    pub(crate) fn fork(&self) -> ExecContext<'a> {
        let ctx = ExecContext {
            clock: self.clock,
            ..Self::new(self.catalog, self.fns)
        };
        ctx.set_snapshot(self.snapshot());
        ctx
    }

    /// Merge a forked worker context into this one: its cost, and its
    /// per-operator counters re-keyed from [`MAIN_WORKER`] to `worker`.
    /// The caller merges workers in worker order, so the counter state
    /// stays deterministic.
    pub(crate) fn absorb(&self, forked: ExecContext<'_>, worker: usize) {
        self.charge(forked.cost_units());
        for ((name, node, _), st) in forked.take_op_stats() {
            self.record_op_stats((name, node, worker), st);
        }
    }

    /// Fold one operator observation into the per-operator counters,
    /// keyed by (operator name, plan-node id, worker id).
    pub(crate) fn record_op_stats(&self, key: OpKey, st: OpStats) {
        let mut stats = self.op_stats.borrow_mut();
        let e = stats.entry(key).or_default();
        e.rows += st.rows;
        e.batches += st.batches;
        e.ns += st.ns;
        e.cost_units += st.cost_units;
        e.wait.merge(&st.wait);
    }

    /// Record one morsel worker's wall-clock footprint.
    pub(crate) fn note_worker_span(&self, span: WorkerSpan) {
        self.worker_spans.borrow_mut().push(span);
    }

    /// Drain the per-operator counters (the engine flushes them into
    /// [`crate::metrics::Metrics`] after each query).
    pub fn take_op_stats(&self) -> Vec<(OpKey, OpStats)> {
        std::mem::take(&mut *self.op_stats.borrow_mut())
            .into_iter()
            .collect()
    }

    /// Drain the per-worker spans recorded by parallel regions (the
    /// engine turns them into child trace spans and the busy gauge).
    pub fn take_worker_spans(&self) -> Vec<WorkerSpan> {
        std::mem::take(&mut *self.worker_spans.borrow_mut())
    }
}
