//! Operator-at-a-time executor.
//!
//! Each operator materializes its output and charges *actual* cost units
//! (proportional to rows touched and I/O performed) to the execution
//! context. Those measured units are the "latency" feedback signal the
//! learned optimizer (E7) and the performance predictors (E12) train on —
//! the analogue of NEO's execution-latency feedback loop.
//!
//! This is also the reference the vectorized executor is diffed against,
//! for results and for errors. Two things it shares with it by
//! construction rather than by re-implementation: predicates go through
//! `Expr::eval_predicate`, which walks the plan's conjuncts in the
//! planner's order and stops at the first that is not TRUE (the row form
//! of the batch executor's selection-vector cascade); and what it does
//! *not* share is deliberate — a bound `PREDICT` is resolved by name
//! through the context's function registry, one row per call, so the
//! batch kernel is checked against a path that has none of its machinery.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};

use aimdb_common::{AimError, Clock, Result, Row, Schema, Value, WaitSet};
use aimdb_sql::ast::AggFunc;
use aimdb_sql::expr::ScalarFns;
use aimdb_sql::logical::AggExpr;

use crate::catalog::Catalog;
use crate::mvcc::Snapshot;
use crate::plan::{PhysOp, PhysicalPlan};

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

/// Execute a physical plan to completion.
pub fn execute(plan: &PhysicalPlan, ctx: &ExecContext) -> Result<Vec<Row>> {
    match &plan.op {
        PhysOp::SeqScan { table, filter, .. } => {
            let t = ctx.catalog.table(table)?;
            let rows = t.scan_visible(ctx.snapshot())?;
            ctx.charge(rows.len() as f64 * 0.01 + (rows.len() as f64 / 64.0).ceil());
            let out: Vec<Row> = match filter {
                Some(f) => rows
                    .into_iter()
                    .map(|(_, r)| r)
                    .filter_map(|r| match f.eval_predicate(&plan.schema, &r, ctx.fns) {
                        Ok(true) => Some(Ok(r)),
                        Ok(false) => None,
                        Err(e) => Some(Err(e)),
                    })
                    .collect::<Result<_>>()?,
                None => rows.into_iter().map(|(_, r)| r).collect(),
            };
            Ok(out)
        }
        PhysOp::IndexScan {
            table,
            column,
            lo,
            hi,
            filter,
            ..
        } => {
            let t = ctx.catalog.table(table)?;
            let idx = t.index_on(column).ok_or_else(|| {
                AimError::Execution(format!("planned index on {table}.{column} missing"))
            })?;
            let mut rids = match (lo, hi) {
                (Some(l), Some(h)) if l == h => idx.lookup(l),
                (l, h) => {
                    let lo_v = l.clone().unwrap_or(Value::Float(f64::NEG_INFINITY));
                    let hi_v = h.clone().unwrap_or(Value::Float(f64::INFINITY));
                    idx.range(&lo_v, &hi_v)
                }
            };
            t.retain_visible(&mut rids, ctx.snapshot());
            ctx.charge(3.0 + rids.len() as f64 * 0.06);
            let mut out = Vec::with_capacity(rids.len());
            for rid in rids {
                if let Some(row) = t.heap.get(rid)? {
                    let keep = match filter {
                        Some(f) => f.eval_predicate(&plan.schema, &row, ctx.fns)?,
                        None => true,
                    };
                    if keep {
                        out.push(row);
                    }
                }
            }
            Ok(out)
        }
        PhysOp::Filter { input, predicate } => {
            let rows = execute(input, ctx)?;
            ctx.charge(rows.len() as f64 * 0.005);
            rows.into_iter()
                .filter_map(
                    |r| match predicate.eval_predicate(&input.schema, &r, ctx.fns) {
                        Ok(true) => Some(Ok(r)),
                        Ok(false) => None,
                        Err(e) => Some(Err(e)),
                    },
                )
                .collect()
        }
        PhysOp::Project { input, exprs } => {
            let rows = execute(input, ctx)?;
            ctx.charge(rows.len() as f64 * 0.005 * exprs.len().max(1) as f64);
            rows.iter()
                .map(|r| {
                    let vals: Vec<Value> = exprs
                        .iter()
                        .map(|e| e.eval(&input.schema, r, ctx.fns))
                        .collect::<Result<_>>()?;
                    Ok(Row::new(vals))
                })
                .collect()
        }
        PhysOp::NestedLoopJoin { left, right, on } => {
            let lrows = execute(left, ctx)?;
            let rrows = execute(right, ctx)?;
            ctx.charge(lrows.len() as f64 * rrows.len() as f64 * 0.01);
            let mut out = Vec::new();
            for l in &lrows {
                for r in &rrows {
                    let joined = l.join(r);
                    let keep = match on {
                        Some(p) => p.eval_predicate(&plan.schema, &joined, ctx.fns)?,
                        None => true,
                    };
                    if keep {
                        out.push(joined);
                    }
                }
            }
            Ok(out)
        }
        PhysOp::HashJoin {
            left,
            right,
            left_key,
            right_key,
            residual,
        } => {
            let lrows = execute(left, ctx)?;
            let rrows = execute(right, ctx)?;
            ctx.charge((lrows.len() + rrows.len()) as f64 * 0.015);
            // build on the smaller side
            let (
                build_rows,
                build_schema,
                build_key,
                probe_rows,
                probe_schema,
                probe_key,
                build_is_left,
            ) = if lrows.len() <= rrows.len() {
                (
                    &lrows,
                    &left.schema,
                    left_key,
                    &rrows,
                    &right.schema,
                    right_key,
                    true,
                )
            } else {
                (
                    &rrows,
                    &right.schema,
                    right_key,
                    &lrows,
                    &left.schema,
                    left_key,
                    false,
                )
            };
            let mut table: HashMap<Value, Vec<&Row>> = HashMap::new();
            for r in build_rows {
                let k = build_key.eval(build_schema, r, ctx.fns)?;
                if k.is_null() {
                    continue; // NULL never joins
                }
                table.entry(k).or_default().push(r);
            }
            let mut out = Vec::new();
            for p in probe_rows {
                let k = probe_key.eval(probe_schema, p, ctx.fns)?;
                if k.is_null() {
                    continue;
                }
                if let Some(matches) = table.get(&k) {
                    for b in matches {
                        let joined = if build_is_left { b.join(p) } else { p.join(b) };
                        let keep = match residual {
                            Some(r) => r.eval_predicate(&plan.schema, &joined, ctx.fns)?,
                            None => true,
                        };
                        if keep {
                            ctx.charge(0.01);
                            out.push(joined);
                        }
                    }
                }
            }
            Ok(out)
        }
        PhysOp::Aggregate {
            input,
            group_exprs,
            aggs,
        } => {
            let rows = execute(input, ctx)?;
            ctx.charge(rows.len() as f64 * 0.02);
            aggregate(&rows, &input.schema, group_exprs, aggs, ctx)
        }
        PhysOp::Sort { input, keys } => {
            let mut rows = execute(input, ctx)?;
            let n = rows.len() as f64;
            ctx.charge(n * n.max(2.0).log2() * 0.005);
            // precompute sort keys
            let mut keyed: Vec<(Vec<Value>, Row)> = rows
                .drain(..)
                .map(|r| {
                    let ks: Result<Vec<Value>> = keys
                        .iter()
                        .map(|k| k.expr.eval(&input.schema, &r, ctx.fns))
                        .collect();
                    Ok((ks?, r))
                })
                .collect::<Result<_>>()?;
            keyed.sort_by(|(a, _), (b, _)| {
                for (i, k) in keys.iter().enumerate() {
                    let ord = a[i].cmp(&b[i]);
                    let ord = if k.desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            Ok(keyed.into_iter().map(|(_, r)| r).collect())
        }
        PhysOp::Limit { input, n } => {
            let mut rows = execute(input, ctx)?;
            rows.truncate(*n);
            Ok(rows)
        }
        PhysOp::Values { rows } => Ok(rows.clone()),
        // a pure passthrough for the row executor: parallelism is a
        // batch-pipeline concern, and the region below emits the same
        // rows in the same order either way
        PhysOp::Exchange { input } => execute(input, ctx),
    }
}

#[derive(Debug, Clone)]
pub(crate) enum AggState {
    Count(u64),
    /// Int addends in an exact `i128` total, every other addend in an
    /// `f64` total; `finish` adds the two once. Partial sums of Int
    /// arguments therefore merge exactly at any size.
    Sum(i128, f64),
    /// (Int total, other total, count) for AVG
    Avg(i128, f64, u64),
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    pub(crate) fn new(f: AggFunc) -> AggState {
        match f {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum(0, 0.0),
            AggFunc::Avg => AggState::Avg(0, 0.0, 0),
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    pub(crate) fn update(&mut self, v: Option<&Value>) -> Result<()> {
        match self {
            AggState::Count(n) => {
                // COUNT(*) counts rows (v=None); COUNT(x) skips NULLs
                match v {
                    Some(val) if val.is_null() => {}
                    _ => *n += 1,
                }
            }
            AggState::Sum(i, f) => match v {
                None | Some(Value::Null) => {}
                Some(Value::Int(x)) => *i += i128::from(*x),
                Some(val) => *f += val.as_f64()?,
            },
            AggState::Avg(i, f, n) => match v {
                None | Some(Value::Null) => {}
                Some(val) => {
                    match val {
                        Value::Int(x) => *i += i128::from(*x),
                        val => *f += val.as_f64()?,
                    }
                    *n += 1;
                }
            },
            AggState::Min(m) => {
                if let Some(val) = v {
                    if !val.is_null() && m.as_ref().is_none_or(|cur| val < cur) {
                        *m = Some(val.clone());
                    }
                }
            }
            AggState::Max(m) => {
                if let Some(val) = v {
                    if !val.is_null() && m.as_ref().is_none_or(|cur| val > cur) {
                        *m = Some(val.clone());
                    }
                }
            }
        }
        Ok(())
    }

    /// Fold a partial state — computed over a *later* contiguous run of
    /// rows — into `self`. Exact for COUNT / MIN / MAX (order-free) and
    /// for SUM / AVG over Int arguments (their `i128` totals); the
    /// parallel executor only partial-aggregates in those cases, feeding
    /// everything else through the serial fold so float results stay
    /// bit-identical.
    pub(crate) fn merge(&mut self, other: AggState) -> Result<()> {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::Sum(i, f), AggState::Sum(i2, f2)) => {
                *i += i2;
                *f += f2;
            }
            (AggState::Avg(i, f, n), AggState::Avg(i2, f2, n2)) => {
                *i += i2;
                *f += f2;
                *n += n2;
            }
            (AggState::Min(m), AggState::Min(o)) => {
                // strict `<` keeps the earlier-seen value on ties, like
                // the serial fold (merges run in morsel order)
                if let Some(v) = o {
                    if m.as_ref().is_none_or(|cur| v < *cur) {
                        *m = Some(v);
                    }
                }
            }
            (AggState::Max(m), AggState::Max(o)) => {
                if let Some(v) = o {
                    if m.as_ref().is_none_or(|cur| v > *cur) {
                        *m = Some(v);
                    }
                }
            }
            _ => {
                return Err(AimError::Execution(
                    "mismatched aggregate states in partial-aggregate merge".into(),
                ))
            }
        }
        Ok(())
    }

    pub(crate) fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n as i64),
            AggState::Sum(i, f) => Value::Float(i as f64 + f),
            AggState::Avg(i, f, n) => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float((i as f64 + f) / n as f64)
                }
            }
            AggState::Min(m) => m.unwrap_or(Value::Null),
            AggState::Max(m) => m.unwrap_or(Value::Null),
        }
    }
}

fn aggregate(
    rows: &[Row],
    schema: &Schema,
    group_exprs: &[aimdb_sql::Expr],
    aggs: &[AggExpr],
    ctx: &ExecContext,
) -> Result<Vec<Row>> {
    let mut groups: HashMap<Vec<Value>, Vec<AggState>> = HashMap::new();
    let mut order: Vec<Vec<Value>> = Vec::new(); // first-seen group order
    for r in rows {
        let key: Vec<Value> = group_exprs
            .iter()
            .map(|g| g.eval(schema, r, ctx.fns))
            .collect::<Result<_>>()?;
        let entry = match groups.get_mut(&key) {
            Some(e) => e,
            None => {
                order.push(key.clone());
                groups
                    .entry(key.clone())
                    .or_insert_with(|| aggs.iter().map(|a| AggState::new(a.func)).collect())
            }
        };
        for (st, a) in entry.iter_mut().zip(aggs) {
            let v = match &a.arg {
                Some(e) => Some(e.eval(schema, r, ctx.fns)?),
                None => None,
            };
            st.update(v.as_ref())?;
        }
    }
    // global aggregate over zero rows still yields one row
    if groups.is_empty() && group_exprs.is_empty() {
        let states: Vec<AggState> = aggs.iter().map(|a| AggState::new(a.func)).collect();
        let vals: Vec<Value> = states.into_iter().map(AggState::finish).collect();
        return Ok(vec![Row::new(vals)]);
    }
    let mut out = Vec::with_capacity(groups.len());
    for key in order {
        let states = groups
            .remove(&key)
            .ok_or_else(|| AimError::Execution("group key vanished during aggregation".into()))?;
        let mut vals = key;
        vals.extend(states.into_iter().map(AggState::finish));
        out.push(Row::new(vals));
    }
    Ok(out)
}
