//! Streaming vectorized executor.
//!
//! The batch pipeline mirrors the row executor operator for operator,
//! but operators *pull* fixed-size column batches ([`Batch`]) instead of
//! materializing whole row sets: scans fill batches straight from the
//! storage cursors, predicates produce selection vectors (their conjuncts
//! cascading, each evaluated only on the rows the ones before it kept)
//! that are applied with `gather`, and expressions — a model-bound
//! `PREDICT` included — run through the compiled kernels in
//! `aimdb_sql::vexpr`. Pipeline-breaking operators (hash
//! join build, aggregate, sort) still drain their inputs — exactly like
//! the row executor — but consume them batch-wise and stream their
//! output back out in batches.
//!
//! Result equivalence with [`crate::exec::execute`] is enforced by the
//! differential oracle (`tests/exec_differential.rs`); output *order*
//! matches the row executor on every operator so ORDER BY queries can
//! be compared positionally:
//! - scans emit heap page order / index key order,
//! - hash join builds on the smaller input and emits probe order ×
//!   build-insertion order,
//! - aggregation emits first-seen group order,
//! - sort is stable over the same precomputed keys.
//!
//! # Morsel-driven parallelism
//!
//! [`PhysOp::Exchange`] nodes (inserted by the optimizer over maximal
//! scan→filter→project regions) become a scoped worker pool when
//! `workers > 1`: workers pull fixed page-range *morsels* from a shared
//! atomic [`MorselDispenser`] and run the compiled region pipeline on
//! each. Per-morsel outputs are merged on the main thread *in morsel
//! order*, which reproduces the serial scan's row order exactly — so
//! results are bit-identical at any thread count. Aggregates directly
//! above an exchange are fused into the workers (partial aggregation)
//! only when merging partial states is exact: COUNT/MIN/MAX always,
//! SUM/AVG only over base-table Int columns (exact in f64); float sums
//! stay on the serial fold path, whose element-wise row order does not
//! depend on batch or morsel boundaries.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use aimdb_common::{wait, AimError, Batch, Clock, ColVec, DataType, Result, Row, Schema, Value};
use aimdb_sql::ast::AggFunc;
use aimdb_sql::expr::{Expr, ScalarFns};
use aimdb_sql::logical::AggExpr;
use aimdb_sql::vexpr::{self, VExpr};

use crate::catalog::Table;
use crate::exec::{AggState, ExecContext, OpStats, WorkerSpan, MAIN_WORKER};
use crate::mvcc::RowVis;
use crate::plan::{PhysOp, PhysicalPlan};
use aimdb_storage::{HeapScanCursor, Morsel, MorselDispenser, MorselSource, RowId};

/// Execute a physical plan to completion through the batch pipeline,
/// pulling `batch_size`-row batches through the operator tree. Serial:
/// exchange nodes degenerate to pass-throughs.
pub fn execute_batched(
    plan: &PhysicalPlan,
    ctx: &ExecContext,
    batch_size: usize,
) -> Result<Vec<Row>> {
    execute_batched_parallel(plan, ctx, batch_size, 1)
}

/// Execute a physical plan with up to `workers` morsel threads inside
/// each exchange region. `workers <= 1` is exactly [`execute_batched`];
/// any worker count produces identical results.
pub fn execute_batched_parallel(
    plan: &PhysicalPlan,
    ctx: &ExecContext,
    batch_size: usize,
    workers: usize,
) -> Result<Vec<Row>> {
    let bs = batch_size.max(1);
    let workers = workers.clamp(1, 64);
    let mut next_id = 0;
    let mut root = build(plan, ctx, bs, workers, &mut next_id)?;
    let mut out = Vec::new();
    while let Some(b) = root.next()? {
        out.extend(b.to_rows());
    }
    Ok(out)
}

/// A pull-based vectorized operator. `next` returns the next non-empty
/// output batch, or `None` once exhausted.
trait BatchOp {
    fn next(&mut self) -> Result<Option<Batch>>;
}

/// Build the operator tree for a plan, wrapping each node with the
/// per-operator instrumentation that feeds `Metrics::operator_stats`.
/// Nodes are numbered preorder (root = 0, children left to right) via
/// `next_id`, matching the line order of `PhysicalPlan::explain`.
fn build<'p>(
    plan: &'p PhysicalPlan,
    ctx: &'p ExecContext<'p>,
    bs: usize,
    workers: usize,
    next_id: &mut usize,
) -> Result<Box<dyn BatchOp + 'p>> {
    let node = *next_id;
    *next_id += 1;
    let (name, op): (&'static str, Box<dyn BatchOp + 'p>) = match &plan.op {
        PhysOp::SeqScan { table, filter, .. } => {
            let t = ctx.catalog.table(table)?;
            let filter = filter
                .as_ref()
                .map(|f| vexpr::compile(f, &plan.schema))
                .transpose()?;
            (
                "seq_scan",
                Box::new(SeqScanOp {
                    cursor: t.heap.scan_cursor(),
                    vis: t.visibility(ctx.snapshot())?,
                    schema: &plan.schema,
                    filter,
                    ctx,
                    bs,
                    done: false,
                }),
            )
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
            let mut rids = idx.probe(lo.as_ref(), hi.as_ref(), bs);
            t.retain_visible(&mut rids, ctx.snapshot());
            ctx.charge(3.0 + rids.len() as f64 * 0.06);
            let filter = filter
                .as_ref()
                .map(|f| vexpr::compile(f, &plan.schema))
                .transpose()?;
            (
                "index_scan",
                Box::new(IndexScanOp {
                    table: t,
                    rids,
                    pos: 0,
                    schema: &plan.schema,
                    filter,
                    ctx,
                    bs,
                }),
            )
        }
        PhysOp::Filter { input, predicate } => {
            let pred = vexpr::compile(predicate, &input.schema)?;
            (
                "filter",
                Box::new(FilterOp {
                    input: build(input, ctx, bs, workers, next_id)?,
                    pred,
                    ctx,
                }),
            )
        }
        PhysOp::Project { input, exprs } => {
            let compiled = exprs
                .iter()
                .map(|e| vexpr::compile(e, &input.schema))
                .collect::<Result<Vec<_>>>()?;
            (
                "project",
                Box::new(ProjectOp {
                    input: build(input, ctx, bs, workers, next_id)?,
                    exprs: compiled,
                    ctx,
                }),
            )
        }
        PhysOp::NestedLoopJoin { left, right, on } => {
            let on = on
                .as_ref()
                .map(|p| vexpr::compile(p, &plan.schema))
                .transpose()?;
            (
                "nested_loop_join",
                Box::new(NestedLoopJoinOp {
                    left: Some(build(left, ctx, bs, workers, next_id)?),
                    right: Some(build(right, ctx, bs, workers, next_id)?),
                    on,
                    out_schema: &plan.schema,
                    ctx,
                    bs,
                    lrows: Vec::new(),
                    rrows: Vec::new(),
                    li: 0,
                    ri: 0,
                }),
            )
        }
        PhysOp::HashJoin {
            left,
            right,
            left_key,
            right_key,
            residual,
        } => {
            let lkey = vexpr::compile(left_key, &left.schema)?;
            let rkey = vexpr::compile(right_key, &right.schema)?;
            let residual = residual
                .as_ref()
                .map(|r| vexpr::compile(r, &plan.schema))
                .transpose()?;
            (
                "hash_join",
                Box::new(HashJoinOp {
                    left: Some(build(left, ctx, bs, workers, next_id)?),
                    right: Some(build(right, ctx, bs, workers, next_id)?),
                    lkey,
                    rkey,
                    residual,
                    out_schema: &plan.schema,
                    ctx,
                    bs,
                    build_rows: Vec::new(),
                    table: HashMap::new(),
                    probe_rows: Vec::new(),
                    probe_keys: Vec::new(),
                    build_is_left: true,
                    probe_pos: 0,
                }),
            )
        }
        PhysOp::Aggregate {
            input,
            group_exprs,
            aggs,
        } => {
            let group = group_exprs
                .iter()
                .map(|g| vexpr::compile(g, &input.schema))
                .collect::<Result<Vec<_>>>()?;
            let args = aggs
                .iter()
                .map(|a| {
                    a.arg
                        .as_ref()
                        .map(|e| vexpr::compile(e, &input.schema))
                        .transpose()
                })
                .collect::<Result<Vec<_>>>()?;
            // fuse the aggregate into the exchange's morsel workers when
            // partial-state merging is provably exact (see module doc)
            let fused = match &input.op {
                PhysOp::Exchange { input: region } if workers > 1 && mergeable(aggs, region) => {
                    Some(region)
                }
                _ => None,
            };
            match fused {
                Some(region_plan) => {
                    let exchange_node = *next_id;
                    *next_id += 1;
                    let region = compile_region(region_plan, ctx, next_id)?;
                    (
                        "aggregate",
                        Box::new(ParallelAggOp {
                            region,
                            spec: PartialAggSpec {
                                group,
                                args,
                                aggs,
                                agg_node: node,
                                exchange_node,
                            },
                            out_schema: &plan.schema,
                            ctx,
                            bs,
                            workers,
                            out: Vec::new(),
                            pos: 0,
                            opened: false,
                        }),
                    )
                }
                None => (
                    "aggregate",
                    Box::new(AggregateOp {
                        input: Some(build(input, ctx, bs, workers, next_id)?),
                        group,
                        args,
                        aggs,
                        out_schema: &plan.schema,
                        ctx,
                        bs,
                        out: Vec::new(),
                        pos: 0,
                    }),
                ),
            }
        }
        PhysOp::Sort { input, keys } => {
            let compiled = keys
                .iter()
                .map(|k| Ok((vexpr::compile(&k.expr, &input.schema)?, k.desc)))
                .collect::<Result<Vec<_>>>()?;
            (
                "sort",
                Box::new(SortOp {
                    input: Some(build(input, ctx, bs, workers, next_id)?),
                    keys: compiled,
                    out_schema: &plan.schema,
                    ctx,
                    bs,
                    out: Vec::new(),
                    pos: 0,
                }),
            )
        }
        PhysOp::Limit { input, n } => (
            "limit",
            Box::new(LimitOp {
                input: build(input, ctx, bs, workers, next_id)?,
                remaining: *n,
            }),
        ),
        PhysOp::Values { rows } => (
            "values",
            Box::new(ValuesOp {
                rows,
                schema: &plan.schema,
                pos: 0,
                bs,
            }),
        ),
        PhysOp::Exchange { input } => {
            if workers <= 1 {
                (
                    "exchange",
                    Box::new(PassthroughOp {
                        input: build(input, ctx, bs, workers, next_id)?,
                    }),
                )
            } else {
                let region = compile_region(input, ctx, next_id)?;
                (
                    "exchange",
                    Box::new(ExchangeOp {
                        region,
                        ctx,
                        bs,
                        workers,
                        out: Vec::new(),
                        opened: false,
                    }),
                )
            }
        }
    };
    Ok(Box::new(Instrumented {
        name,
        node,
        ctx,
        inner: op,
    }))
}

/// Wraps an operator to account rows / batches / wall-time / cost units
/// into the execution context, keyed by (operator, plan-node id). Timing
/// and cost are inclusive of the operator's subtree.
struct Instrumented<'p> {
    name: &'static str,
    node: usize,
    ctx: &'p ExecContext<'p>,
    inner: Box<dyn BatchOp + 'p>,
}

impl BatchOp for Instrumented<'_> {
    fn next(&mut self) -> Result<Option<Batch>> {
        let t0 = self.ctx.clock_ns();
        let c0 = self.ctx.cost_units();
        let w0 = wait::thread_snapshot();
        let r = self.inner.next();
        let ns = self.ctx.clock_ns().saturating_sub(t0);
        let cost = self.ctx.cost_units() - c0;
        let wait = wait::thread_snapshot().delta_since(&w0);
        let (rows, batches) = match &r {
            Ok(Some(b)) => (b.len() as u64, 1),
            _ => (0, 0),
        };
        self.ctx.record_op_stats(
            (self.name, self.node, MAIN_WORKER),
            OpStats {
                rows,
                batches,
                ns,
                cost_units: cost,
                wait,
            },
        );
        r
    }
}

struct SeqScanOp<'p> {
    cursor: HeapScanCursor,
    vis: RowVis,
    schema: &'p Schema,
    filter: Option<VExpr>,
    ctx: &'p ExecContext<'p>,
    bs: usize,
    done: bool,
}

impl BatchOp for SeqScanOp<'_> {
    fn next(&mut self) -> Result<Option<Batch>> {
        while !self.done {
            // decode pages straight into typed column builders — the
            // row-at-a-time decode + columnarize double pass is the
            // single biggest cost the batch pipeline can avoid
            let mut cols: Vec<ColVec> = self
                .schema
                .columns()
                .iter()
                .map(|c| ColVec::with_capacity(c.data_type, self.bs))
                .collect();
            let vis = &self.vis;
            let (n, more) =
                self.cursor
                    .fill_batch_vis(self.bs, &mut cols, Some(&|rid| vis.allows(rid)))?;
            if !more {
                self.done = true;
            }
            if n == 0 {
                continue;
            }
            let nf = n as f64;
            self.ctx.charge(nf * 0.01 + (nf / 64.0).ceil());
            let batch = Batch::from_cols(cols, n);
            let batch = match &self.filter {
                Some(f) => {
                    let sel = vexpr::eval_filter(f, &batch, self.ctx.fns)?;
                    if sel.len() == batch.len() {
                        batch
                    } else {
                        batch.gather(&sel)
                    }
                }
                None => batch,
            };
            if !batch.is_empty() {
                return Ok(Some(batch));
            }
        }
        Ok(None)
    }
}

struct IndexScanOp<'p> {
    table: Arc<Table>,
    rids: Vec<RowId>,
    pos: usize,
    schema: &'p Schema,
    filter: Option<VExpr>,
    ctx: &'p ExecContext<'p>,
    bs: usize,
}

impl BatchOp for IndexScanOp<'_> {
    fn next(&mut self) -> Result<Option<Batch>> {
        while self.pos < self.rids.len() {
            let end = (self.pos + self.bs).min(self.rids.len());
            let mut rows = Vec::with_capacity(end - self.pos);
            for &rid in &self.rids[self.pos..end] {
                if let Some(row) = self.table.heap.get(rid)? {
                    rows.push(row);
                }
            }
            self.pos = end;
            if rows.is_empty() {
                continue;
            }
            let batch = Batch::from_rows(self.schema, &rows);
            let batch = match &self.filter {
                Some(f) => {
                    let sel = vexpr::eval_filter(f, &batch, self.ctx.fns)?;
                    if sel.len() == batch.len() {
                        batch
                    } else {
                        batch.gather(&sel)
                    }
                }
                None => batch,
            };
            if !batch.is_empty() {
                return Ok(Some(batch));
            }
        }
        Ok(None)
    }
}

struct FilterOp<'p> {
    input: Box<dyn BatchOp + 'p>,
    pred: VExpr,
    ctx: &'p ExecContext<'p>,
}

impl BatchOp for FilterOp<'_> {
    fn next(&mut self) -> Result<Option<Batch>> {
        while let Some(b) = self.input.next()? {
            self.ctx.charge(b.len() as f64 * 0.005);
            let sel = vexpr::eval_filter(&self.pred, &b, self.ctx.fns)?;
            if sel.is_empty() {
                continue;
            }
            return Ok(Some(if sel.len() == b.len() {
                b
            } else {
                b.gather(&sel)
            }));
        }
        Ok(None)
    }
}

struct ProjectOp<'p> {
    input: Box<dyn BatchOp + 'p>,
    exprs: Vec<VExpr>,
    ctx: &'p ExecContext<'p>,
}

impl BatchOp for ProjectOp<'_> {
    fn next(&mut self) -> Result<Option<Batch>> {
        match self.input.next()? {
            Some(b) => {
                self.ctx
                    .charge(b.len() as f64 * 0.005 * self.exprs.len().max(1) as f64);
                let cols = self
                    .exprs
                    .iter()
                    .map(|e| vexpr::eval(e, &b, self.ctx.fns))
                    .collect::<Result<Vec<_>>>()?;
                Ok(Some(Batch::from_cols(cols, b.len())))
            }
            None => Ok(None),
        }
    }
}

struct NestedLoopJoinOp<'p> {
    left: Option<Box<dyn BatchOp + 'p>>,
    right: Option<Box<dyn BatchOp + 'p>>,
    on: Option<VExpr>,
    out_schema: &'p Schema,
    ctx: &'p ExecContext<'p>,
    bs: usize,
    lrows: Vec<Row>,
    rrows: Vec<Row>,
    li: usize,
    ri: usize,
}

impl BatchOp for NestedLoopJoinOp<'_> {
    fn next(&mut self) -> Result<Option<Batch>> {
        if let (Some(mut l), Some(mut r)) = (self.left.take(), self.right.take()) {
            self.lrows = drain(&mut l)?;
            self.rrows = drain(&mut r)?;
            self.ctx
                .charge(self.lrows.len() as f64 * self.rrows.len() as f64 * 0.01);
        }
        loop {
            let mut pending = Vec::with_capacity(self.bs);
            while pending.len() < self.bs && self.li < self.lrows.len() {
                if self.rrows.is_empty() {
                    break;
                }
                pending.push(self.lrows[self.li].join(&self.rrows[self.ri]));
                self.ri += 1;
                if self.ri == self.rrows.len() {
                    self.ri = 0;
                    self.li += 1;
                }
            }
            if pending.is_empty() {
                return Ok(None);
            }
            let batch = Batch::from_rows(self.out_schema, &pending);
            let batch = match &self.on {
                Some(p) => {
                    let sel = vexpr::eval_filter(p, &batch, self.ctx.fns)?;
                    batch.gather(&sel)
                }
                None => batch,
            };
            if !batch.is_empty() {
                return Ok(Some(batch));
            }
        }
    }
}

struct HashJoinOp<'p> {
    left: Option<Box<dyn BatchOp + 'p>>,
    right: Option<Box<dyn BatchOp + 'p>>,
    lkey: VExpr,
    rkey: VExpr,
    residual: Option<VExpr>,
    out_schema: &'p Schema,
    ctx: &'p ExecContext<'p>,
    bs: usize,
    build_rows: Vec<Row>,
    /// key → build-row indices in insertion order
    table: HashMap<Value, Vec<usize>>,
    probe_rows: Vec<Row>,
    probe_keys: Vec<Value>,
    build_is_left: bool,
    probe_pos: usize,
}

impl HashJoinOp<'_> {
    fn open(&mut self) -> Result<()> {
        let (Some(mut l), Some(mut r)) = (self.left.take(), self.right.take()) else {
            return Ok(());
        };
        // drain both inputs batch-wise, computing join keys with the
        // vectorized kernels as batches arrive
        let (lrows, lkeys) = drain_keyed(&mut l, &self.lkey, self.ctx)?;
        let (rrows, rkeys) = drain_keyed(&mut r, &self.rkey, self.ctx)?;
        self.ctx.charge((lrows.len() + rrows.len()) as f64 * 0.015);
        // build on the smaller side, like the row executor, so output
        // order (probe order × build-insertion order) matches exactly
        let (build_rows, build_keys, probe_rows, probe_keys, build_is_left) =
            if lrows.len() <= rrows.len() {
                (lrows, lkeys, rrows, rkeys, true)
            } else {
                (rrows, rkeys, lrows, lkeys, false)
            };
        for (i, k) in build_keys.into_iter().enumerate() {
            if k.is_null() {
                continue; // NULL never joins
            }
            self.table.entry(k).or_default().push(i);
        }
        self.build_rows = build_rows;
        self.probe_rows = probe_rows;
        self.probe_keys = probe_keys;
        self.build_is_left = build_is_left;
        Ok(())
    }
}

impl BatchOp for HashJoinOp<'_> {
    fn next(&mut self) -> Result<Option<Batch>> {
        self.open()?;
        loop {
            let mut pending: Vec<Row> = Vec::with_capacity(self.bs);
            while pending.len() < self.bs && self.probe_pos < self.probe_rows.len() {
                let k = &self.probe_keys[self.probe_pos];
                let p = &self.probe_rows[self.probe_pos];
                if !k.is_null() {
                    if let Some(matches) = self.table.get(k) {
                        for &bi in matches {
                            let b = &self.build_rows[bi];
                            pending.push(if self.build_is_left {
                                b.join(p)
                            } else {
                                p.join(b)
                            });
                        }
                    }
                }
                self.probe_pos += 1;
            }
            if pending.is_empty() {
                return Ok(None);
            }
            let batch = Batch::from_rows(self.out_schema, &pending);
            let batch = match &self.residual {
                Some(r) => {
                    let sel = vexpr::eval_filter(r, &batch, self.ctx.fns)?;
                    batch.gather(&sel)
                }
                None => batch,
            };
            if !batch.is_empty() {
                self.ctx.charge(batch.len() as f64 * 0.01);
                return Ok(Some(batch));
            }
        }
    }
}

struct AggregateOp<'p> {
    input: Option<Box<dyn BatchOp + 'p>>,
    group: Vec<VExpr>,
    args: Vec<Option<VExpr>>,
    aggs: &'p [AggExpr],
    out_schema: &'p Schema,
    ctx: &'p ExecContext<'p>,
    bs: usize,
    out: Vec<Row>,
    pos: usize,
}

impl AggregateOp<'_> {
    fn eval_args(&self, b: &Batch) -> Result<Vec<Option<ColVec>>> {
        self.args
            .iter()
            .map(|a| {
                a.as_ref()
                    .map(|e| vexpr::eval(e, b, self.ctx.fns))
                    .transpose()
            })
            .collect()
    }

    /// No GROUP BY: one state set updated column-at-a-time — no per-row
    /// hash probe, no per-row `Value` materialization for typed lanes.
    fn drain_global(&mut self, input: &mut Box<dyn BatchOp + '_>) -> Result<()> {
        let mut states: Vec<AggState> = self.aggs.iter().map(|a| AggState::new(a.func)).collect();
        while let Some(b) = input.next()? {
            self.ctx.charge(b.len() as f64 * 0.02);
            let arg_cols = self.eval_args(&b)?;
            for (st, col) in states.iter_mut().zip(&arg_cols) {
                update_state_col(st, col.as_ref(), b.len())?;
            }
        }
        // a global aggregate yields exactly one row, even over zero rows
        self.out
            .push(Row::new(states.into_iter().map(AggState::finish).collect()));
        Ok(())
    }

    fn drain_grouped(&mut self, input: &mut Box<dyn BatchOp + '_>) -> Result<()> {
        // single-column keys probe on a bare `Value` (no per-row Vec)
        let mut index1: HashMap<Value, usize> = HashMap::new();
        let mut indexn: HashMap<Vec<Value>, usize> = HashMap::new();
        // first-seen group order, like the row executor
        let mut groups: Vec<(Vec<Value>, Vec<AggState>)> = Vec::new();
        let single = self.group.len() == 1;
        while let Some(b) = input.next()? {
            self.ctx.charge(b.len() as f64 * 0.02);
            let key_cols = self
                .group
                .iter()
                .map(|g| vexpr::eval(g, &b, self.ctx.fns))
                .collect::<Result<Vec<_>>>()?;
            let arg_cols = self.eval_args(&b)?;
            for i in 0..b.len() {
                let gi = if single {
                    let k = key_cols[0].value(i);
                    match index1.get(&k) {
                        Some(&gi) => gi,
                        None => {
                            index1.insert(k.clone(), groups.len());
                            groups.push((
                                vec![k],
                                self.aggs.iter().map(|a| AggState::new(a.func)).collect(),
                            ));
                            groups.len() - 1
                        }
                    }
                } else {
                    let key: Vec<Value> = key_cols.iter().map(|c| c.value(i)).collect();
                    match indexn.get(&key) {
                        Some(&gi) => gi,
                        None => {
                            indexn.insert(key.clone(), groups.len());
                            groups.push((
                                key,
                                self.aggs.iter().map(|a| AggState::new(a.func)).collect(),
                            ));
                            groups.len() - 1
                        }
                    }
                };
                for (st, col) in groups[gi].1.iter_mut().zip(&arg_cols) {
                    update_state_lane(st, col.as_ref(), i)?;
                }
            }
        }
        for (key, states) in groups {
            let mut vals = key;
            vals.extend(states.into_iter().map(AggState::finish));
            self.out.push(Row::new(vals));
        }
        Ok(())
    }
}

impl BatchOp for AggregateOp<'_> {
    fn next(&mut self) -> Result<Option<Batch>> {
        if let Some(mut input) = self.input.take() {
            if self.group.is_empty() {
                self.drain_global(&mut input)?;
            } else {
                self.drain_grouped(&mut input)?;
            }
        }
        emit_chunk(&mut self.pos, &self.out, self.out_schema, self.bs)
    }
}

/// Update one aggregate state from lane `i` of an argument column.
/// Typed Int/Float lanes feed SUM/AVG without materializing a `Value`;
/// everything else defers to [`AggState::update`] so NULL handling and
/// type-error behavior stay identical to the row executor.
fn update_state_lane(st: &mut AggState, col: Option<&ColVec>, i: usize) -> Result<()> {
    match (st, col) {
        (st, None) => st.update(None),
        (AggState::Sum(s), Some(ColVec::Float { vals, nulls })) => {
            if !nulls[i] {
                *s += vals[i];
            }
            Ok(())
        }
        (AggState::Sum(s), Some(ColVec::Int { vals, nulls })) => {
            if !nulls[i] {
                *s += vals[i] as f64;
            }
            Ok(())
        }
        (AggState::Avg(s, n), Some(ColVec::Float { vals, nulls })) => {
            if !nulls[i] {
                *s += vals[i];
                *n += 1;
            }
            Ok(())
        }
        (AggState::Avg(s, n), Some(ColVec::Int { vals, nulls })) => {
            if !nulls[i] {
                *s += vals[i] as f64;
                *n += 1;
            }
            Ok(())
        }
        (AggState::Count(n), Some(c)) => {
            if !c.is_null(i) {
                *n += 1;
            }
            Ok(())
        }
        (st, Some(c)) => st.update(Some(&c.value(i))),
    }
}

/// Update one aggregate state from a whole argument column (the global,
/// no-GROUP-BY path). Addition order is lane order — the same row order
/// the scalar executor folds in — so float results are bit-identical.
fn update_state_col(st: &mut AggState, col: Option<&ColVec>, n: usize) -> Result<()> {
    match (st, col) {
        // COUNT(*) counts rows outright
        (AggState::Count(c), None) => {
            *c += n as u64;
            Ok(())
        }
        (AggState::Sum(s), Some(ColVec::Float { vals, nulls })) => {
            for i in 0..n {
                if !nulls[i] {
                    *s += vals[i];
                }
            }
            Ok(())
        }
        (AggState::Sum(s), Some(ColVec::Int { vals, nulls })) => {
            for i in 0..n {
                if !nulls[i] {
                    *s += vals[i] as f64;
                }
            }
            Ok(())
        }
        (AggState::Avg(s, cnt), Some(ColVec::Float { vals, nulls })) => {
            for i in 0..n {
                if !nulls[i] {
                    *s += vals[i];
                    *cnt += 1;
                }
            }
            Ok(())
        }
        (AggState::Avg(s, cnt), Some(ColVec::Int { vals, nulls })) => {
            for i in 0..n {
                if !nulls[i] {
                    *s += vals[i] as f64;
                    *cnt += 1;
                }
            }
            Ok(())
        }
        (AggState::Count(c), Some(col)) => {
            for i in 0..n {
                if !col.is_null(i) {
                    *c += 1;
                }
            }
            Ok(())
        }
        (st, col) => {
            for i in 0..n {
                let v = col.map(|c| c.value(i));
                st.update(v.as_ref())?;
            }
            Ok(())
        }
    }
}

struct SortOp<'p> {
    input: Option<Box<dyn BatchOp + 'p>>,
    keys: Vec<(VExpr, bool)>,
    out_schema: &'p Schema,
    ctx: &'p ExecContext<'p>,
    bs: usize,
    out: Vec<Row>,
    pos: usize,
}

impl BatchOp for SortOp<'_> {
    fn next(&mut self) -> Result<Option<Batch>> {
        if let Some(mut input) = self.input.take() {
            // drain, computing sort keys vectorized per input batch
            let mut keyed: Vec<(Vec<Value>, Row)> = Vec::new();
            while let Some(b) = input.next()? {
                let key_cols = self
                    .keys
                    .iter()
                    .map(|(e, _)| vexpr::eval(e, &b, self.ctx.fns))
                    .collect::<Result<Vec<_>>>()?;
                for i in 0..b.len() {
                    let ks: Vec<Value> = key_cols.iter().map(|c| c.value(i)).collect();
                    keyed.push((ks, b.row(i)));
                }
            }
            let n = keyed.len() as f64;
            self.ctx.charge(n * n.max(2.0).log2() * 0.005);
            // stable sort with the same comparator as the row executor
            keyed.sort_by(|(a, _), (b, _)| {
                for (i, (_, desc)) in self.keys.iter().enumerate() {
                    let ord = a[i].cmp(&b[i]);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            self.out = keyed.into_iter().map(|(_, r)| r).collect();
        }
        emit_chunk(&mut self.pos, &self.out, self.out_schema, self.bs)
    }
}

struct LimitOp<'p> {
    input: Box<dyn BatchOp + 'p>,
    remaining: usize,
}

impl BatchOp for LimitOp<'_> {
    fn next(&mut self) -> Result<Option<Batch>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        match self.input.next()? {
            Some(b) => {
                if b.len() <= self.remaining {
                    self.remaining -= b.len();
                    Ok(Some(b))
                } else {
                    let sel: Vec<u32> = (0..self.remaining as u32).collect();
                    self.remaining = 0;
                    Ok(Some(b.gather(&sel)))
                }
            }
            None => Ok(None),
        }
    }
}

struct ValuesOp<'p> {
    rows: &'p [Row],
    schema: &'p Schema,
    pos: usize,
    bs: usize,
}

impl BatchOp for ValuesOp<'_> {
    fn next(&mut self) -> Result<Option<Batch>> {
        emit_chunk(&mut self.pos, self.rows, self.schema, self.bs)
    }
}

/// Emit the next `bs`-row chunk of a materialized row set as a batch.
fn emit_chunk(pos: &mut usize, rows: &[Row], schema: &Schema, bs: usize) -> Result<Option<Batch>> {
    if *pos >= rows.len() {
        return Ok(None);
    }
    let end = (*pos + bs).min(rows.len());
    let b = Batch::from_rows(schema, &rows[*pos..end]);
    *pos = end;
    Ok(Some(b))
}

/// Drain an operator into a materialized row vector.
fn drain(op: &mut Box<dyn BatchOp + '_>) -> Result<Vec<Row>> {
    let mut rows = Vec::new();
    while let Some(b) = op.next()? {
        rows.extend(b.to_rows());
    }
    Ok(rows)
}

/// Drain an operator, evaluating a compiled key expression over each
/// batch; returns rows and their keys, positionally aligned.
fn drain_keyed(
    op: &mut Box<dyn BatchOp + '_>,
    key: &VExpr,
    ctx: &ExecContext<'_>,
) -> Result<(Vec<Row>, Vec<Value>)> {
    let mut rows = Vec::new();
    let mut keys = Vec::new();
    while let Some(b) = op.next()? {
        let kc = vexpr::eval(key, &b, ctx.fns)?;
        for i in 0..b.len() {
            keys.push(kc.value(i));
            rows.push(b.row(i));
        }
    }
    Ok((rows, keys))
}

// ---------------------------------------------------------------------------
// Morsel-driven parallel regions
// ---------------------------------------------------------------------------

/// `Exchange` with one worker: the parallelism boundary is a no-op.
struct PassthroughOp<'p> {
    input: Box<dyn BatchOp + 'p>,
}

impl BatchOp for PassthroughOp<'_> {
    fn next(&mut self) -> Result<Option<Batch>> {
        self.input.next()
    }
}

/// One pipeline stage above the scan inside an exchange region.
enum StageKind {
    Filter(VExpr),
    Project(Vec<VExpr>),
}

struct RegionStage {
    kind: StageKind,
    node: usize,
}

impl RegionStage {
    fn name(&self) -> &'static str {
        match self.kind {
            StageKind::Filter(_) => "filter",
            StageKind::Project(_) => "project",
        }
    }
}

/// A compiled scan→filter→project pipeline under an `Exchange`:
/// everything a morsel worker needs, with no reference back into the
/// (single-threaded) execution context, so it can be shared across the
/// scoped worker pool.
struct RegionSpec<'p> {
    source: MorselSource,
    /// MVCC row filter resolved at compile time (metas cloned once, so
    /// workers share it without touching the catalog).
    vis: RowVis,
    scan_schema: &'p Schema,
    scan_filter: Option<VExpr>,
    scan_node: usize,
    /// Stages above the scan, in application (scan-upwards) order.
    stages: Vec<RegionStage>,
}

/// Compile the plan subtree under an exchange into a [`RegionSpec`],
/// consuming preorder node ids exactly like `build` would so the ids in
/// worker-side counters line up with `EXPLAIN` / `EXPLAIN ANALYZE`.
fn compile_region<'p>(
    plan: &'p PhysicalPlan,
    ctx: &ExecContext<'p>,
    next_id: &mut usize,
) -> Result<RegionSpec<'p>> {
    let mut stages: Vec<RegionStage> = Vec::new();
    let mut cur = plan;
    loop {
        let node = *next_id;
        *next_id += 1;
        match &cur.op {
            PhysOp::Filter { input, predicate } => {
                stages.push(RegionStage {
                    kind: StageKind::Filter(vexpr::compile(predicate, &input.schema)?),
                    node,
                });
                cur = input;
            }
            PhysOp::Project { input, exprs } => {
                let compiled = exprs
                    .iter()
                    .map(|e| vexpr::compile(e, &input.schema))
                    .collect::<Result<Vec<_>>>()?;
                stages.push(RegionStage {
                    kind: StageKind::Project(compiled),
                    node,
                });
                cur = input;
            }
            PhysOp::SeqScan { table, filter, .. } => {
                let t = ctx.catalog.table(table)?;
                let scan_filter = filter
                    .as_ref()
                    .map(|f| vexpr::compile(f, &cur.schema))
                    .transpose()?;
                // collected top-down; workers apply them scan-upwards
                stages.reverse();
                return Ok(RegionSpec {
                    source: t.heap.morsel_source(),
                    vis: t.visibility(ctx.snapshot())?,
                    scan_schema: &cur.schema,
                    scan_filter,
                    scan_node: node,
                    stages,
                });
            }
            _ => {
                return Err(AimError::Execution(
                    "Exchange region contains a non-parallelizable operator".into(),
                ))
            }
        }
    }
}

/// Aggregate fused into an exchange's workers: each morsel folds into
/// its own state set; the main thread merges states in morsel order.
struct PartialAggSpec<'p> {
    group: Vec<VExpr>,
    args: Vec<Option<VExpr>>,
    aggs: &'p [AggExpr],
    agg_node: usize,
    exchange_node: usize,
}

/// Is partial aggregation *exact* for these aggregates over this region?
/// COUNT/MIN/MAX states merge exactly for any input. SUM/AVG fold in
/// f64, where addition only reassociates losslessly when every addend is
/// an integer (exact below 2^53) — so the argument must be a bare
/// base-table Int column, traced through the region's projections.
fn mergeable(aggs: &[AggExpr], region: &PhysicalPlan) -> bool {
    aggs.iter().all(|a| match a.func {
        AggFunc::Count | AggFunc::Min | AggFunc::Max => true,
        AggFunc::Sum | AggFunc::Avg => a
            .arg
            .as_ref()
            .is_some_and(|e| traces_to_int_column(region, e)),
    })
}

/// Resolve a column the way `vexpr::compile` does: qualified spelling
/// first, then the bare name.
fn resolve_col(schema: &Schema, qualifier: &Option<String>, name: &str) -> Option<usize> {
    let full = match qualifier {
        Some(q) => format!("{q}.{name}"),
        None => name.to_string(),
    };
    schema
        .index_of(&full)
        .or_else(|_| schema.index_of(name))
        .ok()
}

/// Does `expr`, evaluated against `region`'s output, reduce to a plain
/// base-table Int column? Follows pure column passthroughs in Project
/// stages down to the scan, where the catalog type is authoritative.
fn traces_to_int_column(region: &PhysicalPlan, expr: &Expr) -> bool {
    let Expr::Column { qualifier, name } = expr else {
        return false;
    };
    let Some(idx) = resolve_col(&region.schema, qualifier, name) else {
        return false;
    };
    match &region.op {
        PhysOp::SeqScan { .. } => region.schema.columns()[idx].data_type == DataType::Int,
        PhysOp::Filter { input, .. } => traces_to_int_column(input, expr),
        PhysOp::Project { input, exprs } => traces_to_int_column(input, &exprs[idx]),
        _ => false,
    }
}

/// What one morsel produced: region output batches, or partial
/// aggregate states when the aggregate is fused into the workers.
enum MorselOut {
    Batches(Vec<Batch>),
    Global(Vec<AggState>),
    Grouped(Vec<(Vec<Value>, Vec<AggState>)>),
}

/// Per-worker counters accumulated off-thread (the context's cells are
/// not `Sync`) and merged into the context after the pool joins.
#[derive(Default)]
struct WorkerAcc {
    stats: BTreeMap<(&'static str, usize), OpStats>,
    cost: f64,
}

impl WorkerAcc {
    /// Record a non-empty output batch for one region node.
    fn bump(&mut self, name: &'static str, node: usize, rows: u64) {
        let e = self.stats.entry((name, node)).or_default();
        e.rows += rows;
        e.batches += 1;
    }

    /// Charge cost units to one region node (and the region total).
    fn charge(&mut self, name: &'static str, node: usize, units: f64) {
        self.cost += units;
        self.stats.entry((name, node)).or_default().cost_units += units;
    }

    fn add_ns(&mut self, name: &'static str, node: usize, ns: u64) {
        self.stats.entry((name, node)).or_default().ns += ns;
    }
}

struct WorkerOut {
    pieces: Vec<(usize, MorselOut)>,
    stats: BTreeMap<(&'static str, usize), OpStats>,
    cost: f64,
    span: WorkerSpan,
    /// Waits incurred on the worker thread (already in the global
    /// totals; adopted into the coordinating thread's statement set).
    waits: aimdb_common::WaitSet,
}

/// Pages per morsel: aim for ~8 morsels per worker so the dispenser can
/// load-balance, clamped to [1, 16]. Purely a scheduling choice —
/// results are merged in morsel order, so any size yields identical
/// output.
fn morsel_pages_for(page_count: usize, workers: usize) -> usize {
    (page_count / (workers * 8).max(1)).clamp(1, 16)
}

fn region_now(clock: Option<&dyn Clock>) -> u64 {
    match clock {
        Some(c) => (c.now_secs() * 1e9) as u64,
        None => 0,
    }
}

/// Run an exchange region on a scoped morsel worker pool and return the
/// per-morsel outputs sorted by morsel index — i.e. in the exact row
/// order the serial scan would produce. Worker counters, cost and spans
/// are folded into the context here, on the main thread, in worker
/// order, so the merge itself is deterministic too.
fn run_region<'p>(
    region: &RegionSpec<'p>,
    spec: Option<&PartialAggSpec<'p>>,
    ctx: &ExecContext<'p>,
    bs: usize,
    workers: usize,
) -> Result<Vec<MorselOut>> {
    let dispenser = region
        .source
        .dispenser(morsel_pages_for(region.source.page_count(), workers));
    let fns = ctx.fns;
    let clock = ctx.clock();
    let outs: Vec<Result<WorkerOut>> = crossbeam::scope(|s| {
        let handles: Vec<_> = (1..=workers)
            .map(|w| {
                let dispenser = &dispenser;
                s.spawn(move |_| run_worker(region, dispenser, spec, fns, clock, bs, w))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(_) => Err(AimError::Execution("morsel worker panicked".into())),
            })
            .collect()
    })
    .map_err(|_| AimError::Execution("parallel exchange region panicked".into()))?;
    let mut pieces = Vec::new();
    for out in outs {
        let out = out?;
        for ((name, node), st) in out.stats {
            ctx.record_op_stats((name, node, out.span.worker), st);
        }
        ctx.charge(out.cost);
        ctx.note_worker_span(out.span);
        wait::adopt(&out.waits);
        pieces.extend(out.pieces);
    }
    pieces.sort_by_key(|&(idx, _)| idx);
    Ok(pieces.into_iter().map(|(_, p)| p).collect())
}

/// One morsel worker: claim morsels until the dispenser runs dry,
/// running the region pipeline (and any fused partial aggregate) on
/// each.
fn run_worker<'p>(
    region: &RegionSpec<'p>,
    dispenser: &MorselDispenser,
    spec: Option<&PartialAggSpec<'p>>,
    fns: &dyn ScalarFns,
    clock: Option<&dyn Clock>,
    bs: usize,
    worker: usize,
) -> Result<WorkerOut> {
    let start_ns = region_now(clock);
    let mut busy_ns = 0u64;
    let mut acc = WorkerAcc::default();
    let mut pieces = Vec::new();
    while let Some(m) = dispenser.claim() {
        let t0 = region_now(clock);
        let out = process_morsel(region, m, spec, fns, bs, &mut acc)?;
        let dt = region_now(clock).saturating_sub(t0);
        busy_ns += dt;
        // approximate the serial executor's inclusive-time semantics:
        // every region node's subtree covers the whole morsel pipeline
        acc.add_ns("seq_scan", region.scan_node, dt);
        for st in &region.stages {
            acc.add_ns(st.name(), st.node, dt);
        }
        if let Some(sp) = spec {
            acc.add_ns("exchange", sp.exchange_node, dt);
        }
        pieces.push((m.index, out));
    }
    let end_ns = region_now(clock);
    // attribute this worker's blocked time (buffer misses, contended
    // locks) to the scan node it pulled through, and hand the set back
    // for statement-level adoption — the worker thread dies here, so
    // its thread-local accumulator must be drained now
    let waits = wait::take_thread();
    if !waits.is_zero() {
        acc.stats
            .entry(("seq_scan", region.scan_node))
            .or_default()
            .wait
            .merge(&waits);
    }
    Ok(WorkerOut {
        pieces,
        stats: acc.stats,
        cost: acc.cost,
        span: WorkerSpan {
            worker,
            start_ns,
            end_ns,
            busy_ns,
        },
        waits,
    })
}

/// Run the region pipeline over one morsel's page range. Output rows are
/// either collected as batches, or folded into fresh per-morsel partial
/// aggregate states (`spec` present).
fn process_morsel<'p>(
    region: &RegionSpec<'p>,
    m: Morsel,
    spec: Option<&PartialAggSpec<'p>>,
    fns: &dyn ScalarFns,
    bs: usize,
    acc: &mut WorkerAcc,
) -> Result<MorselOut> {
    let mut out = match spec {
        None => MorselOut::Batches(Vec::new()),
        Some(sp) if sp.group.is_empty() => {
            MorselOut::Global(sp.aggs.iter().map(|a| AggState::new(a.func)).collect())
        }
        Some(_) => MorselOut::Grouped(Vec::new()),
    };
    let mut group_index: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut cursor = region.source.cursor(m.start, m.end);
    loop {
        let mut cols: Vec<ColVec> = region
            .scan_schema
            .columns()
            .iter()
            .map(|c| ColVec::with_capacity(c.data_type, bs))
            .collect();
        let vis = &region.vis;
        let (n, more) = cursor.fill_batch_vis(bs, &mut cols, Some(&|rid| vis.allows(rid)))?;
        if n > 0 {
            let nf = n as f64;
            acc.charge("seq_scan", region.scan_node, nf * 0.01 + (nf / 64.0).ceil());
            let mut batch = Batch::from_cols(cols, n);
            if let Some(f) = &region.scan_filter {
                let sel = vexpr::eval_filter(f, &batch, fns)?;
                if sel.len() != batch.len() {
                    batch = batch.gather(&sel);
                }
            }
            if !batch.is_empty() {
                acc.bump("seq_scan", region.scan_node, batch.len() as u64);
                if let Some(b) = run_stages(region, batch, fns, acc)? {
                    fold_or_collect(&mut out, &mut group_index, spec, b, fns, acc)?;
                }
            }
        }
        if !more {
            break;
        }
    }
    Ok(out)
}

/// Apply the region's filter/project stages to one batch; `None` once
/// the batch filters down to empty.
fn run_stages(
    region: &RegionSpec<'_>,
    mut batch: Batch,
    fns: &dyn ScalarFns,
    acc: &mut WorkerAcc,
) -> Result<Option<Batch>> {
    for stage in &region.stages {
        match &stage.kind {
            StageKind::Filter(pred) => {
                acc.charge("filter", stage.node, batch.len() as f64 * 0.005);
                let sel = vexpr::eval_filter(pred, &batch, fns)?;
                if sel.is_empty() {
                    return Ok(None);
                }
                if sel.len() != batch.len() {
                    batch = batch.gather(&sel);
                }
            }
            StageKind::Project(exprs) => {
                acc.charge(
                    "project",
                    stage.node,
                    batch.len() as f64 * 0.005 * exprs.len().max(1) as f64,
                );
                let cols = exprs
                    .iter()
                    .map(|e| vexpr::eval(e, &batch, fns))
                    .collect::<Result<Vec<_>>>()?;
                batch = Batch::from_cols(cols, batch.len());
            }
        }
        acc.bump(stage.name(), stage.node, batch.len() as u64);
    }
    Ok(Some(batch))
}

/// Collect one post-stage batch into the morsel's output — or fold it
/// into the fused partial aggregate states.
fn fold_or_collect<'p>(
    out: &mut MorselOut,
    group_index: &mut HashMap<Vec<Value>, usize>,
    spec: Option<&PartialAggSpec<'p>>,
    batch: Batch,
    fns: &dyn ScalarFns,
    acc: &mut WorkerAcc,
) -> Result<()> {
    match (out, spec) {
        (MorselOut::Batches(v), _) => v.push(batch),
        (MorselOut::Global(states), Some(sp)) => {
            acc.bump("exchange", sp.exchange_node, batch.len() as u64);
            acc.charge("aggregate", sp.agg_node, batch.len() as f64 * 0.02);
            let arg_cols = eval_agg_args(&sp.args, &batch, fns)?;
            for (st, col) in states.iter_mut().zip(&arg_cols) {
                update_state_col(st, col.as_ref(), batch.len())?;
            }
        }
        (MorselOut::Grouped(groups), Some(sp)) => {
            acc.bump("exchange", sp.exchange_node, batch.len() as u64);
            acc.charge("aggregate", sp.agg_node, batch.len() as f64 * 0.02);
            let key_cols = sp
                .group
                .iter()
                .map(|g| vexpr::eval(g, &batch, fns))
                .collect::<Result<Vec<_>>>()?;
            let arg_cols = eval_agg_args(&sp.args, &batch, fns)?;
            for i in 0..batch.len() {
                let key: Vec<Value> = key_cols.iter().map(|c| c.value(i)).collect();
                let gi = match group_index.get(&key) {
                    Some(&gi) => gi,
                    None => {
                        group_index.insert(key.clone(), groups.len());
                        groups.push((key, sp.aggs.iter().map(|a| AggState::new(a.func)).collect()));
                        groups.len() - 1
                    }
                };
                for (st, col) in groups[gi].1.iter_mut().zip(&arg_cols) {
                    update_state_lane(st, col.as_ref(), i)?;
                }
            }
        }
        _ => {
            return Err(AimError::Execution(
                "fused partial aggregate lost its spec".into(),
            ))
        }
    }
    Ok(())
}

fn eval_agg_args(
    args: &[Option<VExpr>],
    b: &Batch,
    fns: &dyn ScalarFns,
) -> Result<Vec<Option<ColVec>>> {
    args.iter()
        .map(|a| a.as_ref().map(|e| vexpr::eval(e, b, fns)).transpose())
        .collect()
}

/// The parallelism boundary: runs its compiled region on the morsel
/// worker pool and streams the merged (morsel-ordered) batches out.
struct ExchangeOp<'p> {
    region: RegionSpec<'p>,
    ctx: &'p ExecContext<'p>,
    bs: usize,
    workers: usize,
    /// Region output, reversed so `pop()` yields morsel order.
    out: Vec<Batch>,
    opened: bool,
}

impl BatchOp for ExchangeOp<'_> {
    fn next(&mut self) -> Result<Option<Batch>> {
        if !self.opened {
            self.opened = true;
            let pieces = run_region(&self.region, None, self.ctx, self.bs, self.workers)?;
            for piece in pieces {
                if let MorselOut::Batches(bats) = piece {
                    self.out.extend(bats);
                }
            }
            self.out.reverse();
        }
        Ok(self.out.pop())
    }
}

/// Aggregate fused into an exchange: runs the worker pool, then merges
/// the per-morsel partial states in morsel order — group order is the
/// serial first-seen order, and every state merge is exact (enforced by
/// [`mergeable`] at build time).
struct ParallelAggOp<'p> {
    region: RegionSpec<'p>,
    spec: PartialAggSpec<'p>,
    out_schema: &'p Schema,
    ctx: &'p ExecContext<'p>,
    bs: usize,
    workers: usize,
    out: Vec<Row>,
    pos: usize,
    opened: bool,
}

impl ParallelAggOp<'_> {
    fn open(&mut self) -> Result<()> {
        if self.opened {
            return Ok(());
        }
        self.opened = true;
        let pieces = run_region(
            &self.region,
            Some(&self.spec),
            self.ctx,
            self.bs,
            self.workers,
        )?;
        if self.spec.group.is_empty() {
            let mut total: Vec<AggState> = self
                .spec
                .aggs
                .iter()
                .map(|a| AggState::new(a.func))
                .collect();
            for piece in pieces {
                let MorselOut::Global(states) = piece else {
                    return Err(AimError::Execution(
                        "mixed morsel outputs in fused aggregate".into(),
                    ));
                };
                for (t, s) in total.iter_mut().zip(states) {
                    t.merge(s)?;
                }
            }
            // a global aggregate yields exactly one row, even over zero
            self.out
                .push(Row::new(total.into_iter().map(AggState::finish).collect()));
        } else {
            let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
            let mut groups: Vec<(Vec<Value>, Vec<AggState>)> = Vec::new();
            for piece in pieces {
                let MorselOut::Grouped(gs) = piece else {
                    return Err(AimError::Execution(
                        "mixed morsel outputs in fused aggregate".into(),
                    ));
                };
                for (key, states) in gs {
                    match index.get(&key) {
                        Some(&gi) => {
                            for (t, s) in groups[gi].1.iter_mut().zip(states) {
                                t.merge(s)?;
                            }
                        }
                        None => {
                            index.insert(key.clone(), groups.len());
                            groups.push((key, states));
                        }
                    }
                }
            }
            for (key, states) in groups {
                let mut vals = key;
                vals.extend(states.into_iter().map(AggState::finish));
                self.out.push(Row::new(vals));
            }
        }
        Ok(())
    }
}

impl BatchOp for ParallelAggOp<'_> {
    fn next(&mut self) -> Result<Option<Batch>> {
        self.open()?;
        emit_chunk(&mut self.pos, &self.out, self.out_schema, self.bs)
    }
}
