//! Streaming vectorized executor: the engine's only plan interpreter.
//!
//! Operators *pull* fixed-size column batches ([`Batch`]) instead of
//! materializing whole row sets: scans fill batches straight from the
//! storage cursors (the index scan decodes each fetched tuple into the
//! same typed lanes), predicates produce selection vectors (their
//! conjuncts cascading, each evaluated only on the rows the ones before
//! it kept) that are applied with `gather`, and expressions — a
//! model-bound `PREDICT` included — run through the compiled kernels in
//! `aimdb_sql::vexpr`. Pipeline-breaking operators (hash join build,
//! aggregate, sort) drain their inputs batch-wise. Sort and aggregate
//! build their whole output as one [`Batch`] on the first pull (VALUES
//! builds its one with the plan) and one operator hands it out in
//! batch-size slices. An UPDATE or DELETE reads its rows through the
//! same scan operators (`execute_dml`), which then also hand back each
//! kept row's `RowId`.
//!
//! Result equivalence with the reference row interpreter (the dev-only
//! `aimdb-oracle` crate, which shares none of this machinery) is
//! enforced by the differential oracle (`tests/exec_differential.rs`);
//! output *order* is part of the contract, so ORDER BY queries can be
//! compared positionally:
//! - scans emit heap page order / index key order,
//! - hash join builds on the smaller input and emits probe order ×
//!   build-insertion order,
//! - aggregation emits first-seen group order,
//! - sort is stable over the same keys, evaluated once over its drained
//!   input.
//!
//! # Joins
//!
//! Both joins stay columnar from drain to output. The hash join drains
//! each input as `(batch, key column)` pairs and builds on the smaller
//! side, its batches appended into one [`Batch`] (`Batch::append`). The
//! build keys go into one chained table (`KeyTable`) for every key
//! type: `first` holds a bucket's head row, `next` links each build row
//! to the following one, rows are inserted in reverse so a chain walks
//! in insertion order, and NULL keys are never inserted or probed. Keys
//! hash the way `Value` does (an Int as its `f64` bits, so `Int(2)`
//! meets `Float(2.0)`), mixed before the bucket mask; two Int lanes
//! compare as `i64`, any other pair as `Value`s. Each probe batch turns
//! into `(probe_idx, build_idx)` pairs, whole chains at a time up to
//! the batch size, and the output is two `gather`s, columns left then
//! right whichever side built. The nested-loop join appends both
//! inputs the same way and emits its left-major `(li, ri)` pairs
//! through the same gathers. A residual or `ON` predicate is a
//! selection over the gathered batch.
//!
//! # Aggregation
//!
//! The aggregate hashes and compares keys through the join's table and
//! functions. Its group keys are one column per GROUP BY expression,
//! one lane per group in first-seen order, and each group is a row of a
//! `KeyTable`. A batch becomes one group id per row: a row's hash
//! combines its key columns' hashes (a NULL lane adds a fixed
//! constant), and a key matches a group when the NULL rows agree and
//! the non-NULL lanes are equal, so NULL keys group together, as under
//! `Value`'s `Eq`, and apart from 0. A new key appends a lane and links
//! the group; a full table is rebuilt at twice the size from the
//! groups' stored hashes. With no GROUP BY there are zero key columns
//! and every row maps to group 0, present from the start. States are
//! laid out `states[agg][group]`, and each argument column folds in
//! with one update that matches the column type once per batch and
//! adds lanes in row order.
//!
//! # Morsel-driven parallelism
//!
//! [`PhysOp::Exchange`] nodes (inserted by the optimizer over maximal
//! scan→filter→project regions) run on `min(workers, morsels)` morsel
//! workers when `workers > 1`: the calling thread is worker 1 and starts
//! a scoped thread for each of the others, so a one-morsel region starts
//! none. The region's page list, row visibility and morsel dispenser are
//! resolved once, on the calling thread; each worker then
//! builds the region's subtree with the same `Builder` and operators
//! the serial pipeline uses, on a forked [`ExecContext`] of its own. The
//! only difference is the scan: it claims fixed page-range *morsels*
//! from the shared atomic [`MorselDispenser`] instead of reading the
//! whole heap, and never lets a batch span two morsels. Each batch a
//! worker pulls is tagged with the morsel its scan is on, and the calling
//! thread merges per-morsel outputs *in morsel order*, which reproduces
//! the serial scan's row order exactly — so results are bit-identical at
//! any thread count. Worker contexts (per-node counters, cost) are
//! merged into the parent after the join, in worker order.
//!
//! An aggregate directly above an exchange is fused into the workers
//! (partial aggregation: one `AggFold` per morsel, merged in morsel
//! order) only when merging partial states is exact: COUNT/MIN/MAX
//! always, SUM/AVG only over base-table Int columns (summed in an exact
//! `i128`); float sums stay on the serial fold, whose element-wise row
//! order does not depend on batch or morsel boundaries.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use aimdb_common::{
    wait, AimError, Batch, ColVec, DataType, Lane, Result, Row, Schema, Value, WaitSet,
};
use aimdb_sql::ast::AggFunc;
use aimdb_sql::expr::{Expr, ScalarFns};
use aimdb_sql::vexpr::{self, VExpr};

use crate::catalog::Table;
use crate::exec::{ExecContext, OpStats, WorkerSpan, MAIN_WORKER};
use crate::mvcc::RowVis;
use crate::plan::{resolve_col, AggExpr, PhysOp, PhysicalPlan};
use aimdb_storage::{HeapScanCursor, MorselDispenser, MorselSource, RowId};

/// Execute a physical plan with up to `workers` morsel threads inside
/// each exchange region, pulling `batch_size`-row batches through the
/// operator tree. `workers <= 1` is serial: exchange nodes degenerate to
/// pass-throughs. Any worker count produces identical results.
pub fn execute_batched_parallel(
    plan: &PhysicalPlan,
    ctx: &ExecContext,
    batch_size: usize,
    workers: usize,
) -> Result<Vec<Row>> {
    let mut root = Builder {
        ctx,
        bs: batch_size.max(1),
        workers: workers.clamp(1, 64),
        feed: None,
        next_id: 0,
        sink: None,
    }
    .build(plan)?;
    let mut out = Vec::new();
    while let Some(b) = root.next()? {
        out.extend(b.to_rows());
    }
    Ok(out)
}

/// Run an UPDATE or DELETE plan's read on the calling thread: a scan of
/// every column with the WHERE as its filter, under a `Project` of the
/// SET expressions for an UPDATE (`Planner::plan_dml`). Returns, in scan
/// order, each kept row's id, its values and the values SET assigns it
/// (an empty row for a DELETE). Every row is read, filtered and assigned
/// before this returns, so the caller's writes come after all of it.
pub(crate) fn execute_dml(
    plan: &PhysicalPlan,
    ctx: &ExecContext,
    batch_size: usize,
) -> Result<Vec<(RowId, Row, Row)>> {
    let (scan, set) = match &plan.op {
        PhysOp::Project { input, exprs } => (&**input, compile_all(exprs, &input.schema)?),
        _ => (plan, Vec::new()),
    };
    let sink = RefCell::new(Vec::new());
    let mut rows = Builder {
        ctx,
        bs: batch_size.max(1),
        workers: 1,
        feed: None,
        next_id: 0,
        sink: Some(&sink),
    }
    .build(scan)?;
    let mut out = Vec::new();
    while let Some(b) = rows.next()? {
        let cols = set
            .iter()
            .map(|e| vexpr::eval(e, &b, ctx.fns))
            .collect::<Result<Vec<_>>>()?;
        let assigned = Batch::from_cols(cols, b.len()).to_rows();
        let found = sink.take().into_iter().zip(b.to_rows());
        out.extend(found.zip(assigned).map(|((rid, row), set)| (rid, row, set)));
    }
    Ok(out)
}

/// A pull-based vectorized operator. `next` returns the next non-empty
/// output batch, or `None` once exhausted.
trait BatchOp {
    fn next(&mut self) -> Result<Option<Batch>>;
}

fn compile_all(exprs: &[Expr], schema: &Schema) -> Result<Vec<VExpr>> {
    exprs.iter().map(|e| vexpr::compile(e, schema)).collect()
}

fn compile_opt(expr: &Option<Expr>, schema: &Schema) -> Result<Option<VExpr>> {
    expr.as_ref().map(|e| vexpr::compile(e, schema)).transpose()
}

/// Builds the operator tree for a plan, wrapping each node with the
/// per-operator instrumentation that feeds `Metrics::operator_stats`.
/// Nodes are numbered preorder (root = 0, children left to right) via
/// `next_id`, matching the line order of `PhysicalPlan::explain`. A
/// morsel worker builds its region's subtree the same way, starting at
/// the region root's id, with `feed` set so the scan reads morsels.
struct Builder<'p> {
    ctx: &'p ExecContext<'p>,
    bs: usize,
    workers: usize,
    feed: Option<&'p MorselFeed<'p>>,
    next_id: usize,
    /// Set for a DML read: where the scan puts the id of each row it keeps.
    sink: Option<&'p RefCell<Vec<RowId>>>,
}

impl<'p> Builder<'p> {
    fn build(&mut self, plan: &'p PhysicalPlan) -> Result<Box<dyn BatchOp + 'p>> {
        let node = self.next_id;
        self.next_id += 1;
        let (ctx, bs) = (self.ctx, self.bs);
        let (name, op): (&'static str, Box<dyn BatchOp + 'p>) = match &plan.op {
            PhysOp::SeqScan {
                table,
                cols,
                filter,
                ..
            } => {
                let t = ctx.catalog.table(table)?;
                let (cursor, vis) = match self.feed {
                    Some(feed) => (None, Cow::Borrowed(&feed.region.vis)),
                    None => {
                        let cursor = t.heap.scan_cursor();
                        (Some(cursor), Cow::Owned(t.visibility(ctx.snapshot())?))
                    }
                };
                (
                    "seq_scan",
                    Box::new(SeqScanOp {
                        cursor,
                        feed: self.feed,
                        vis,
                        width: t.schema.len(),
                        cols,
                        schema: &plan.schema,
                        filter: compile_opt(filter, &plan.schema)?,
                        sink: self.sink,
                        ctx,
                        bs,
                    }),
                )
            }
            PhysOp::IndexScan {
                table,
                column,
                lo,
                hi,
                cols,
                filter,
                ..
            } => {
                let t = ctx.catalog.table(table)?;
                let idx = t.index_on(column).ok_or_else(|| {
                    AimError::Execution(format!("planned index on {table}.{column} missing"))
                })?;
                let mut rids = idx.probe(lo.as_ref(), hi.as_ref(), bs);
                t.retain_visible(&mut rids, ctx.snapshot());
                if self.sink.is_some() {
                    // a write claims its rows in heap order, whichever
                    // way it found them
                    rids.sort_unstable();
                }
                ctx.charge(3.0 + rids.len() as f64 * 0.06);
                (
                    "index_scan",
                    Box::new(IndexScanOp {
                        width: t.schema.len(),
                        table: t,
                        rids,
                        pos: 0,
                        cols,
                        schema: &plan.schema,
                        filter: compile_opt(filter, &plan.schema)?,
                        sink: self.sink,
                        ctx,
                        bs,
                    }),
                )
            }
            PhysOp::Filter { input, predicate } => (
                "filter",
                Box::new(FilterOp {
                    pred: vexpr::compile(predicate, &input.schema)?,
                    input: self.build(input)?,
                    ctx,
                }),
            ),
            PhysOp::Project { input, exprs } => (
                "project",
                Box::new(ProjectOp {
                    exprs: compile_all(exprs, &input.schema)?,
                    input: self.build(input)?,
                    ctx,
                }),
            ),
            PhysOp::NestedLoopJoin { left, right, on } => (
                "nested_loop_join",
                Box::new(NestedLoopJoinOp {
                    on: compile_opt(on, &plan.schema)?,
                    left: Some(self.build(left)?),
                    right: Some(self.build(right)?),
                    ctx,
                    bs,
                    lrows: Batch::empty(0),
                    rrows: Batch::empty(0),
                    li: 0,
                    ri: 0,
                }),
            ),
            PhysOp::HashJoin {
                left,
                right,
                left_key,
                right_key,
                residual,
            } => (
                "hash_join",
                Box::new(HashJoinOp {
                    lkey: vexpr::compile(left_key, &left.schema)?,
                    rkey: vexpr::compile(right_key, &right.schema)?,
                    residual: compile_opt(residual, &plan.schema)?,
                    left: Some(self.build(left)?),
                    right: Some(self.build(right)?),
                    ctx,
                    bs,
                    build: Batch::empty(0),
                    build_key: ColVec::Mixed(Vec::new()),
                    table: KeyTable::default(),
                    build_is_left: true,
                    probe: Vec::new().into_iter(),
                    cur: None,
                    probe_pos: 0,
                }),
            ),
            PhysOp::Aggregate {
                input,
                group_exprs,
                aggs,
            } => {
                let spec = AggSpec {
                    group: compile_all(group_exprs, &input.schema)?,
                    args: aggs
                        .iter()
                        .map(|a| compile_opt(&a.arg, &input.schema))
                        .collect::<Result<_>>()?,
                    aggs,
                };
                let input = match &input.op {
                    // fuse the aggregate into the exchange's morsel
                    // workers when partial-state merging is provably
                    // exact (see module doc)
                    PhysOp::Exchange { input: region }
                        if self.workers > 1 && mergeable(aggs, region) =>
                    {
                        let exchange_node = self.next_id;
                        self.next_id += 1;
                        AggInput::Fused(self.region(region, Some(exchange_node))?)
                    }
                    _ => AggInput::Pipeline(self.build(input)?),
                };
                (
                    "aggregate",
                    MaterializedOp::boxed(bs, move || aggregate(input, &spec, ctx)),
                )
            }
            PhysOp::Sort { input, keys } => {
                let keys: Vec<(VExpr, bool)> = keys
                    .iter()
                    .map(|k| Ok((vexpr::compile(&k.expr, &input.schema)?, k.desc)))
                    .collect::<Result<_>>()?;
                let input = self.build(input)?;
                (
                    "sort",
                    MaterializedOp::boxed(bs, move || sort(input, &keys, ctx)),
                )
            }
            PhysOp::Limit { input, n } => (
                "limit",
                Box::new(LimitOp {
                    input: self.build(input)?,
                    remaining: *n,
                }),
            ),
            PhysOp::Values { rows } => {
                let values = Batch::from_rows(&plan.schema, rows);
                ("values", MaterializedOp::boxed(bs, move || Ok(values)))
            }
            PhysOp::Exchange { input } if self.workers > 1 => (
                "exchange",
                Box::new(ExchangeOp {
                    region: Some(self.region(input, None)?),
                    ctx,
                    out: Vec::new().into_iter(),
                }),
            ),
            // one worker: the parallelism boundary is a no-op
            PhysOp::Exchange { input } => ("exchange", self.build(input)?),
        };
        Ok(Box::new(Instrumented {
            name,
            node,
            ctx,
            inner: op,
        }))
    }

    /// Resolve the exchange region rooted at `plan` on the calling
    /// thread, consuming its preorder node ids; its workers build the
    /// subtree themselves. `exchange_node` is set when an aggregate is
    /// fused into the workers, which then report the exchange's rows.
    fn region(
        &mut self,
        plan: &'p PhysicalPlan,
        exchange_node: Option<usize>,
    ) -> Result<Region<'p>> {
        let root_node = self.next_id;
        self.next_id += plan.node_count();
        let t = self.ctx.catalog.table(region_table(plan)?)?;
        let source = t.heap.morsel_source();
        let vis = t.visibility(self.ctx.snapshot())?;
        let dispenser = source.dispenser(morsel_pages_for(source.page_count(), self.workers));
        Ok(Region {
            plan,
            root_node,
            exchange_node,
            source,
            vis,
            dispenser,
            bs: self.bs,
            workers: self.workers,
        })
    }
}

/// Wraps an operator to account rows / batches / wall-time / cost units
/// / waits into the execution context, keyed by (operator, plan-node
/// id). Timing and cost are inclusive of the operator's subtree.
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

/// Keep the rows of `batch` that `pred` admits (all of them without one),
/// and the same entries of the batch's row ids when the caller has them.
fn select(
    batch: Batch,
    pred: Option<&VExpr>,
    fns: &dyn ScalarFns,
    rids: Option<&mut Vec<RowId>>,
) -> Result<Batch> {
    let Some(pred) = pred else {
        return Ok(batch);
    };
    let sel = vexpr::eval_filter(pred, &batch, fns)?;
    if sel.len() == batch.len() {
        return Ok(batch);
    }
    if let Some(rids) = rids {
        *rids = sel.iter().map(|&i| rids[i as usize]).collect();
    }
    Ok(batch.gather(&sel))
}

/// One empty typed column builder per column of `schema`, each with
/// room for `cap` rows.
fn lanes(schema: &Schema, cap: usize) -> Vec<ColVec> {
    schema
        .columns()
        .iter()
        .map(|c| ColVec::with_capacity(c.data_type, cap))
        .collect()
}

struct SeqScanOp<'p> {
    /// The page range being read: the whole heap on the serial path, the
    /// current morsel inside an exchange region.
    cursor: Option<HeapScanCursor>,
    /// Inside an exchange region: where the next morsel comes from.
    feed: Option<&'p MorselFeed<'p>>,
    vis: Cow<'p, RowVis>,
    /// The table's column count, and the columns the plan reads of it.
    width: usize,
    cols: &'p [usize],
    /// `cols`' qualified names and types: the scan's output schema.
    schema: &'p Schema,
    filter: Option<VExpr>,
    /// Where the ids of the rows kept go, as in [`Builder`].
    sink: Option<&'p RefCell<Vec<RowId>>>,
    ctx: &'p ExecContext<'p>,
    bs: usize,
}

impl BatchOp for SeqScanOp<'_> {
    fn next(&mut self) -> Result<Option<Batch>> {
        loop {
            let Some(cursor) = &mut self.cursor else {
                // the serial scan reads one range; a region's moves on
                // to the next unclaimed morsel
                let Some(feed) = self.feed else {
                    return Ok(None);
                };
                let Some(m) = feed.region.dispenser.claim() else {
                    return Ok(None);
                };
                feed.morsel.set(m.index);
                self.cursor = Some(feed.region.source.cursor(m.start, m.end));
                continue;
            };
            // decode pages straight into typed column builders — the
            // row-at-a-time decode + columnarize double pass is the
            // single biggest cost the batch pipeline can avoid — and
            // only the columns the plan reads
            let mut cols = lanes(self.schema, self.bs);
            let mut rids = self.sink.map(|_| Vec::new());
            let vis = &*self.vis;
            let (n, more) = cursor.fill_batch_vis(
                self.bs,
                self.width,
                self.cols,
                &mut cols,
                Some(&|rid| vis.allows(rid)),
                rids.as_mut(),
            )?;
            if !more {
                self.cursor = None;
            }
            if n == 0 {
                continue;
            }
            let nf = n as f64;
            self.ctx.charge(nf * 0.01 + (nf / 64.0).ceil());
            let batch = select(
                Batch::from_cols(cols, n),
                self.filter.as_ref(),
                self.ctx.fns,
                rids.as_mut(),
            )?;
            if !batch.is_empty() {
                if let (Some(sink), Some(rids)) = (self.sink, rids) {
                    sink.borrow_mut().extend(rids);
                }
                return Ok(Some(batch));
            }
        }
    }
}

struct IndexScanOp<'p> {
    table: Arc<Table>,
    rids: Vec<RowId>,
    pos: usize,
    /// As in [`SeqScanOp`].
    width: usize,
    cols: &'p [usize],
    schema: &'p Schema,
    filter: Option<VExpr>,
    /// As in [`SeqScanOp`].
    sink: Option<&'p RefCell<Vec<RowId>>>,
    ctx: &'p ExecContext<'p>,
    bs: usize,
}

impl BatchOp for IndexScanOp<'_> {
    fn next(&mut self) -> Result<Option<Batch>> {
        while self.pos < self.rids.len() {
            let end = (self.pos + self.bs).min(self.rids.len());
            // a point lookup fetches a handful of rids: size the lanes
            // to the chunk, not to the batch width
            let mut cols = lanes(self.schema, end - self.pos);
            let mut kept = Vec::new();
            for &rid in &self.rids[self.pos..end] {
                if self
                    .table
                    .heap
                    .get_into(rid, self.width, self.cols, &mut cols)?
                {
                    kept.push(rid);
                }
            }
            self.pos = end;
            if kept.is_empty() {
                continue;
            }
            let n = kept.len();
            let batch = select(
                Batch::from_cols(cols, n),
                self.filter.as_ref(),
                self.ctx.fns,
                self.sink.and(Some(&mut kept)),
            )?;
            if !batch.is_empty() {
                if let Some(sink) = self.sink {
                    sink.borrow_mut().extend(kept);
                }
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
            let b = select(b, Some(&self.pred), self.ctx.fns, None)?;
            if !b.is_empty() {
                return Ok(Some(b));
            }
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
    ctx: &'p ExecContext<'p>,
    bs: usize,
    lrows: Batch,
    rrows: Batch,
    li: u32,
    ri: u32,
}

impl BatchOp for NestedLoopJoinOp<'_> {
    fn next(&mut self) -> Result<Option<Batch>> {
        if let (Some(mut l), Some(mut r)) = (self.left.take(), self.right.take()) {
            self.lrows = drain_concat(&mut l)?;
            self.rrows = drain_concat(&mut r)?;
            self.ctx
                .charge(self.lrows.len() as f64 * self.rrows.len() as f64 * 0.01);
        }
        let (nl, nr) = (self.lrows.len() as u32, self.rrows.len() as u32);
        let mut lidx = Vec::with_capacity(self.bs);
        let mut ridx = Vec::with_capacity(self.bs);
        while nr > 0 && self.li < nl {
            // left-major (li, ri) pairs, one chunk at a time
            lidx.clear();
            ridx.clear();
            while lidx.len() < self.bs && self.li < nl {
                lidx.push(self.li);
                ridx.push(self.ri);
                self.ri += 1;
                if self.ri == nr {
                    self.ri = 0;
                    self.li += 1;
                }
            }
            let batch = join_gather(&self.lrows, &lidx, &self.rrows, &ridx);
            let batch = select(batch, self.on.as_ref(), self.ctx.fns, None)?;
            if !batch.is_empty() {
                return Ok(Some(batch));
            }
        }
        Ok(None)
    }
}

struct HashJoinOp<'p> {
    left: Option<Box<dyn BatchOp + 'p>>,
    right: Option<Box<dyn BatchOp + 'p>>,
    lkey: VExpr,
    rkey: VExpr,
    residual: Option<VExpr>,
    ctx: &'p ExecContext<'p>,
    bs: usize,
    /// The smaller input, its batches appended into one, and its keys.
    build: Batch,
    build_key: ColVec,
    table: KeyTable,
    build_is_left: bool,
    /// Probe batches with their keys, in input order.
    probe: std::vec::IntoIter<(Batch, ColVec)>,
    /// The probe batch being joined, its keys and key hashes, and the
    /// next row to probe.
    cur: Option<(Batch, ColVec, Vec<Option<u64>>)>,
    probe_pos: usize,
}

impl HashJoinOp<'_> {
    fn open(&mut self) -> Result<()> {
        let (Some(mut l), Some(mut r)) = (self.left.take(), self.right.take()) else {
            return Ok(());
        };
        // drain both inputs batch-wise, computing join keys with the
        // vectorized kernels as batches arrive
        let drain_input = |op: &mut Box<dyn BatchOp + '_>, key: &VExpr| -> Result<_> {
            let mut parts = Vec::new();
            let mut n = 0;
            while let Some(b) = op.next()? {
                let k = vexpr::eval(key, &b, self.ctx.fns)?;
                n += b.len();
                parts.push((b, k));
            }
            Ok((parts, n))
        };
        let (lparts, ln) = drain_input(&mut l, &self.lkey)?;
        let (rparts, rn) = drain_input(&mut r, &self.rkey)?;
        self.ctx.charge((ln + rn) as f64 * 0.015);
        // build on the smaller side, like the row oracle, so output
        // order (probe order × build-insertion order) matches exactly
        let (build_parts, probe_parts, build_is_left) = if ln <= rn {
            (lparts, rparts, true)
        } else {
            (rparts, lparts, false)
        };
        let mut build = Batch::empty(0);
        let mut build_key = ColVec::Mixed(Vec::new());
        for (b, k) in build_parts {
            build.append(b);
            build_key.append(k);
        }
        self.table = KeyTable::build(&key_hashes(&build_key))?;
        self.build = build;
        self.build_key = build_key;
        self.build_is_left = build_is_left;
        self.probe = probe_parts.into_iter();
        Ok(())
    }
}

impl BatchOp for HashJoinOp<'_> {
    fn next(&mut self) -> Result<Option<Batch>> {
        self.open()?;
        let mut pidx = Vec::with_capacity(self.bs);
        let mut bidx = Vec::with_capacity(self.bs);
        loop {
            if self
                .cur
                .as_ref()
                .is_none_or(|(b, ..)| self.probe_pos >= b.len())
            {
                let Some((b, k)) = self.probe.next() else {
                    return Ok(None);
                };
                let h = key_hashes(&k);
                self.cur = Some((b, k, h));
                self.probe_pos = 0;
            }
            let Some((probe, pkey, hashes)) = &self.cur else {
                return Ok(None);
            };
            // whole chains per probe row until the chunk holds `bs` pairs
            pidx.clear();
            bidx.clear();
            while pidx.len() < self.bs && self.probe_pos < probe.len() {
                let p = self.probe_pos;
                self.probe_pos += 1;
                let Some(h) = hashes[p] else {
                    continue; // NULL never joins
                };
                for bi in self.table.chain(h) {
                    if keys_eq(&self.build_key, bi as usize, pkey, p) {
                        pidx.push(p as u32);
                        bidx.push(bi);
                    }
                }
            }
            if pidx.is_empty() {
                continue;
            }
            let batch = if self.build_is_left {
                join_gather(&self.build, &bidx, probe, &pidx)
            } else {
                join_gather(probe, &pidx, &self.build, &bidx)
            };
            let batch = select(batch, self.residual.as_ref(), self.ctx.fns, None)?;
            if !batch.is_empty() {
                self.ctx.charge(batch.len() as f64 * 0.01);
                return Ok(Some(batch));
            }
        }
    }
}

/// The chained key table behind the hash join and the aggregate:
/// `first[bucket]` heads a chain of row indices (build rows, or groups)
/// linked through `next` (one slot per row), [`CHAIN_END`]-terminated.
#[derive(Default)]
struct KeyTable {
    first: Vec<u32>,
    next: Vec<u32>,
    mask: u64,
}

const CHAIN_END: u32 = u32::MAX;

impl KeyTable {
    /// An empty table with room for `n` rows.
    fn with_rows(n: usize) -> Result<KeyTable> {
        let n = u32::try_from(n)
            .ok()
            .filter(|&n| n < CHAIN_END)
            .ok_or_else(|| AimError::Execution("hash table too large".into()))?;
        let buckets = (2 * n as usize).next_power_of_two();
        Ok(KeyTable {
            first: vec![CHAIN_END; buckets],
            next: vec![CHAIN_END; n as usize],
            mask: buckets as u64 - 1,
        })
    }

    /// The join's build table; NULL keys are never inserted. Rows go in
    /// in reverse, so each chain walks in build-insertion order.
    fn build(hashes: &[Option<u64>]) -> Result<KeyTable> {
        let mut t = KeyTable::with_rows(hashes.len())?;
        for (i, h) in hashes.iter().enumerate().rev() {
            if let Some(h) = *h {
                t.link(i, h);
            }
        }
        Ok(t)
    }

    /// Put row `i` at the head of hash `h`'s chain.
    fn link(&mut self, i: usize, h: u64) {
        let head = &mut self.first[(h & self.mask) as usize];
        self.next[i] = *head;
        *head = i as u32;
    }

    /// Rows in `h`'s bucket, in chain order; callers compare keys, since
    /// a bucket holds every hash that lands in it.
    fn chain(&self, h: u64) -> impl Iterator<Item = u32> + '_ {
        let head = self.first.get((h & self.mask) as usize).copied();
        std::iter::successors(head.filter(|&i| i != CHAIN_END), |&i| {
            Some(self.next[i as usize]).filter(|&j| j != CHAIN_END)
        })
    }
}

/// Every row's join-key hash (`None` for NULL), consistent with
/// `Value`'s `Eq`: an Int hashes as its `f64` bits, like `Value::hash`,
/// so `Int(2)` meets `Float(2.0)`. The bits are mixed before a table
/// masks them: the low bits of a small integer's `f64` pattern are all
/// zero.
fn key_hashes(col: &ColVec) -> Vec<Option<u64>> {
    fn lanes<T>(lane: &Lane<T>, h: impl Fn(&T) -> u64) -> Vec<Option<u64>> {
        lane.iter().map(|v| v.map(&h)).collect()
    }
    match col {
        ColVec::Int(l) => lanes(l, |&v| mix((v as f64).to_bits())),
        ColVec::Float(l) => lanes(l, |v| mix(v.to_bits())),
        ColVec::Bool(l) => lanes(l, |&b| mix(u64::from(b))),
        ColVec::Text(l) => lanes(l, |s| hash_text(s)),
        ColVec::Mixed(vals) => vals
            .iter()
            .map(|v| match v {
                Value::Null => None,
                Value::Int(x) => Some(mix((*x as f64).to_bits())),
                Value::Float(x) => Some(mix(x.to_bits())),
                Value::Bool(b) => Some(mix(u64::from(*b))),
                Value::Text(s) => Some(hash_text(s)),
            })
            .collect(),
    }
}

/// FNV-1a over the bytes, then mixed.
fn hash_text(s: &str) -> u64 {
    let h = s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    mix(h)
}

/// MurmurHash3's 64-bit finalizer: every input bit reaches every
/// output bit.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// Do two non-NULL join keys match under `Value`'s `Eq`? Two Int lanes
/// compare exactly as `i64` (2^53 and 2^53 + 1 share a hash, not a
/// value); text compares in place; any other pair as `Value`s.
fn keys_eq(a: &ColVec, i: usize, b: &ColVec, j: usize) -> bool {
    match (a, b) {
        (ColVec::Int(x), ColVec::Int(y)) => x.values()[i] == y.values()[j],
        (ColVec::Text(x), ColVec::Text(y)) => x.values()[i] == y.values()[j],
        _ => a.value(i) == b.value(j),
    }
}

/// The joined rows `(left[li[k]], right[ri[k]])`: two gathers, columns
/// left then right.
fn join_gather(left: &Batch, li: &[u32], right: &Batch, ri: &[u32]) -> Batch {
    let cols = left
        .cols()
        .iter()
        .map(|c| c.gather(li))
        .chain(right.cols().iter().map(|c| c.gather(ri)))
        .collect();
    Batch::from_cols(cols, li.len())
}

/// One aggregate's running state. COUNT(*) counts rows and every other
/// argument skips NULLs; MIN/MAX replace only a strictly smaller or
/// larger value, so the first value seen wins a tie.
#[derive(Debug, Clone)]
enum AggState {
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
    fn new(f: AggFunc) -> AggState {
        match f {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum(0, 0.0),
            AggFunc::Avg => AggState::Avg(0, 0.0, 0),
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    fn update(&mut self, v: Option<&Value>) -> Result<()> {
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
    fn merge(&mut self, other: AggState) -> Result<()> {
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

    fn finish(self) -> Value {
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

/// Compiled GROUP BY keys and aggregate arguments.
struct AggSpec<'p> {
    group: Vec<VExpr>,
    args: Vec<Option<VExpr>>,
    aggs: &'p [AggExpr],
}

/// Aggregate states per group, in first-seen group order: the one fold
/// behind the serial aggregate, the per-morsel partial states of a fused
/// one, and their morsel-order merge. Groups are rows of a [`KeyTable`]:
/// `keys` holds one column per GROUP BY expression, one lane per group.
/// Without GROUP BY every row maps to group 0, present from the start —
/// a global aggregate yields exactly one row, even over zero rows.
struct AggFold {
    keys: Vec<ColVec>,
    /// Each group's key hash, kept to rebuild the table when it fills.
    hashes: Vec<u64>,
    table: KeyTable,
    /// `states[agg][group]`.
    states: Vec<Vec<AggState>>,
}

impl AggFold {
    fn new(spec: &AggSpec<'_>) -> Result<Self> {
        let mut fold = AggFold {
            keys: vec![ColVec::Mixed(Vec::new()); spec.group.len()],
            hashes: Vec::new(),
            table: KeyTable::default(),
            states: vec![Vec::new(); spec.aggs.len()],
        };
        if spec.group.is_empty() {
            fold.group_ids(spec, &[], 1)?;
        }
        Ok(fold)
    }

    /// Each of `n` rows' group id under the key columns `cols`, adding
    /// a group (with fresh states) for every key not seen before.
    fn group_ids(&mut self, spec: &AggSpec<'_>, cols: &[ColVec], n: usize) -> Result<Vec<u32>> {
        let mut ids = Vec::with_capacity(n);
        for (r, h) in group_hashes(cols, n).into_iter().enumerate() {
            let hit = self.table.chain(h).find(|&g| {
                self.hashes[g as usize] == h && group_eq(&self.keys, g as usize, cols, r)
            });
            let g = match hit {
                Some(g) => g,
                None => self.push_group(h, cols, r)?,
            };
            ids.push(g);
        }
        for (st, a) in self.states.iter_mut().zip(spec.aggs) {
            st.resize_with(self.hashes.len(), || AggState::new(a.func));
        }
        Ok(ids)
    }

    /// Append lane `r` of `cols` as a new group; a full table is rebuilt
    /// at twice the size from the stored hashes.
    fn push_group(&mut self, h: u64, cols: &[ColVec], r: usize) -> Result<u32> {
        let g = self.hashes.len();
        if g == self.table.next.len() {
            self.table = KeyTable::with_rows((2 * g).max(16))?;
            for (i, &h) in self.hashes.iter().enumerate() {
                self.table.link(i, h);
            }
        }
        self.table.link(g, h);
        self.hashes.push(h);
        for (k, c) in self.keys.iter_mut().zip(cols) {
            k.append(c.gather(&[r as u32]));
        }
        Ok(g as u32)
    }

    /// Fold one input batch: one group id per row, then one state
    /// update per argument column.
    fn add(&mut self, spec: &AggSpec<'_>, b: &Batch, ctx: &ExecContext<'_>) -> Result<()> {
        ctx.charge(b.len() as f64 * 0.02);
        let key_cols = spec
            .group
            .iter()
            .map(|g| vexpr::eval(g, b, ctx.fns))
            .collect::<Result<Vec<_>>>()?;
        let ids = self.group_ids(spec, &key_cols, b.len())?;
        for (states, arg) in self.states.iter_mut().zip(&spec.args) {
            let col = arg
                .as_ref()
                .map(|e| vexpr::eval(e, b, ctx.fns))
                .transpose()?;
            update_states(states, &ids, col.as_ref())?;
        }
        Ok(())
    }

    /// Merge a fold over a *later* run of rows into this one: its keys
    /// go through the same find-or-insert as `add`, so new groups append
    /// and group order stays first-seen order.
    fn merge(&mut self, spec: &AggSpec<'_>, later: AggFold) -> Result<()> {
        let ids = self.group_ids(spec, &later.keys, later.hashes.len())?;
        for (states, partial) in self.states.iter_mut().zip(later.states) {
            for (&g, s) in ids.iter().zip(partial) {
                states[g as usize].merge(s)?;
            }
        }
        Ok(())
    }

    /// The groups as one batch: the key columns as they are, then one
    /// column per aggregate.
    fn finish(self) -> Batch {
        let n = self.hashes.len();
        let mut cols = self.keys;
        cols.extend(
            self.states
                .into_iter()
                .map(|st| ColVec::from_values(st.into_iter().map(AggState::finish).collect())),
        );
        Batch::from_cols(cols, n)
    }
}

/// A NULL key column's contribution to a group hash.
const NULL_HASH: u64 = 0x9e37_79b9_7f4a_7c15;

/// Each of `n` rows' group hash: the columns' [`key_hashes`] combined
/// in order, [`NULL_HASH`] for a NULL lane. Zero columns hash to 0.
fn group_hashes(cols: &[ColVec], n: usize) -> Vec<u64> {
    let mut hs = vec![0u64; n];
    for c in cols {
        for (h, k) in hs.iter_mut().zip(key_hashes(c)) {
            *h = h.wrapping_mul(0x0100_0000_01b3) ^ k.unwrap_or(NULL_HASH);
        }
    }
    hs
}

/// Do group `g` of `keys` and row `r` of `cols` have the same key? NULL
/// equals NULL here, as under `Value`'s `Eq`; NULLs are checked before
/// [`keys_eq`], which reads lane values without them (a NULL Int row
/// holds 0).
fn group_eq(keys: &[ColVec], g: usize, cols: &[ColVec], r: usize) -> bool {
    keys.iter()
        .zip(cols)
        .all(|(k, c)| match (k.is_null(g), c.is_null(r)) {
            (false, false) => keys_eq(k, g, c, r),
            (kn, cn) => kn == cn,
        })
}

/// Fold argument column `col` (`None` for `COUNT(*)`) into `states`,
/// lane `i` into group `ids[i]`'s state. The column type is matched once
/// per batch; every lane goes through [`AggState::update`], so NULL and
/// type-error behavior is the same for every column type, and typed
/// Int/Float lanes reach it as a `Value` that owns nothing. Lanes fold
/// in order, so each group's float sum adds in row order, bit-identical
/// to a row-at-a-time fold.
fn update_states(states: &mut [AggState], ids: &[u32], col: Option<&ColVec>) -> Result<()> {
    let mut groups = ids.iter().map(|&g| g as usize);
    match col {
        None => groups.try_for_each(|g| states[g].update(None)),
        Some(ColVec::Int(l)) => l
            .iter()
            .zip(groups)
            .try_for_each(|(v, g)| v.map_or(Ok(()), |&x| states[g].update(Some(&Value::Int(x))))),
        Some(ColVec::Float(l)) => l
            .iter()
            .zip(groups)
            .try_for_each(|(v, g)| v.map_or(Ok(()), |&x| states[g].update(Some(&Value::Float(x))))),
        Some(c) => groups
            .enumerate()
            .try_for_each(|(i, g)| states[g].update(Some(&c.value(i)))),
    }
}

/// Where an aggregate's input comes from.
enum AggInput<'p> {
    /// The child operator, folded on this thread.
    Pipeline(Box<dyn BatchOp + 'p>),
    /// An exchange region whose morsel workers fold partial states; every
    /// merge is exact (checked by [`mergeable`] at build time) and runs
    /// in morsel order, so group order is the serial first-seen order.
    Fused(Region<'p>),
}

/// Fold the whole input into one batch of groups.
fn aggregate(input: AggInput<'_>, spec: &AggSpec<'_>, ctx: &ExecContext<'_>) -> Result<Batch> {
    let mut fold = AggFold::new(spec)?;
    match input {
        AggInput::Pipeline(mut input) => {
            while let Some(b) = input.next()? {
                fold.add(spec, &b, ctx)?;
            }
        }
        AggInput::Fused(region) => {
            let new = || AggFold::new(spec);
            let add = |f: &mut AggFold, b: Batch, ctx: &ExecContext<'_>| f.add(spec, &b, ctx);
            for part in run_region(&region, ctx, new, add)? {
                fold.merge(spec, part)?;
            }
        }
    }
    Ok(fold.finish())
}

/// Drain the input into one batch and reorder it by `keys` (each with
/// its DESC flag): a stable sort with the row oracle's comparator,
/// evaluated once over the drained batch, then one gather.
fn sort(
    mut input: Box<dyn BatchOp + '_>,
    keys: &[(VExpr, bool)],
    ctx: &ExecContext<'_>,
) -> Result<Batch> {
    let all = drain_concat(&mut input)?;
    let n = all.len();
    ctx.charge(n as f64 * (n as f64).max(2.0).log2() * 0.005);
    // an empty drain has no columns to evaluate the keys on
    if n == 0 {
        return Ok(all);
    }
    let key_vals = keys
        .iter()
        .map(|(e, desc)| {
            let col = vexpr::eval(e, &all, ctx.fns)?;
            Ok(((0..n).map(|i| col.value(i)).collect::<Vec<_>>(), *desc))
        })
        .collect::<Result<Vec<_>>>()?;
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.sort_by(|&a, &b| {
        key_vals
            .iter()
            .map(|(vals, desc)| {
                let ord = vals[a as usize].cmp(&vals[b as usize]);
                if *desc {
                    ord.reverse()
                } else {
                    ord
                }
            })
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Ok(all.gather(&perm))
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

/// A pipeline breaker's output: built whole on the first pull, then
/// handed out `bs` rows at a time — moved out as it is when it fits in
/// one batch, gathered slice by slice otherwise.
struct MaterializedOp<'p> {
    build: Option<Box<dyn FnOnce() -> Result<Batch> + 'p>>,
    out: Batch,
    pos: usize,
    bs: usize,
}

impl<'p> MaterializedOp<'p> {
    fn boxed(bs: usize, build: impl FnOnce() -> Result<Batch> + 'p) -> Box<dyn BatchOp + 'p> {
        Box::new(MaterializedOp {
            build: Some(Box::new(build)),
            out: Batch::empty(0),
            pos: 0,
            bs,
        })
    }
}

impl BatchOp for MaterializedOp<'_> {
    fn next(&mut self) -> Result<Option<Batch>> {
        if let Some(build) = self.build.take() {
            self.out = build()?;
        }
        let n = self.out.len();
        if self.pos >= n {
            return Ok(None);
        }
        if self.pos == 0 && n <= self.bs {
            self.pos = n;
            return Ok(Some(std::mem::replace(&mut self.out, Batch::empty(0))));
        }
        let end = (self.pos + self.bs).min(n);
        let sel: Vec<u32> = (self.pos as u32..end as u32).collect();
        self.pos = end;
        Ok(Some(self.out.gather(&sel)))
    }
}

/// Drain an operator into one batch, its batches appended in order.
fn drain_concat(op: &mut Box<dyn BatchOp + '_>) -> Result<Batch> {
    let mut all = Batch::empty(0);
    while let Some(b) = op.next()? {
        all.append(b);
    }
    Ok(all)
}

// ---------------------------------------------------------------------------
// Morsel-driven parallel regions
// ---------------------------------------------------------------------------

/// An exchange region, resolved once on the calling thread and shared by
/// its morsel workers: the subtree they build, the scan's page list and
/// row visibility (whose watermark keeps rows inserted after this point
/// out), and the dispenser they claim morsels from.
struct Region<'p> {
    plan: &'p PhysicalPlan,
    /// Preorder id of the region's root node.
    root_node: usize,
    /// The exchange node's id when an aggregate is fused into the workers.
    exchange_node: Option<usize>,
    source: MorselSource,
    vis: RowVis,
    dispenser: MorselDispenser,
    bs: usize,
    workers: usize,
}

/// One worker's view of its region: the scan claims morsels through it
/// and records which one it is on, so the worker can tag what it pulls.
struct MorselFeed<'r> {
    region: &'r Region<'r>,
    morsel: Cell<usize>,
}

/// The table an exchange region scans: its plan is filters and
/// projections over one `SeqScan`.
fn region_table(plan: &PhysicalPlan) -> Result<&str> {
    match &plan.op {
        PhysOp::SeqScan { table, .. } => Ok(table),
        PhysOp::Filter { input, .. } | PhysOp::Project { input, .. } => region_table(input),
        _ => Err(AimError::Execution(
            "Exchange region contains a non-parallelizable operator".into(),
        )),
    }
}

/// Is partial aggregation *exact* for these aggregates over this region?
/// COUNT/MIN/MAX states merge exactly for any input. SUM/AVG keep Int
/// addends in an exact `i128` total but others in an `f64` one, where
/// addition does not reassociate losslessly — so the argument must be
/// a bare base-table Int column, traced through the region's
/// projections.
fn mergeable(aggs: &[AggExpr], region: &PhysicalPlan) -> bool {
    aggs.iter().all(|a| match a.func {
        AggFunc::Count | AggFunc::Min | AggFunc::Max => true,
        AggFunc::Sum | AggFunc::Avg => a
            .arg
            .as_ref()
            .is_some_and(|e| traces_to_int_column(region, e)),
    })
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

/// Pages per morsel: aim for ~8 morsels per worker so the dispenser can
/// load-balance, clamped to [1, 16]. Purely a scheduling choice —
/// results are merged in morsel order, so any size yields identical
/// output.
fn morsel_pages_for(page_count: usize, workers: usize) -> usize {
    (page_count / (workers * 8).max(1)).clamp(1, 16)
}

/// What one worker hands back to the calling thread.
struct WorkerOut<'p, T> {
    /// (morsel index, accumulator) in the order the worker pulled them.
    pieces: Vec<(usize, T)>,
    ctx: ExecContext<'p>,
    span: WorkerSpan,
    /// Waits incurred on the worker thread (already in the global
    /// totals; adopted into the coordinating thread's statement set).
    waits: WaitSet,
}

/// Run an exchange region on its morsel workers: `min(workers, morsels)`
/// of them, at least one. The calling thread is worker 1, and the rest
/// run on scoped threads, so a one-morsel region starts no thread. Each
/// worker builds the region's operator tree once and pulls it dry,
/// folding what it pulls into one `T` per morsel with `add`. Returns the
/// accumulators in morsel order — the serial scan's row order. Worker
/// contexts, spans and waits are merged into `ctx` here, on the calling
/// thread, in worker order, so the merge itself is deterministic too.
fn run_region<'p, T: Send>(
    region: &Region<'p>,
    ctx: &ExecContext<'p>,
    new: impl Fn() -> Result<T> + Sync,
    add: impl Fn(&mut T, Batch, &ExecContext<'_>) -> Result<()> + Sync,
) -> Result<Vec<T>> {
    let workers = region.workers.min(region.dispenser.morsel_count()).max(1);
    let panicked = || AimError::Execution("morsel worker panicked".into());
    let outs: Vec<Result<WorkerOut<'p, T>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (2..=workers)
            .map(|worker| {
                let wctx = ctx.fork();
                let (new, add) = (&new, &add);
                s.spawn(move || run_worker(region, wctx, worker, new, add))
            })
            .collect();
        // worker 1 drains this thread's waits at its end, the statement's
        // earlier ones with its own; adopting its `waits` below puts them
        // all back, so the statement's totals are as with a spawned worker
        let first = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_worker(region, ctx.fork(), 1, &new, &add)
        }))
        .unwrap_or_else(|_| Err(panicked()));
        // join every handle, so a worker panic is an error, not a panic
        std::iter::once(first)
            .chain(
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|_| Err(panicked()))),
            )
            .collect()
    });
    let mut pieces = Vec::new();
    for out in outs {
        let out = out?;
        ctx.absorb(out.ctx, out.span.worker);
        ctx.note_worker_span(out.span);
        wait::adopt(&out.waits);
        pieces.extend(out.pieces);
    }
    // a morsel belongs to one worker, which pulls its batches in order
    pieces.sort_by_key(|&(m, _)| m);
    Ok(pieces.into_iter().map(|(_, t)| t).collect())
}

/// One morsel worker: build the region's subtree on a context of its
/// own, then pull it until the dispenser runs dry.
fn run_worker<'p, T>(
    region: &Region<'p>,
    ctx: ExecContext<'p>,
    worker: usize,
    new: &impl Fn() -> Result<T>,
    add: &impl Fn(&mut T, Batch, &ExecContext<'_>) -> Result<()>,
) -> Result<WorkerOut<'p, T>> {
    let start_ns = ctx.clock_ns();
    let mut busy_ns = 0u64;
    let mut pieces: Vec<(usize, T)> = Vec::new();
    {
        let feed = MorselFeed {
            region,
            morsel: Cell::new(0),
        };
        let mut root = Builder {
            ctx: &ctx,
            bs: region.bs,
            workers: 1,
            feed: Some(&feed),
            next_id: region.root_node,
            sink: None,
        }
        .build(region.plan)?;
        if let Some(node) = region.exchange_node {
            root = Box::new(Instrumented {
                name: "exchange",
                node,
                ctx: &ctx,
                inner: root,
            });
        }
        loop {
            let t0 = ctx.clock_ns();
            let Some(batch) = root.next()? else {
                busy_ns += ctx.clock_ns().saturating_sub(t0);
                break;
            };
            // a filter may pull past morsels that filter to empty, so
            // the batch is the morsel's the scan is on *after* the pull
            let m = feed.morsel.get();
            match pieces.last_mut() {
                Some((last, acc)) if *last == m => add(acc, batch, &ctx)?,
                _ => {
                    let mut acc = new()?;
                    add(&mut acc, batch, &ctx)?;
                    pieces.push((m, acc));
                }
            }
            busy_ns += ctx.clock_ns().saturating_sub(t0);
        }
    }
    let end_ns = ctx.clock_ns();
    Ok(WorkerOut {
        pieces,
        ctx,
        span: WorkerSpan {
            worker,
            start_ns,
            end_ns,
            busy_ns,
        },
        // a spawned worker's thread dies here, so its thread-local wait
        // accumulator must be drained now (worker 1: see `run_region`)
        waits: wait::take_thread(),
    })
}

/// The parallelism boundary: runs its region on the morsel worker pool
/// and streams the merged (morsel-ordered) batches out.
struct ExchangeOp<'p> {
    region: Option<Region<'p>>,
    ctx: &'p ExecContext<'p>,
    out: std::vec::IntoIter<Batch>,
}

impl BatchOp for ExchangeOp<'_> {
    fn next(&mut self) -> Result<Option<Batch>> {
        if let Some(region) = self.region.take() {
            let add = |out: &mut Vec<Batch>, b: Batch, _: &ExecContext<'_>| {
                out.push(b);
                Ok(())
            };
            let morsels = run_region(&region, self.ctx, || Ok(Vec::new()), add)?;
            self.out = morsels
                .into_iter()
                .flatten()
                .collect::<Vec<_>>()
                .into_iter();
        }
        Ok(self.out.next())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A NULL Int row holds 0, so only `is_null` tells it from 0.
    #[test]
    fn null_int_group_key_is_not_zero() {
        let col = |null| {
            let mut c = ColVec::with_capacity(DataType::Int, 1);
            if null {
                c.push_null();
            } else {
                c.push_int(0);
            }
            c
        };
        assert!(!group_eq(&[col(true)], 0, &[col(false)], 0));
        assert!(!group_eq(&[col(false)], 0, &[col(true)], 0));
        assert!(group_eq(&[col(true)], 0, &[col(true)], 0));
        assert!(group_eq(&[col(false)], 0, &[col(false)], 0));
    }
}
