//! The cost-based optimizer: lowering, predicate pushdown, access-path
//! selection, dynamic-programming join ordering, and aggregate planning.
//!
//! This is the *traditional empirical* optimizer of the reproduction — the
//! baseline every learned component competes with. Two seams exist for the
//! AI4DB crate:
//!
//! - [`CardEstimator`] abstracts cardinality estimation; the default
//!   [`HistogramEstimator`] multiplies per-predicate selectivities under an
//!   independence assumption (exactly the weakness the tutorial says
//!   learned estimators fix);
//! - hypothetical indexes make [`Planner`] usable as a *what-if* costing
//!   service for index advisors (E2) without touching physical storage.

use std::collections::{HashMap, HashSet};

use aimdb_common::{AimError, Result, Row, Schema, Value};
use aimdb_sql::ast::{AggFunc, OrderKey, Select, SelectItem};
use aimdb_sql::expr::BinaryOp;
use aimdb_sql::Expr;

use crate::catalog::Catalog;
use crate::db::ModelHook;
use crate::plan::{
    bind_expr, bind_models, call_cost, default_output_name, qualify_schema, resolve_col, AggExpr,
    PhysOp, PhysicalPlan,
};
use crate::stats::TableStats;

/// Cost-model constants (cost units ≈ sequential page reads).
#[derive(Debug, Clone, Copy)]
pub struct CostParams {
    pub seq_page_cost: f64,
    pub random_page_cost: f64,
    pub cpu_tuple_cost: f64,
    pub rows_per_page: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            seq_page_cost: 1.0,
            random_page_cost: 4.0,
            cpu_tuple_cost: 0.01,
            rows_per_page: 64.0,
        }
    }
}

/// A conjunct on a single table, reduced to the shape estimators reason
/// about. Column names are bare (unqualified).
#[derive(Debug, Clone, PartialEq)]
pub enum SimplePred {
    Eq {
        column: String,
        value: Value,
    },
    Range {
        column: String,
        lo: Option<f64>,
        hi: Option<f64>,
    },
    /// Anything else (LIKE, IN, OR trees, expressions...).
    Other,
}

/// How one table's rows are reached.
#[derive(Debug, Clone)]
pub enum AccessPath {
    /// Read every page.
    SeqScan,
    /// Probe the index on `column` for keys in the inclusive interval
    /// `[lo, hi]`; an absent end is unbounded, equal ends are a point
    /// lookup.
    IndexScan {
        column: String,
        lo: Option<Value>,
        hi: Option<Value>,
    },
}

/// [`Planner::access_path`]'s answer: the path with the planner's
/// estimates of the rows that survive the conjuncts and of the cost.
#[derive(Debug, Clone)]
pub struct TableAccess {
    pub path: AccessPath,
    pub est_rows: f64,
    pub est_cost: f64,
}

/// Cardinality estimation seam. Implementations must be pure functions of
/// their inputs so plans are reproducible.
pub trait CardEstimator: Send + Sync {
    /// Combined selectivity of the conjuncts applied to one table's scan.
    fn scan_selectivity(
        &self,
        table: &str,
        preds: &[SimplePred],
        stats: Option<&TableStats>,
    ) -> f64;

    /// Selectivity of an equi-join edge `l.lc = r.rc`.
    fn join_selectivity(
        &self,
        left: (&str, &str),
        right: (&str, &str),
        stats: &HashMap<String, TableStats>,
    ) -> f64;
}

/// The classical estimator: histogram/distinct-count selectivities
/// multiplied under attribute-independence.
#[derive(Debug, Default, Clone, Copy)]
pub struct HistogramEstimator;

impl CardEstimator for HistogramEstimator {
    fn scan_selectivity(
        &self,
        _table: &str,
        preds: &[SimplePred],
        stats: Option<&TableStats>,
    ) -> f64 {
        // Same-column range conjuncts (`k >= lo AND k <= hi` arrives as
        // two half-open ranges) are maximally dependent: multiplying
        // them under independence turns a narrow interval into the
        // product of two wide tails. Intersect them into one interval
        // per column first, then apply independence across columns.
        let mut ranges: HashMap<&str, (Option<f64>, Option<f64>)> = HashMap::new();
        let mut sel = 1.0;
        for p in preds {
            match p {
                SimplePred::Range { column, lo, hi } => {
                    let entry = ranges.entry(column.as_str()).or_insert((None, None));
                    entry.0 = match (entry.0, *lo) {
                        (Some(a), Some(b)) => Some(a.max(b)),
                        (a, b) => a.or(b),
                    };
                    entry.1 = match (entry.1, *hi) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    };
                }
                SimplePred::Eq { column, .. } => {
                    sel *= match stats {
                        Some(st) => st.eq_selectivity(column),
                        None => 0.05,
                    };
                }
                SimplePred::Other => sel *= 0.33,
            }
        }
        for (column, (lo, hi)) in ranges {
            sel *= match stats {
                Some(st) => st.range_selectivity(column, lo, hi),
                None => 0.33,
            };
        }
        sel.clamp(1e-9, 1.0)
    }

    fn join_selectivity(
        &self,
        left: (&str, &str),
        right: (&str, &str),
        stats: &HashMap<String, TableStats>,
    ) -> f64 {
        let nd = |t: &str, c: &str| {
            stats
                .get(&t.to_ascii_lowercase())
                .and_then(|s| s.column(c))
                .map(|cs| cs.n_distinct)
                .unwrap_or(10)
        };
        let d = nd(left.0, left.1).max(nd(right.0, right.1)).max(1);
        (1.0 / d as f64).clamp(1e-9, 1.0)
    }
}

/// One table reference in the query, with its qualified schema.
#[derive(Debug, Clone)]
struct AliasInfo {
    alias: String,
    table: String,
    schema: Schema, // qualified: alias.col
    base_rows: f64,
}

/// An equi-join edge between two aliases.
#[derive(Debug, Clone)]
struct JoinEdge {
    left_alias: usize,
    left_col: String, // bare
    right_alias: usize,
    right_col: String, // bare
}

/// The query planner. Construct one per statement (cheap).
pub struct Planner<'a> {
    pub catalog: &'a Catalog,
    pub stats: &'a HashMap<String, TableStats>,
    pub estimator: &'a dyn CardEstimator,
    pub cost: CostParams,
    /// `(table, column)` pairs treated as indexed during costing even if
    /// no physical index exists (what-if mode for index advisors).
    pub hypothetical_indexes: HashSet<(String, String)>,
    /// When true, access-path selection ignores physical indexes and uses
    /// only `hypothetical_indexes` (pure what-if costing).
    pub hypothetical_only: bool,
    /// Where `PREDICT(model, …)` finds its model. Without one, a query
    /// that calls `PREDICT` does not plan.
    pub models: Option<&'a dyn ModelHook>,
}

impl<'a> Planner<'a> {
    pub fn new(
        catalog: &'a Catalog,
        stats: &'a HashMap<String, TableStats>,
        estimator: &'a dyn CardEstimator,
    ) -> Self {
        Planner {
            catalog,
            stats,
            estimator,
            cost: CostParams::default(),
            hypothetical_indexes: HashSet::new(),
            hypothetical_only: false,
            models: None,
        }
    }

    fn table_stats(&self, table: &str) -> Option<&TableStats> {
        self.stats.get(&table.to_ascii_lowercase())
    }

    fn has_index(&self, table: &str, column: &str) -> bool {
        let key = (table.to_ascii_lowercase(), column.to_ascii_lowercase());
        if self.hypothetical_indexes.contains(&key) {
            return true;
        }
        if self.hypothetical_only {
            return false;
        }
        self.catalog
            .table(table)
            .map(|t| t.index_on(column).is_some())
            .unwrap_or(false)
    }

    /// Plan a SELECT into a physical plan.
    pub fn plan_select(&self, select: &Select) -> Result<PhysicalPlan> {
        // 1. collect alias infos
        let mut aliases: Vec<AliasInfo> = Vec::new();
        let mut all_refs = select.from.clone();
        all_refs.extend(select.joins.iter().map(|j| j.table.clone()));
        for tref in &all_refs {
            let table = self.catalog.table(&tref.name)?;
            let alias = tref.effective_name().to_string();
            if aliases.iter().any(|a| a.alias.eq_ignore_ascii_case(&alias)) {
                return Err(AimError::Plan(format!("duplicate table alias {alias}")));
            }
            aliases.push(AliasInfo {
                schema: qualify_schema(&table.schema, &alias),
                alias,
                table: tref.name.clone(),
                base_rows: self.base_rows(&tref.name)?,
            });
        }
        if aliases.is_empty() {
            // SELECT without FROM: single literal row
            let plan = order_and_limit(select, self.plan_projection_only(select)?)?;
            return self.bind_plan_models(plan);
        }

        // 2. gather conjuncts from WHERE and JOIN ... ON
        let mut conjuncts: Vec<Expr> = Vec::new();
        if let Some(w) = &select.where_clause {
            conjuncts.extend(w.conjuncts().into_iter().cloned());
        }
        for j in &select.joins {
            conjuncts.extend(j.on.conjuncts().into_iter().cloned());
        }

        // 3. classify conjuncts
        let mut per_alias: Vec<Vec<Expr>> = vec![Vec::new(); aliases.len()];
        let mut edges: Vec<JoinEdge> = Vec::new();
        let mut residual: Vec<Expr> = Vec::new();
        for c in conjuncts {
            match self.conjunct_aliases(&c, &aliases)? {
                refs if refs.len() == 1 => match refs.iter().next() {
                    Some(&i) => per_alias[i].push(c),
                    None => residual.push(c),
                },
                refs if refs.len() == 2 => {
                    if let Some(edge) = self.as_equi_edge(&c, &aliases)? {
                        edges.push(edge);
                    } else {
                        residual.push(c);
                    }
                }
                _ => residual.push(c),
            }
        }

        // conjuncts run as a cascade (each sees only the rows the ones
        // before it accepted), so put the ones that call functions last
        for conjuncts in per_alias.iter_mut().chain([&mut residual]) {
            order_conjuncts(conjuncts);
        }

        // 4. base access paths
        let scans: Vec<PhysicalPlan> = aliases
            .iter()
            .enumerate()
            .map(|(i, a)| self.plan_scan(a, &per_alias[i]))
            .collect::<Result<_>>()?;

        // 5. join ordering
        let mut plan = if aliases.len() == 1 {
            scans
                .into_iter()
                .next()
                .ok_or_else(|| AimError::Plan("single-table query produced no scan".into()))?
        } else if aliases.len() <= 10 {
            self.dp_join(&aliases, scans, &edges)?
        } else {
            self.greedy_join(&aliases, scans, &edges)?
        };

        // 6. residual predicates
        if let Some(pred) = Expr::conjunction(residual) {
            let bound = bind_expr(&pred, &plan.schema)?;
            plan = self.add_filter(plan, bound);
        }

        // 7. aggregation / projection
        plan = self.plan_projection(select, plan)?;

        // 8. order by, limit
        plan = order_and_limit(select, plan)?;
        // 9. mark parallelizable scan regions with Exchange boundaries
        let mut plan = insert_exchanges(plan);
        // 10. narrow every scan to the columns the operators above it use
        let width = plan.schema.len();
        prune_columns(&mut plan, vec![true; width]);
        // 11. pin the model version each PREDICT runs against
        self.bind_plan_models(plan)
    }

    /// Pin the model version each `PREDICT` in `plan` runs against.
    /// Whether its arguments are numeric is a question for the verifier's
    /// type lattice; ask it now, so that a scan that happens to return no
    /// rows cannot hide the answer.
    fn bind_plan_models(&self, mut plan: PhysicalPlan) -> Result<PhysicalPlan> {
        if bind_models(&mut plan, self.models)? {
            crate::verify::verify(&plan, self.catalog)?;
        }
        Ok(plan)
    }

    /// Plan an UPDATE or DELETE's read as the SELECT it implies: the scan
    /// [`Planner::access_path`] picks, of every column of `table` (the log
    /// records whole before-images), with the WHERE as its filter in the
    /// order written; for an UPDATE, a `Project` of the SET expressions in
    /// SET order over it, one output column per assignment. There is no
    /// `Exchange`: the statement reads on its own thread. Its `PREDICT`s
    /// are bound as a SELECT's are, once per model for the statement.
    pub fn plan_dml(
        &self,
        table: &str,
        where_clause: Option<&Expr>,
        assignments: &[(String, Expr)],
    ) -> Result<PhysicalPlan> {
        let t = self.catalog.table(table)?;
        let a = AliasInfo {
            alias: table.to_string(),
            table: table.to_string(),
            schema: qualify_schema(&t.schema, table),
            base_rows: self.base_rows(table)?,
        };
        let conjuncts: Vec<Expr> = where_clause
            .map(|w| w.conjuncts().into_iter().cloned().collect())
            .unwrap_or_default();
        let mut plan = self.plan_scan(&a, &conjuncts)?;
        if !assignments.is_empty() {
            let mut columns = Vec::with_capacity(assignments.len());
            let mut exprs = Vec::with_capacity(assignments.len());
            for (column, e) in assignments {
                columns.push(t.schema.columns()[t.schema.index_of(column)?].clone());
                exprs.push(bind_expr(e, &plan.schema)?);
            }
            let rows = plan.est_rows;
            let cost = plan.est_cost + rows * (0.005 + exprs.iter().map(call_cost).sum::<f64>());
            plan = PhysicalPlan {
                op: PhysOp::Project {
                    input: Box::new(plan),
                    exprs,
                },
                schema: Schema::new(columns),
                est_rows: rows,
                est_cost: cost,
            };
        }
        self.bind_plan_models(plan)
    }

    /// Which aliases a conjunct references.
    fn conjunct_aliases(&self, e: &Expr, aliases: &[AliasInfo]) -> Result<HashSet<usize>> {
        let mut out = HashSet::new();
        for (q, name) in e.referenced_columns() {
            out.insert(self.resolve_alias(q, name, aliases)?.0);
        }
        Ok(out)
    }

    /// Resolve a column reference to `(alias index, bare column name)`.
    fn resolve_alias(
        &self,
        qualifier: Option<&str>,
        name: &str,
        aliases: &[AliasInfo],
    ) -> Result<(usize, String)> {
        match qualifier {
            Some(q) => {
                let idx = aliases
                    .iter()
                    .position(|a| a.alias.eq_ignore_ascii_case(q))
                    .ok_or_else(|| AimError::NotFound(format!("table alias {q}")))?;
                // verify the column exists
                let table = self.catalog.table(&aliases[idx].table)?;
                let ci = table.schema.index_of(name)?;
                Ok((idx, table.schema.columns()[ci].name.clone()))
            }
            None => {
                let mut found: Option<(usize, String)> = None;
                for (i, a) in aliases.iter().enumerate() {
                    let table = self.catalog.table(&a.table)?;
                    if let Ok(ci) = table.schema.index_of(name) {
                        if found.is_some() {
                            return Err(AimError::Plan(format!("ambiguous column {name}")));
                        }
                        found = Some((i, table.schema.columns()[ci].name.clone()));
                    }
                }
                found.ok_or_else(|| AimError::NotFound(format!("column {name}")))
            }
        }
    }

    /// Try to interpret a two-alias conjunct as an equi-join edge.
    fn as_equi_edge(&self, e: &Expr, aliases: &[AliasInfo]) -> Result<Option<JoinEdge>> {
        if let Expr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } = e
        {
            if let (
                Expr::Column {
                    qualifier: ql,
                    name: nl,
                },
                Expr::Column {
                    qualifier: qr,
                    name: nr,
                },
            ) = (left.as_ref(), right.as_ref())
            {
                let (la, lc) = self.resolve_alias(ql.as_deref(), nl, aliases)?;
                let (ra, rc) = self.resolve_alias(qr.as_deref(), nr, aliases)?;
                if la != ra {
                    return Ok(Some(JoinEdge {
                        left_alias: la,
                        left_col: lc,
                        right_alias: ra,
                        right_col: rc,
                    }));
                }
            }
        }
        Ok(None)
    }

    /// Classify single-table conjuncts into [`SimplePred`]s (bare column
    /// names) for the estimator.
    pub fn classify_preds(conjuncts: &[Expr]) -> Vec<SimplePred> {
        conjuncts
            .iter()
            .map(|c| match c {
                Expr::Binary { left, op, right } => {
                    let (col, lit, op) = match (left.as_ref(), right.as_ref()) {
                        (Expr::Column { name, .. }, Expr::Literal(v)) => (name, v, *op),
                        (Expr::Literal(v), Expr::Column { name, .. }) => (name, v, flip(*op)),
                        _ => return SimplePred::Other,
                    };
                    let bare = bare_name(col);
                    match op {
                        BinaryOp::Eq => SimplePred::Eq {
                            column: bare,
                            value: lit.clone(),
                        },
                        BinaryOp::Lt | BinaryOp::Lte => match lit.as_f64() {
                            Ok(f) => SimplePred::Range {
                                column: bare,
                                lo: None,
                                hi: Some(f),
                            },
                            Err(_) => SimplePred::Other,
                        },
                        BinaryOp::Gt | BinaryOp::Gte => match lit.as_f64() {
                            Ok(f) => SimplePred::Range {
                                column: bare,
                                lo: Some(f),
                                hi: None,
                            },
                            Err(_) => SimplePred::Other,
                        },
                        _ => SimplePred::Other,
                    }
                }
                Expr::Between { expr, lo, hi } => {
                    if let (Expr::Column { name, .. }, Expr::Literal(l), Expr::Literal(h)) =
                        (expr.as_ref(), lo.as_ref(), hi.as_ref())
                    {
                        match (l.as_f64(), h.as_f64()) {
                            (Ok(l), Ok(h)) => SimplePred::Range {
                                column: bare_name(name),
                                lo: Some(l),
                                hi: Some(h),
                            },
                            _ => SimplePred::Other,
                        }
                    } else {
                        SimplePred::Other
                    }
                }
                _ => SimplePred::Other,
            })
            .collect()
    }

    /// Rows the planner assumes `table` holds: the analyzed count, else
    /// what the heap holds now.
    pub fn base_rows(&self, table: &str) -> Result<f64> {
        let rows = match self.table_stats(table) {
            Some(s) => s.row_count as f64,
            None => self
                .catalog
                .table(table)?
                .row_count()
                .map_or(1000.0, |n| n as f64),
        };
        Ok(rows.max(1.0))
    }

    /// Choose how to reach the rows of `table` that satisfy `conjuncts`
    /// (single-table, unbound, applied in the order given): the most
    /// selective `=` conjunct or range on an indexed column — a column's
    /// range conjuncts intersected into one range, so `a >= 1 AND a <= 4`
    /// probes like `a BETWEEN 1 AND 4` — if probing it is estimated
    /// cheaper than reading every page, else a sequential scan.
    /// This is the only sargability matcher: SELECT's scan nodes and the
    /// row search of UPDATE/DELETE both come from here. The index bounds
    /// are a superset of what the conjunct accepts (ranges are inclusive
    /// and widened to floats), so whoever probes re-checks the conjuncts.
    pub fn access_path(&self, table: &str, base_rows: f64, conjuncts: &[Expr]) -> TableAccess {
        let preds = Self::classify_preds(conjuncts);
        let stats = self.table_stats(table);
        let sel = self.estimator.scan_selectivity(table, &preds, stats);
        let est_rows = (base_rows * sel).max(0.0);

        // candidate index predicates: every `=`, and per column one range,
        // the intersection of that column's range conjuncts
        let mut candidates: Vec<SimplePred> = Vec::new();
        for p in &preds {
            let SimplePred::Range { column, lo, hi } = p else {
                candidates.push(p.clone());
                continue;
            };
            let same_column = candidates.iter_mut().find_map(|c| match c {
                SimplePred::Range {
                    column: c,
                    lo: l,
                    hi: h,
                } if c.eq_ignore_ascii_case(column) => Some((l, h)),
                _ => None,
            });
            match same_column {
                Some((l, h)) => {
                    *l = match (*l, *lo) {
                        (Some(a), Some(b)) => Some(a.max(b)),
                        (a, b) => a.or(b),
                    };
                    *h = match (*h, *hi) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    };
                }
                None => candidates.push(p.clone()),
            }
        }
        // the most selective candidate on an indexed column
        let mut best_index: Option<(AccessPath, f64)> = None;
        for p in &candidates {
            let (column, lo, hi) = match p {
                SimplePred::Eq { column, value } => {
                    (column, Some(value.clone()), Some(value.clone()))
                }
                SimplePred::Range { column, lo, hi } => {
                    (column, lo.map(Value::Float), hi.map(Value::Float))
                }
                SimplePred::Other => continue,
            };
            if !self.has_index(table, column) {
                continue;
            }
            let s = self
                .estimator
                .scan_selectivity(table, std::slice::from_ref(p), stats);
            if best_index.as_ref().is_none_or(|b| s < b.1) {
                let column = column.clone();
                best_index = Some((AccessPath::IndexScan { column, lo, hi }, s));
            }
        }

        // function calls are charged per row that reaches their conjunct
        let calls = |rows: f64| -> f64 {
            conjuncts
                .iter()
                .enumerate()
                .map(|(k, c)| (k, call_cost(c)))
                .filter(|&(_, cost)| cost > 0.0)
                .map(|(k, cost)| {
                    let reach = self.estimator.scan_selectivity(table, &preds[..k], stats);
                    rows * reach * cost
                })
                .sum()
        };
        let seq_cost = self.seq_scan_cost(base_rows) + calls(base_rows);
        if let Some((path, isel)) = best_index {
            let matched = base_rows * isel;
            let idx_cost = self.index_scan_cost(matched) + calls(matched);
            if idx_cost < seq_cost {
                return TableAccess {
                    path,
                    est_rows,
                    est_cost: idx_cost,
                };
            }
        }
        TableAccess {
            path: AccessPath::SeqScan,
            est_rows,
            est_cost: seq_cost + conjuncts.len() as f64 * base_rows * 0.002,
        }
    }

    /// The scan node for one table with its pushed-down conjuncts.
    fn plan_scan(&self, a: &AliasInfo, conjuncts: &[Expr]) -> Result<PhysicalPlan> {
        let filter = match Expr::conjunction(conjuncts.to_vec()) {
            Some(p) => Some(bind_expr(&p, &a.schema)?),
            None => None,
        };
        let access = self.access_path(&a.table, a.base_rows, conjuncts);
        let (table, alias) = (a.table.clone(), a.alias.clone());
        // every column until `prune_columns` knows what the plan reads
        let cols = (0..a.schema.len()).collect();
        Ok(PhysicalPlan {
            op: match access.path {
                AccessPath::IndexScan { column, lo, hi } => PhysOp::IndexScan {
                    table,
                    alias,
                    column,
                    lo,
                    hi,
                    cols,
                    filter,
                },
                AccessPath::SeqScan => PhysOp::SeqScan {
                    table,
                    alias,
                    cols,
                    filter,
                },
            },
            schema: a.schema.clone(),
            est_rows: access.est_rows,
            est_cost: access.est_cost,
        })
    }

    pub fn seq_scan_cost(&self, rows: f64) -> f64 {
        (rows / self.cost.rows_per_page).ceil().max(1.0) * self.cost.seq_page_cost
            + rows * self.cost.cpu_tuple_cost
    }

    pub fn index_scan_cost(&self, matched_rows: f64) -> f64 {
        3.0 * self.cost.random_page_cost
            + matched_rows * self.cost.random_page_cost * 0.3
            + matched_rows * self.cost.cpu_tuple_cost
    }

    fn add_filter(&self, input: PhysicalPlan, predicate: Expr) -> PhysicalPlan {
        let rows = (input.est_rows * 0.33).max(0.0);
        let cost = input.est_cost + input.est_rows * 0.005 + input.est_rows * call_cost(&predicate);
        PhysicalPlan {
            schema: input.schema.clone(),
            op: PhysOp::Filter {
                input: Box::new(input),
                predicate,
            },
            est_rows: rows,
            est_cost: cost,
        }
    }

    /// Build a join of two sub-plans, using the crossing equi edges.
    fn make_join(
        &self,
        left: PhysicalPlan,
        right: PhysicalPlan,
        crossing: &[(&JoinEdge, bool)], // (edge, edge.left is in `left`)
        aliases: &[AliasInfo],
    ) -> Result<PhysicalPlan> {
        let mut sel = 1.0;
        for (e, _) in crossing {
            sel *= self.estimator.join_selectivity(
                (&aliases[e.left_alias].table, &e.left_col),
                (&aliases[e.right_alias].table, &e.right_col),
                self.stats,
            );
        }
        let est_rows = (left.est_rows * right.est_rows * sel).max(0.0);
        let schema = left.schema.join(&right.schema);
        if let Some((first, first_left_in_left)) = crossing.first() {
            let (lkey_alias, lkey_col, rkey_alias, rkey_col) = if *first_left_in_left {
                (
                    first.left_alias,
                    &first.left_col,
                    first.right_alias,
                    &first.right_col,
                )
            } else {
                (
                    first.right_alias,
                    &first.right_col,
                    first.left_alias,
                    &first.left_col,
                )
            };
            let left_key = bind_expr(
                &Expr::qcol(&aliases[lkey_alias].alias, lkey_col),
                &left.schema,
            )?;
            let right_key = bind_expr(
                &Expr::qcol(&aliases[rkey_alias].alias, rkey_col),
                &right.schema,
            )?;
            let residual = if crossing.len() > 1 {
                let preds: Vec<Expr> = crossing[1..]
                    .iter()
                    .map(|(e, _)| {
                        bind_expr(
                            &Expr::binary(
                                Expr::qcol(&aliases[e.left_alias].alias, &e.left_col),
                                BinaryOp::Eq,
                                Expr::qcol(&aliases[e.right_alias].alias, &e.right_col),
                            ),
                            &schema,
                        )
                    })
                    .collect::<Result<_>>()?;
                Expr::conjunction(preds)
            } else {
                None
            };
            let cost = left.est_cost
                + right.est_cost
                + (left.est_rows + right.est_rows) * 0.015
                + est_rows * self.cost.cpu_tuple_cost;
            Ok(PhysicalPlan {
                op: PhysOp::HashJoin {
                    left: Box::new(left),
                    right: Box::new(right),
                    left_key,
                    right_key,
                    residual,
                },
                schema,
                est_rows,
                est_cost: cost,
            })
        } else {
            // cross join
            let est_rows = left.est_rows * right.est_rows;
            let cost = left.est_cost
                + right.est_cost
                + left.est_rows * right.est_rows * self.cost.cpu_tuple_cost;
            Ok(PhysicalPlan {
                op: PhysOp::NestedLoopJoin {
                    left: Box::new(left),
                    right: Box::new(right),
                    on: None,
                },
                schema,
                est_rows,
                est_cost: cost,
            })
        }
    }

    fn crossing_edges(
        edges: &[JoinEdge],
        left_mask: u64,
        right_mask: u64,
    ) -> Vec<(&JoinEdge, bool)> {
        edges
            .iter()
            .filter_map(|e| {
                let lb = 1u64 << e.left_alias;
                let rb = 1u64 << e.right_alias;
                if lb & left_mask != 0 && rb & right_mask != 0 {
                    Some((e, true))
                } else if lb & right_mask != 0 && rb & left_mask != 0 {
                    Some((e, false))
                } else {
                    None
                }
            })
            .collect()
    }

    /// Exact DP over connected subsets (textbook DPsize). Cartesian
    /// products are never considered while an edge-connected merge can
    /// cover the subset — a tiny dimension✕dimension cross product can
    /// look cheap in isolation but forces the fact table through an
    /// unfiltered product later. Only when the first pass cannot reach
    /// the full mask (the join graph is genuinely disconnected) does a
    /// second pass stitch the remaining components with cross joins.
    fn dp_join(
        &self,
        aliases: &[AliasInfo],
        scans: Vec<PhysicalPlan>,
        edges: &[JoinEdge],
    ) -> Result<PhysicalPlan> {
        let n = aliases.len();
        let full: u64 = (1 << n) - 1;
        let mut best: HashMap<u64, PhysicalPlan> = HashMap::new();
        for (i, s) in scans.into_iter().enumerate() {
            best.insert(1 << i, s);
        }
        // Pass 1: edge-connected merges only.
        self.dp_pass(&mut best, full, aliases, edges, false)?;
        if !best.contains_key(&full) {
            // Pass 2: disconnected graph — allow cross joins to stitch
            // the already-optimal connected components together.
            self.dp_pass(&mut best, full, aliases, edges, true)?;
        }
        best.remove(&full)
            .ok_or_else(|| AimError::Plan("join DP failed to cover all tables".into()))
    }

    /// One DPsize sweep over all subset masks. With `allow_cross` false,
    /// only splits linked by at least one equi edge are merged; masks
    /// already solved by an earlier pass are kept as-is.
    fn dp_pass(
        &self,
        best: &mut HashMap<u64, PhysicalPlan>,
        full: u64,
        aliases: &[AliasInfo],
        edges: &[JoinEdge],
        allow_cross: bool,
    ) -> Result<()> {
        for mask in 1..=full {
            if mask.count_ones() < 2 || best.contains_key(&mask) {
                continue;
            }
            let mut candidate: Option<PhysicalPlan> = None;
            // enumerate proper sub-splits
            let mut sub = (mask - 1) & mask;
            while sub > 0 {
                let other = mask ^ sub;
                if let (Some(l), Some(r)) = (best.get(&sub), best.get(&other)) {
                    let crossing = Self::crossing_edges(edges, sub, other);
                    if !crossing.is_empty() || allow_cross {
                        let plan = self.make_join(l.clone(), r.clone(), &crossing, aliases)?;
                        if candidate
                            .as_ref()
                            .is_none_or(|c| plan.est_cost < c.est_cost)
                        {
                            candidate = Some(plan);
                        }
                    }
                }
                sub = (sub - 1) & mask;
            }
            if let Some(c) = candidate {
                best.insert(mask, c);
            }
        }
        Ok(())
    }

    /// Greedy join ordering for wide queries (> 10 tables).
    fn greedy_join(
        &self,
        aliases: &[AliasInfo],
        scans: Vec<PhysicalPlan>,
        edges: &[JoinEdge],
    ) -> Result<PhysicalPlan> {
        let mut remaining: Vec<(u64, PhysicalPlan)> = scans
            .into_iter()
            .enumerate()
            .map(|(i, s)| (1u64 << i, s))
            .collect();
        while remaining.len() > 1 {
            let mut best: Option<(usize, usize, PhysicalPlan)> = None;
            for i in 0..remaining.len() {
                for j in i + 1..remaining.len() {
                    let crossing = Self::crossing_edges(edges, remaining[i].0, remaining[j].0);
                    if crossing.is_empty() && remaining.len() > 2 {
                        continue; // defer cross joins
                    }
                    let plan = self.make_join(
                        remaining[i].1.clone(),
                        remaining[j].1.clone(),
                        &crossing,
                        aliases,
                    )?;
                    if best
                        .as_ref()
                        .is_none_or(|(_, _, b)| plan.est_cost < b.est_cost)
                    {
                        best = Some((i, j, plan));
                    }
                }
            }
            let (i, j, plan) = match best {
                Some(b) => b,
                None => {
                    // all pairs are cross joins; take the two smallest
                    let crossing = Self::crossing_edges(edges, remaining[0].0, remaining[1].0);
                    let plan = self.make_join(
                        remaining[0].1.clone(),
                        remaining[1].1.clone(),
                        &crossing,
                        aliases,
                    )?;
                    (0, 1, plan)
                }
            };
            let mask = remaining[i].0 | remaining[j].0;
            // remove j first (j > i)
            remaining.remove(j);
            remaining.remove(i);
            remaining.push((mask, plan));
        }
        Ok(remaining
            .pop()
            .ok_or_else(|| AimError::Plan("no tables to join".into()))?
            .1)
    }

    /// SELECT without FROM.
    fn plan_projection_only(&self, select: &Select) -> Result<PhysicalPlan> {
        let mut exprs = Vec::new();
        let mut cols = Vec::new();
        for (i, item) in select.items.iter().enumerate() {
            match item {
                SelectItem::Wildcard => {
                    return Err(AimError::Plan("SELECT * requires FROM".into()))
                }
                SelectItem::Expr { expr, alias } => {
                    let name = alias
                        .clone()
                        .unwrap_or_else(|| default_output_name(expr, i));
                    cols.push((name, expr.clone()));
                    exprs.push(bind_expr(expr, &Schema::default())?);
                }
            }
        }
        let schema = Schema::new(
            cols.iter()
                .map(|(n, _)| aimdb_common::Column::new(n.clone(), aimdb_common::DataType::Float))
                .collect(),
        );
        let empty = Schema::default();
        let values = PhysicalPlan {
            op: PhysOp::Values {
                rows: vec![Row::new(vec![])],
            },
            schema: empty,
            est_rows: 1.0,
            est_cost: 0.0,
        };
        Ok(PhysicalPlan {
            op: PhysOp::Project {
                input: Box::new(values),
                exprs,
            },
            schema,
            est_rows: 1.0,
            est_cost: 0.01,
        })
    }

    /// Plan aggregation + final projection over `input`.
    fn plan_projection(&self, select: &Select, input: PhysicalPlan) -> Result<PhysicalPlan> {
        // detect aggregates in select items
        let mut agg_calls: Vec<(AggFunc, Option<Expr>)> = Vec::new();
        for item in &select.items {
            if let SelectItem::Expr { expr, .. } = item {
                collect_aggs(expr, &mut agg_calls);
            }
        }
        for k in &select.order_by {
            collect_aggs(&k.expr, &mut agg_calls);
        }
        let has_agg = !agg_calls.is_empty() || !select.group_by.is_empty();

        if !has_agg {
            // simple projection
            let mut exprs = Vec::new();
            let mut columns = Vec::new();
            for (i, item) in select.items.iter().enumerate() {
                match item {
                    SelectItem::Wildcard => {
                        for c in input.schema.columns() {
                            exprs.push(Expr::col(&c.name));
                            let mut col = c.clone();
                            col.name = bare_name(&c.name);
                            columns.push(col);
                        }
                    }
                    SelectItem::Expr { expr, alias } => {
                        let bound = bind_expr(expr, &input.schema)?;
                        let name = alias
                            .clone()
                            .unwrap_or_else(|| default_output_name(&bound, i));
                        exprs.push(bound);
                        columns.push(aimdb_common::Column::new(
                            name,
                            aimdb_common::DataType::Float,
                        ));
                    }
                }
            }
            // de-duplicate bare output names from wildcard joins
            dedup_names(&mut columns);
            let rows = input.est_rows;
            let calls: f64 = exprs.iter().map(call_cost).sum();
            let cost = input.est_cost + rows * 0.005 * exprs.len() as f64 + rows * calls;
            return Ok(PhysicalPlan {
                schema: Schema::new(columns),
                op: PhysOp::Project {
                    input: Box::new(input),
                    exprs,
                },
                est_rows: rows,
                est_cost: cost,
            });
        }

        // aggregate plan: group exprs then agg exprs
        let group_exprs: Vec<Expr> = select
            .group_by
            .iter()
            .map(|g| bind_expr(g, &input.schema))
            .collect::<Result<_>>()?;
        // dedup agg calls structurally
        let mut uniq: Vec<(AggFunc, Option<Expr>)> = Vec::new();
        for (f, arg) in agg_calls {
            let bound = match &arg {
                Some(a) => Some(bind_expr(a, &input.schema)?),
                None => None,
            };
            if !uniq.iter().any(|(uf, ua)| *uf == f && *ua == bound) {
                uniq.push((f, bound));
            }
        }
        let aggs: Vec<AggExpr> = uniq
            .iter()
            .enumerate()
            .map(|(i, (f, arg))| AggExpr {
                func: *f,
                arg: arg.clone(),
                name: format!("__agg{i}"),
            })
            .collect();

        // aggregate output schema: __g0.. then __agg0..
        let mut agg_cols = Vec::new();
        for (i, _) in group_exprs.iter().enumerate() {
            agg_cols.push(aimdb_common::Column::new(
                format!("__g{i}"),
                aimdb_common::DataType::Float,
            ));
        }
        for a in &aggs {
            agg_cols.push(aimdb_common::Column::new(
                a.name.clone(),
                aimdb_common::DataType::Float,
            ));
        }
        let agg_schema = Schema::new(agg_cols);
        let group_card = if group_exprs.is_empty() {
            1.0
        } else {
            (input.est_rows / 10.0).max(1.0)
        };
        let calls: f64 = group_exprs
            .iter()
            .chain(aggs.iter().filter_map(|a| a.arg.as_ref()))
            .map(call_cost)
            .sum();
        let agg_plan = PhysicalPlan {
            op: PhysOp::Aggregate {
                input: Box::new(input.clone()),
                group_exprs: group_exprs.clone(),
                aggs: aggs.clone(),
            },
            schema: agg_schema.clone(),
            est_rows: group_card,
            est_cost: input.est_cost + input.est_rows * 0.02 + input.est_rows * calls,
        };

        // final projection: substitute agg calls and group exprs
        let mut exprs = Vec::new();
        let mut columns = Vec::new();
        for (i, item) in select.items.iter().enumerate() {
            let (expr, alias) = match item {
                SelectItem::Wildcard => {
                    return Err(AimError::Plan(
                        "SELECT * cannot be combined with aggregation".into(),
                    ))
                }
                SelectItem::Expr { expr, alias } => (expr, alias),
            };
            let sub = substitute_agg(expr, &select.group_by, &group_exprs, &uniq, &input.schema)?;
            let bound = bind_expr(&sub, &agg_schema)?;
            let name = alias
                .clone()
                .unwrap_or_else(|| default_output_name(expr, i));
            exprs.push(bound);
            columns.push(aimdb_common::Column::new(
                name,
                aimdb_common::DataType::Float,
            ));
        }
        dedup_names(&mut columns);
        let rows = agg_plan.est_rows;
        let cost = agg_plan.est_cost + rows * 0.005;
        Ok(PhysicalPlan {
            schema: Schema::new(columns),
            op: PhysOp::Project {
                input: Box::new(agg_plan),
                exprs,
            },
            est_rows: rows,
            est_cost: cost,
        })
    }
}

/// ORDER BY and LIMIT over the select list's plan: the sort goes over
/// the select list's output when every key binds there, else under the
/// final projection.
fn order_and_limit(select: &Select, mut plan: PhysicalPlan) -> Result<PhysicalPlan> {
    if !select.order_by.is_empty() {
        let keys: Result<Vec<OrderKey>> = select
            .order_by
            .iter()
            .map(|k| {
                Ok(OrderKey {
                    expr: bind_expr(&k.expr, &plan.schema)?,
                    desc: k.desc,
                })
            })
            .collect();
        plan = match keys {
            Ok(keys) => sort(plan, keys),
            Err(_) => sort_below_projection(select, plan)?,
        };
    }
    if let Some(n) = select.limit {
        let rows = plan.est_rows.min(n as f64);
        let cost = plan.est_cost;
        plan = PhysicalPlan {
            schema: plan.schema.clone(),
            op: PhysOp::Limit {
                input: Box::new(plan),
                n,
            },
            est_rows: rows,
            est_cost: cost,
        };
    }
    Ok(plan)
}

/// `plan` sorted by `keys`.
fn sort(plan: PhysicalPlan, keys: Vec<OrderKey>) -> PhysicalPlan {
    let rows = plan.est_rows;
    let cost = plan.est_cost + rows * (rows.max(2.0)).log2() * 0.005;
    PhysicalPlan {
        schema: plan.schema.clone(),
        op: PhysOp::Sort {
            input: Box::new(plan),
            keys,
        },
        est_rows: rows,
        est_cost: cost,
    }
}

/// Sort the input of `projection`, the select list's final projection,
/// for ORDER BY keys that name what the select list does not output. A
/// key that binds against the output is rewritten over the input by
/// inlining the projection's expressions; any other key binds against
/// the input itself, a grouped query's after [`substitute_agg`] (the
/// aggregate already computes ORDER BY's aggregate calls).
fn sort_below_projection(select: &Select, projection: PhysicalPlan) -> Result<PhysicalPlan> {
    let PhysicalPlan {
        op: PhysOp::Project { input, exprs },
        schema,
        est_rows,
        est_cost,
    } = projection
    else {
        return Err(AimError::Plan(
            "ORDER BY over a plan with no projection".into(),
        ));
    };
    let bind_below = |e: &Expr| match &input.op {
        PhysOp::Aggregate {
            input: rows,
            group_exprs,
            aggs,
        } => {
            let calls: Vec<_> = aggs.iter().map(|a| (a.func, a.arg.clone())).collect();
            let sub = substitute_agg(e, &select.group_by, group_exprs, &calls, &rows.schema)?;
            bind_expr(&sub, &input.schema)
        }
        _ => bind_expr(e, &input.schema),
    };
    let keys = select
        .order_by
        .iter()
        .map(|k| {
            let expr = match bind_expr(&k.expr, &schema) {
                Ok(mut out) => {
                    inline_columns(&mut out, &schema, &exprs)?;
                    out
                }
                Err(_) => bind_below(&k.expr)?,
            };
            Ok(OrderKey { expr, desc: k.desc })
        })
        .collect::<Result<_>>()?;
    let unsorted_cost = input.est_cost;
    let input = sort(*input, keys);
    let cost = est_cost + (input.est_cost - unsorted_cost);
    Ok(PhysicalPlan {
        op: PhysOp::Project {
            input: Box::new(input),
            exprs,
        },
        schema,
        est_rows,
        est_cost: cost,
    })
}

/// Replace each column reference in `e`, bound against `schema`, with
/// the expression of `exprs` that computes that column.
fn inline_columns(e: &mut Expr, schema: &Schema, exprs: &[Expr]) -> Result<()> {
    if let Expr::Column { name, .. } = e {
        let i = schema.index_of(name)?;
        *e = exprs[i].clone();
        return Ok(());
    }
    e.children_mut()
        .into_iter()
        .try_for_each(|c| inline_columns(c, schema, exprs))
}

/// Order a filter's conjuncts by what their function calls cost per row,
/// cheapest first. The sort is stable, so conjuncts that call nothing —
/// every conjunct of most queries — keep the order they were written in.
fn order_conjuncts(conjuncts: &mut [Expr]) {
    conjuncts.sort_by(|a, b| call_cost(a).total_cmp(&call_cost(b)));
}

fn flip(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::Lte => BinaryOp::Gte,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::Gte => BinaryOp::Lte,
        other => other,
    }
}

fn bare_name(name: &str) -> String {
    match name.rsplit_once('.') {
        Some((_, b)) => b.to_string(),
        None => name.to_string(),
    }
}

/// Is this subtree a parallelizable morsel region — a (possibly empty)
/// chain of Filter / Project nodes over a SeqScan? Index scans stay
/// serial (their row order comes from the index, not heap pages), as do
/// joins and pipeline breakers, which instead consume a region's
/// morsel-ordered output.
fn is_parallel_region(plan: &PhysicalPlan) -> bool {
    match &plan.op {
        PhysOp::SeqScan { .. } => true,
        PhysOp::Filter { input, .. } | PhysOp::Project { input, .. } => is_parallel_region(input),
        _ => false,
    }
}

/// Wrap every maximal parallelizable region in an [`PhysOp::Exchange`]
/// boundary. The executor decides the worker count at run time: the
/// `exec_parallelism` knob, capped by the region's morsel count, with
/// the calling thread as worker 1, so a one-morsel region starts no
/// thread and others start `min(workers, morsels) − 1`. With one worker
/// the exchange is a pure passthrough, so inserting the node is free for
/// serial execution.
fn insert_exchanges(plan: PhysicalPlan) -> PhysicalPlan {
    if is_parallel_region(&plan) {
        let (est_rows, est_cost) = (plan.est_rows, plan.est_cost);
        return PhysicalPlan {
            schema: plan.schema.clone(),
            op: PhysOp::Exchange {
                input: Box::new(plan),
            },
            est_rows,
            est_cost,
        };
    }
    let PhysicalPlan {
        op,
        schema,
        est_rows,
        est_cost,
    } = plan;
    let op = match op {
        PhysOp::Filter { input, predicate } => PhysOp::Filter {
            input: Box::new(insert_exchanges(*input)),
            predicate,
        },
        PhysOp::Project { input, exprs } => PhysOp::Project {
            input: Box::new(insert_exchanges(*input)),
            exprs,
        },
        PhysOp::NestedLoopJoin { left, right, on } => PhysOp::NestedLoopJoin {
            left: Box::new(insert_exchanges(*left)),
            right: Box::new(insert_exchanges(*right)),
            on,
        },
        PhysOp::HashJoin {
            left,
            right,
            left_key,
            right_key,
            residual,
        } => PhysOp::HashJoin {
            left: Box::new(insert_exchanges(*left)),
            right: Box::new(insert_exchanges(*right)),
            left_key,
            right_key,
            residual,
        },
        PhysOp::Aggregate {
            input,
            group_exprs,
            aggs,
        } => PhysOp::Aggregate {
            input: Box::new(insert_exchanges(*input)),
            group_exprs,
            aggs,
        },
        PhysOp::Sort { input, keys } => PhysOp::Sort {
            input: Box::new(insert_exchanges(*input)),
            keys,
        },
        PhysOp::Limit { input, n } => PhysOp::Limit {
            input: Box::new(insert_exchanges(*input)),
            n,
        },
        leaf @ (PhysOp::SeqScan { .. }
        | PhysOp::IndexScan { .. }
        | PhysOp::Values { .. }
        | PhysOp::Exchange { .. }) => leaf,
    };
    PhysicalPlan {
        op,
        schema,
        est_rows,
        est_cost,
    }
}

/// Narrow every scan in `plan` to the table columns some operator above
/// it uses, top-down. `needed` flags the columns of `plan.schema` that
/// `plan`'s parent reads; a node adds the columns its own expressions
/// read (resolved as `vexpr::compile` resolves them, so no column an
/// expression compiles to is ever dropped) and hands each child its
/// share. Scans keep the flagged columns; filters, sorts, limits,
/// exchanges and joins then take their schemas from their pruned inputs.
/// Projections and aggregates compute their outputs, so their schemas —
/// the root's among them — never change. Plan shape and estimates are
/// untouched.
fn prune_columns(plan: &mut PhysicalPlan, mut needed: Vec<bool>) {
    let schema = &mut plan.schema;
    match &mut plan.op {
        PhysOp::SeqScan { cols, filter, .. } | PhysOp::IndexScan { cols, filter, .. } => {
            mark_columns(filter.iter(), schema, &mut needed);
            if needed.contains(&false) {
                let keep: Vec<usize> = (0..needed.len()).filter(|&i| needed[i]).collect();
                *cols = keep.iter().map(|&i| cols[i]).collect();
                *schema = Schema::new(keep.iter().map(|&i| schema.columns()[i].clone()).collect());
            }
        }
        PhysOp::Filter { input, predicate } => {
            mark_columns([&*predicate], &input.schema, &mut needed);
            prune_columns(input, needed);
            narrow_to(schema, &input.schema);
        }
        PhysOp::Sort { input, keys } => {
            mark_columns(keys.iter().map(|k| &k.expr), &input.schema, &mut needed);
            prune_columns(input, needed);
            narrow_to(schema, &input.schema);
        }
        PhysOp::Limit { input, .. } | PhysOp::Exchange { input } => {
            prune_columns(input, needed);
            narrow_to(schema, &input.schema);
        }
        PhysOp::Project { input, exprs } => {
            let mut reads = vec![false; input.schema.len()];
            mark_columns(exprs.iter(), &input.schema, &mut reads);
            prune_columns(input, reads);
        }
        PhysOp::Aggregate {
            input,
            group_exprs,
            aggs,
        } => {
            let mut reads = vec![false; input.schema.len()];
            let args = aggs.iter().filter_map(|a| a.arg.as_ref());
            mark_columns(group_exprs.iter().chain(args), &input.schema, &mut reads);
            prune_columns(input, reads);
        }
        PhysOp::HashJoin {
            left,
            right,
            left_key,
            right_key,
            residual,
        } => {
            mark_columns(residual.iter(), schema, &mut needed);
            let mut right_needs = needed.split_off(left.schema.len());
            mark_columns([&*left_key], &left.schema, &mut needed);
            mark_columns([&*right_key], &right.schema, &mut right_needs);
            prune_columns(left, needed);
            prune_columns(right, right_needs);
            if schema.len() != left.schema.len() + right.schema.len() {
                *schema = left.schema.join(&right.schema);
            }
        }
        PhysOp::NestedLoopJoin { left, right, on } => {
            mark_columns(on.iter(), schema, &mut needed);
            let right_needs = needed.split_off(left.schema.len());
            prune_columns(left, needed);
            prune_columns(right, right_needs);
            if schema.len() != left.schema.len() + right.schema.len() {
                *schema = left.schema.join(&right.schema);
            }
        }
        PhysOp::Values { .. } => {}
    }
}

/// Take `pruned` as a pass-through node's schema. Pruning only drops
/// columns, so an unchanged width is an unchanged schema.
fn narrow_to(schema: &mut Schema, pruned: &Schema) {
    if schema.len() != pruned.len() {
        *schema = pruned.clone();
    }
}

/// Flag in `needed` every column of `schema` that `exprs` reference. A
/// reference that does not resolve flags nothing: compiling it fails
/// with or without the pass.
fn mark_columns<'e>(
    exprs: impl IntoIterator<Item = &'e Expr>,
    schema: &Schema,
    needed: &mut [bool],
) {
    fn mark(e: &Expr, schema: &Schema, needed: &mut [bool]) {
        if let Expr::Column { qualifier, name } = e {
            if let Some(i) = resolve_col(schema, qualifier, name) {
                needed[i] = true;
            }
        }
        for child in e.children() {
            mark(child, schema, needed);
        }
    }
    for e in exprs {
        mark(e, schema, needed);
    }
}

fn dedup_names(columns: &mut [aimdb_common::Column]) {
    let mut seen: HashMap<String, usize> = HashMap::new();
    for c in columns.iter_mut() {
        let key = c.name.to_ascii_lowercase();
        let n = seen.entry(key).or_insert(0);
        if *n > 0 {
            c.name = format!("{}_{}", c.name, n);
        }
        *n += 1;
    }
}

/// Collect aggregate calls in an expression.
fn collect_aggs(e: &Expr, out: &mut Vec<(AggFunc, Option<Expr>)>) {
    if let Expr::Function { name, args } = e {
        if let Some(f) = AggFunc::parse(name) {
            out.push((f, args.first().cloned()));
            return;
        }
    }
    for child in e.children() {
        collect_aggs(child, out);
    }
}

/// Rewrite a select item over the aggregate output schema: aggregate calls
/// become `__aggN` refs, group-by expressions become `__gN` refs.
fn substitute_agg(
    e: &Expr,
    group_raw: &[Expr],
    group_bound: &[Expr],
    aggs: &[(AggFunc, Option<Expr>)],
    input_schema: &Schema,
) -> Result<Expr> {
    // whole expression equals a raw group-by expression?
    for (i, g) in group_raw.iter().enumerate() {
        if e == g {
            return Ok(Expr::col(&format!("__g{i}")));
        }
    }
    // also match against the bound form (qualified spellings)
    if let Ok(bound) = bind_expr(e, input_schema) {
        for (i, g) in group_bound.iter().enumerate() {
            if &bound == g {
                return Ok(Expr::col(&format!("__g{i}")));
            }
        }
    }
    match e {
        Expr::Function { name, args } => {
            if let Some(f) = AggFunc::parse(name) {
                let bound_arg = match args.first() {
                    Some(a) => Some(bind_expr(a, input_schema)?),
                    None => None,
                };
                let idx = aggs
                    .iter()
                    .position(|(uf, ua)| *uf == f && *ua == bound_arg)
                    .ok_or_else(|| AimError::Plan("aggregate not planned".into()))?;
                Ok(Expr::col(&format!("__agg{idx}")))
            } else {
                Ok(Expr::Function {
                    name: name.clone(),
                    args: args
                        .iter()
                        .map(|a| substitute_agg(a, group_raw, group_bound, aggs, input_schema))
                        .collect::<Result<_>>()?,
                })
            }
        }
        Expr::Binary { left, op, right } => Ok(Expr::Binary {
            left: Box::new(substitute_agg(
                left,
                group_raw,
                group_bound,
                aggs,
                input_schema,
            )?),
            op: *op,
            right: Box::new(substitute_agg(
                right,
                group_raw,
                group_bound,
                aggs,
                input_schema,
            )?),
        }),
        Expr::Unary { op, expr } => Ok(Expr::Unary {
            op: *op,
            expr: Box::new(substitute_agg(
                expr,
                group_raw,
                group_bound,
                aggs,
                input_schema,
            )?),
        }),
        Expr::Literal(_) => Ok(e.clone()),
        other => Err(AimError::Plan(format!(
            "expression {other:?} must appear in GROUP BY or be an aggregate"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimdb_common::{Column, DataType};

    fn alias(name: &str) -> AliasInfo {
        AliasInfo {
            alias: name.to_string(),
            table: name.to_string(),
            schema: Schema::new(vec![Column::new(format!("{name}.k"), DataType::Int)]),
            base_rows: 100.0,
        }
    }

    fn scan_of(a: &AliasInfo) -> PhysicalPlan {
        PhysicalPlan {
            op: PhysOp::Values { rows: vec![] },
            schema: a.schema.clone(),
            est_rows: a.base_rows,
            est_cost: 1.0,
        }
    }

    fn edge(l: usize, r: usize) -> JoinEdge {
        JoinEdge {
            left_alias: l,
            left_col: "k".into(),
            right_alias: r,
            right_col: "k".into(),
        }
    }

    #[test]
    fn dp_join_covers_disconnected_graph_when_scans_exist() {
        // With every singleton present, the cross-join fallback still
        // covers a disconnected join graph.
        let catalog = Catalog::new();
        let stats = HashMap::new();
        let planner = Planner::new(&catalog, &stats, &HistogramEstimator);
        let aliases = vec![alias("a"), alias("b"), alias("c")];
        let scans = aliases.iter().map(scan_of).collect();
        let plan = planner
            .dp_join(&aliases, scans, &[edge(0, 1)])
            .expect("cross-join fallback covers alias c");
        assert_eq!(plan.schema.len(), 3);
    }
}
