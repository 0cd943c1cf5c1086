//! # aimdb-oracle
//!
//! A reference row interpreter for the engine's physical plans: every
//! operator materializes its whole output as `Vec<Row>`. No `Database`
//! path reaches it; the engine's only plan interpreter is
//! [`aimdb_engine::execute_batched_parallel`]. It exists so tests and
//! harnesses can diff that executor against an implementation that
//! shares none of its machinery:
//! - `aimdb-engine`'s `exec_differential` compares results and errors
//!   on generated and hand-written corpora;
//! - `exec_bench`'s A5 report checks that the two agree on rows;
//! - the harness's E16 per-row-UDF arm resolves `PREDICT` by name
//!   through the context's function registry, one row per call;
//! - [`dml`] is the row-at-a-time reference for UPDATE and DELETE, which
//!   `aimdb-engine`'s `dml_differential` diffs the engine's writes
//!   against.
//!
//! It is independent by construction: it calls only the engine's public
//! catalog, index, heap and plan API and the context's catalog, function
//! registry and snapshot, and it folds aggregates with a fold of its
//! own; a scan reads whole rows and projects them on the plan's columns
//! itself. Expressions go through its own row evaluator, [`RowEval`]
//! (the product has only the batch kernels): `eval_predicate` walks a
//! plan's conjuncts in the planner's order and stops at the first that
//! is not TRUE, the row form of the batch executor's selection-vector
//! cascade. It shares with the kernels only the per-value rules of
//! `aimdb_sql::expr` (`eval_binary`, `like_match`). `aimdb-sql`'s
//! `vexpr_proptests` diff those kernels against [`RowEval`] directly. It
//! charges no cost units.

mod eval;

pub use eval::RowEval;

use std::collections::HashMap;

use aimdb_common::{AimError, Result, Row, Schema, Value};
use aimdb_engine::exec::ExecContext;
use aimdb_engine::plan::{bind_expr, AggExpr, PhysOp, PhysicalPlan};
use aimdb_engine::{Catalog, Snapshot};
use aimdb_sql::ast::AggFunc;
use aimdb_sql::{Expr, ScalarFns};

/// Execute a physical plan to completion.
pub fn execute(plan: &PhysicalPlan, ctx: &ExecContext) -> Result<Vec<Row>> {
    match &plan.op {
        PhysOp::SeqScan {
            table,
            cols,
            filter,
            ..
        } => {
            let t = ctx.catalog.table(table)?;
            let rows = t.scan_visible(ctx.snapshot())?;
            // the scan's schema covers only the columns it reads
            let rows = rows.into_iter().map(|(_, r)| r.project(cols));
            match filter {
                Some(f) => keep_where(rows, |r| f.eval_predicate(&plan.schema, r, ctx.fns)),
                None => Ok(rows.collect()),
            }
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
            let mut rids = match (lo, hi) {
                (Some(l), Some(h)) if l == h => idx.lookup(l),
                (l, h) => {
                    let lo_v = l.clone().unwrap_or(Value::Float(f64::NEG_INFINITY));
                    let hi_v = h.clone().unwrap_or(Value::Float(f64::INFINITY));
                    idx.range(&lo_v, &hi_v)
                }
            };
            t.retain_visible(&mut rids, ctx.snapshot());
            let mut out = Vec::with_capacity(rids.len());
            for rid in rids {
                if let Some(row) = t.heap.get(rid)? {
                    let row = row.project(cols);
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
            keep_where(rows, |r| {
                predicate.eval_predicate(&input.schema, r, ctx.fns)
            })
        }
        PhysOp::Project { input, exprs } => {
            let rows = execute(input, ctx)?;
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
            let mut out = Vec::new();
            for l in &lrows {
                for r in &rrows {
                    let joined = join(l, r);
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
                        let joined = if build_is_left {
                            join(b, p)
                        } else {
                            join(p, b)
                        };
                        let keep = match residual {
                            Some(r) => r.eval_predicate(&plan.schema, &joined, ctx.fns)?,
                            None => true,
                        };
                        if keep {
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
            aggregate(&rows, &input.schema, group_exprs, aggs, ctx)
        }
        PhysOp::Sort { input, keys } => {
            let mut rows = execute(input, ctx)?;
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
        // parallelism is a batch-pipeline concern, and the region below
        // emits the same rows in the same order either way
        PhysOp::Exchange { input } => execute(input, ctx),
    }
}

/// What an UPDATE (with its SET list) or a DELETE (without one) on
/// `table` writes, found a row at a time: every version `snap` sees of
/// the table (the latest committed without one), in heap order, that the
/// WHERE accepts, its conjuncts put to the row in the order written. Each
/// comes with the row an UPDATE replaces it by (the SET list applied in
/// order, every expression evaluated on the old row, the result coerced by
/// the table schema) or `None` for a DELETE. Functions, `PREDICT`
/// included, go through `fns` by name, one row per call. A row's WHERE,
/// SET and coercion run before the next row is looked at, and the first
/// error fails the statement.
pub fn dml(
    catalog: &Catalog,
    table: &str,
    set: Option<&[(String, Expr)]>,
    where_clause: Option<&Expr>,
    fns: &dyn ScalarFns,
    snap: Option<Snapshot>,
) -> Result<Vec<(Row, Option<Row>)>> {
    let t = catalog.table(table)?;
    let schema = &t.schema;
    let pred = where_clause.map(|w| bind_expr(w, schema)).transpose()?;
    let set = set
        .map(|set| {
            set.iter()
                .map(|(c, e)| Ok((schema.index_of(c)?, bind_expr(e, schema)?)))
                .collect::<Result<Vec<_>>>()
        })
        .transpose()?;
    let mut out = Vec::new();
    for (_, row) in t.scan_visible(snap)? {
        if let Some(p) = &pred {
            if !p.eval_predicate(schema, &row, fns)? {
                continue;
            }
        }
        let after = match &set {
            None => None,
            Some(set) => {
                let mut vals = row.values().to_vec();
                for (ci, e) in set {
                    vals[*ci] = e.eval(schema, &row, fns)?;
                }
                Some(Row::new(schema.check_row(vals)?))
            }
        };
        out.push((row, after));
    }
    Ok(out)
}

/// The rows `pred` admits, in order; the first error stops the scan.
fn keep_where(
    rows: impl IntoIterator<Item = Row>,
    pred: impl Fn(&Row) -> Result<bool>,
) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    for r in rows {
        if pred(&r)? {
            out.push(r);
        }
    }
    Ok(out)
}

/// A join output row: `left`'s values, then `right`'s.
fn join(left: &Row, right: &Row) -> Row {
    let mut values = Vec::with_capacity(left.len() + right.len());
    values.extend_from_slice(left.values());
    values.extend_from_slice(right.values());
    Row::new(values)
}

/// One aggregate's running state, with the executor's documented
/// semantics:
/// - COUNT(*) counts rows; every other argument skips NULLs;
/// - SUM and AVG add Int arguments into an exact `i128` and any other
///   into an `f64`, and add the two once, at the end;
/// - MIN and MAX replace only a strictly smaller or larger value, so the
///   first value seen wins a tie.
struct Fold {
    func: AggFunc,
    /// Rows (COUNT(*)) or non-NULL arguments seen.
    n: u64,
    int_total: i128,
    other_total: f64,
    best: Option<Value>,
}

impl Fold {
    fn new(func: AggFunc) -> Fold {
        Fold {
            func,
            n: 0,
            int_total: 0,
            other_total: 0.0,
            best: None,
        }
    }

    /// Fold in one row's argument (`None` for COUNT(*)).
    fn add(&mut self, arg: Option<Value>) -> Result<()> {
        let v = match arg {
            None if self.func == AggFunc::Count => {
                self.n += 1;
                return Ok(());
            }
            None | Some(Value::Null) => return Ok(()),
            Some(v) => v,
        };
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => match v {
                Value::Int(x) => self.int_total += i128::from(x),
                v => self.other_total += v.as_f64()?,
            },
            AggFunc::Min => {
                if self.best.as_ref().is_none_or(|b| v < *b) {
                    self.best = Some(v);
                }
            }
            AggFunc::Max => {
                if self.best.as_ref().is_none_or(|b| v > *b) {
                    self.best = Some(v);
                }
            }
        }
        self.n += 1;
        Ok(())
    }

    /// The aggregate's value: COUNT is an Int, SUM a Float (0 over no
    /// rows), AVG a Float or NULL over no rows, MIN/MAX the kept value
    /// or NULL.
    fn finish(self) -> Value {
        let total = self.int_total as f64 + self.other_total;
        match self.func {
            AggFunc::Count => Value::Int(self.n as i64),
            AggFunc::Sum => Value::Float(total),
            AggFunc::Avg if self.n == 0 => Value::Null,
            AggFunc::Avg => Value::Float(total / self.n as f64),
            AggFunc::Min | AggFunc::Max => self.best.unwrap_or(Value::Null),
        }
    }
}

/// Group `rows` by `group_exprs` in first-seen order and fold `aggs`
/// over each group. A global aggregate over zero rows yields one row.
fn aggregate(
    rows: &[Row],
    schema: &Schema,
    group_exprs: &[aimdb_sql::Expr],
    aggs: &[AggExpr],
    ctx: &ExecContext,
) -> Result<Vec<Row>> {
    let new_folds = || aggs.iter().map(|a| Fold::new(a.func)).collect::<Vec<_>>();
    let mut slot: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut groups: Vec<(Vec<Value>, Vec<Fold>)> = Vec::new();
    if group_exprs.is_empty() {
        groups.push((Vec::new(), new_folds()));
        slot.insert(Vec::new(), 0);
    }
    for r in rows {
        let key: Vec<Value> = group_exprs
            .iter()
            .map(|g| g.eval(schema, r, ctx.fns))
            .collect::<Result<_>>()?;
        let g = match slot.get(&key) {
            Some(&g) => g,
            None => {
                slot.insert(key.clone(), groups.len());
                groups.push((key, new_folds()));
                groups.len() - 1
            }
        };
        for (fold, a) in groups[g].1.iter_mut().zip(aggs) {
            let arg = match &a.arg {
                Some(e) => Some(e.eval(schema, r, ctx.fns)?),
                None => None,
            };
            fold.add(arg)?;
        }
    }
    Ok(groups
        .into_iter()
        .map(|(mut vals, folds)| {
            vals.extend(folds.into_iter().map(Fold::finish));
            Row::new(vals)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fold(func: AggFunc, args: &[Option<Value>]) -> Value {
        let mut f = Fold::new(func);
        for a in args {
            f.add(a.clone()).expect("add");
        }
        f.finish()
    }

    #[test]
    fn count_star_counts_rows_and_count_x_skips_nulls() {
        let args = [Some(Value::Int(1)), Some(Value::Null), Some(Value::Int(3))];
        assert_eq!(fold(AggFunc::Count, &args), Value::Int(2));
        assert_eq!(fold(AggFunc::Count, &[None, None, None]), Value::Int(3));
    }

    #[test]
    fn int_sums_are_exact_and_added_to_the_float_total_once() {
        let big = Some(Value::Int(1 << 53));
        let one = Some(Value::Int(1));
        let half = Some(Value::Float(0.5));
        assert_eq!(
            fold(AggFunc::Sum, &[big.clone(), one.clone(), one.clone()]),
            Value::Float(((1i64 << 53) + 2) as f64)
        );
        assert_eq!(
            fold(AggFunc::Avg, &[one.clone(), half, Some(Value::Null)]),
            Value::Float(0.75)
        );
        assert_eq!(fold(AggFunc::Sum, &[]), Value::Float(0.0));
        assert_eq!(fold(AggFunc::Avg, &[Some(Value::Null)]), Value::Null);
        assert!(Fold::new(AggFunc::Sum)
            .add(Some(Value::Text("x".into())))
            .is_err());
    }

    #[test]
    fn min_max_keep_the_first_of_equal_values() {
        // Int(2) and Float(2.0) compare equal: the first one seen stays
        let args = [
            Some(Value::Int(2)),
            Some(Value::Float(2.0)),
            Some(Value::Null),
        ];
        assert_eq!(fold(AggFunc::Min, &args), Value::Int(2));
        assert_eq!(fold(AggFunc::Max, &args), Value::Int(2));
        assert_eq!(fold(AggFunc::Min, &[Some(Value::Null)]), Value::Null);
    }

    #[test]
    fn join_concatenates_left_then_right() {
        let l = Row::new(vec![Value::Int(1), Value::Int(2)]);
        let r = Row::new(vec![Value::Text("x".into())]);
        assert_eq!(
            join(&l, &r).values(),
            &[Value::Int(1), Value::Int(2), Value::Text("x".into())]
        );
    }
}
