//! Physical plans and the name binder.
//!
//! Operator output schemas carry *qualified* column names (`alias.col`)
//! below the final projection; the binder rewrites every column reference
//! in every expression to the exact schema spelling so the executor does
//! plain positional lookups at runtime.

use std::fmt;

use aimdb_common::{AimError, Column, Result, Row, Schema, Value};
use aimdb_sql::ast::{AggFunc, OrderKey};
use aimdb_sql::expr::ModelRef;
use aimdb_sql::Expr;

use crate::db::ModelHook;

/// A physical plan node with its estimated cardinality and cost.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    pub op: PhysOp,
    /// Output schema (qualified names below the final project).
    pub schema: Schema,
    pub est_rows: f64,
    pub est_cost: f64,
}

/// One aggregate computation in an Aggregate node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    pub func: AggFunc,
    /// `None` means `COUNT(*)`.
    pub arg: Option<Expr>,
    /// Output column name.
    pub name: String,
}

/// Physical operators.
#[derive(Debug, Clone)]
pub enum PhysOp {
    /// Full-table scan with an optional pushed-down predicate. It reads
    /// the table columns `cols` (indices, ascending) and nothing else: its
    /// schema is the qualified table schema projected on them.
    SeqScan {
        table: String,
        alias: String,
        cols: Vec<usize>,
        filter: Option<Expr>,
    },
    /// B+tree index scan: equality or inclusive range on one column, plus
    /// an optional residual predicate. Reads `cols` as a `SeqScan` does.
    IndexScan {
        table: String,
        alias: String,
        column: String,
        lo: Option<aimdb_common::Value>,
        hi: Option<aimdb_common::Value>,
        cols: Vec<usize>,
        filter: Option<Expr>,
    },
    Filter {
        input: Box<PhysicalPlan>,
        predicate: Expr,
    },
    Project {
        input: Box<PhysicalPlan>,
        exprs: Vec<Expr>,
    },
    NestedLoopJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        on: Option<Expr>,
    },
    HashJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        left_key: Expr,
        right_key: Expr,
        residual: Option<Expr>,
    },
    Aggregate {
        input: Box<PhysicalPlan>,
        group_exprs: Vec<Expr>,
        aggs: Vec<AggExpr>,
    },
    Sort {
        input: Box<PhysicalPlan>,
        keys: Vec<OrderKey>,
    },
    Limit {
        input: Box<PhysicalPlan>,
        n: usize,
    },
    /// Pre-materialized literal rows.
    Values {
        rows: Vec<Row>,
    },
    /// Parallelism boundary: the subtree below (a scan → filter →
    /// project region) may be executed by a pool of morsel-driven
    /// workers whose outputs are merged back in morsel order, so the
    /// emitted row order is identical to serial execution at any worker
    /// count. Schema and row set are a pure passthrough of the input.
    Exchange {
        input: Box<PhysicalPlan>,
    },
}

impl PhysOp {
    /// Every expression this operator evaluates (not its children's).
    fn exprs_mut(&mut self) -> Vec<&mut Expr> {
        match self {
            PhysOp::SeqScan { filter, .. } | PhysOp::IndexScan { filter, .. } => {
                filter.iter_mut().collect()
            }
            PhysOp::Filter { predicate, .. } => vec![predicate],
            PhysOp::Project { exprs, .. } => exprs.iter_mut().collect(),
            PhysOp::NestedLoopJoin { on, .. } => on.iter_mut().collect(),
            PhysOp::HashJoin {
                left_key,
                right_key,
                residual,
                ..
            } => [left_key, right_key].into_iter().chain(residual).collect(),
            PhysOp::Aggregate {
                group_exprs, aggs, ..
            } => group_exprs
                .iter_mut()
                .chain(aggs.iter_mut().filter_map(|a| a.arg.as_mut()))
                .collect(),
            PhysOp::Sort { keys, .. } => keys.iter_mut().map(|k| &mut k.expr).collect(),
            PhysOp::Limit { .. } | PhysOp::Values { .. } | PhysOp::Exchange { .. } => vec![],
        }
    }
}

impl PhysicalPlan {
    /// Human-readable plan tree (EXPLAIN output).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        use fmt::Write;
        let pad = "  ".repeat(depth);
        let line = self.describe();
        let _ = writeln!(
            out,
            "{pad}{line}  (rows≈{:.0} cost≈{:.1})",
            self.est_rows, self.est_cost
        );
        for child in self.children() {
            child.explain_into(out, depth + 1);
        }
    }

    /// One-line description of this node's operator (no estimates, no
    /// children) — shared by `EXPLAIN` and `EXPLAIN ANALYZE` rendering.
    pub fn describe(&self) -> String {
        match &self.op {
            PhysOp::SeqScan { table, filter, .. } => format!(
                "SeqScan {table}{}{}",
                self.describe_cols(),
                filter.as_ref().map_or(String::new(), |f| format!(
                    " filter={}",
                    describe_predicate(f)
                ))
            ),
            PhysOp::IndexScan {
                table,
                column,
                lo,
                hi,
                ..
            } => {
                format!(
                    "IndexScan {table}.{column} {}{}",
                    describe_bounds(lo, hi),
                    self.describe_cols()
                )
            }
            PhysOp::Filter { predicate, .. } => {
                format!("Filter {}", describe_predicate(predicate))
            }
            PhysOp::Project { exprs, .. } => {
                let names: Vec<&str> = self
                    .schema
                    .columns()
                    .iter()
                    .map(|c| c.name.as_str())
                    .collect();
                format!("Project [{}]{}", names.join(", "), describe_models(exprs))
            }
            PhysOp::NestedLoopJoin { on, .. } => match on {
                Some(e) => format!("NestedLoopJoin on {e:?}"),
                None => "NestedLoopJoin (cross)".to_string(),
            },
            PhysOp::HashJoin {
                left_key,
                right_key,
                ..
            } => {
                format!("HashJoin {left_key:?} = {right_key:?}")
            }
            PhysOp::Aggregate {
                group_exprs, aggs, ..
            } => {
                format!(
                    "Aggregate groups={} aggs={}{}",
                    group_exprs.len(),
                    aggs.len(),
                    describe_models(group_exprs.iter().chain(aggs.iter().flat_map(|a| &a.arg)))
                )
            }
            PhysOp::Sort { keys, .. } => format!("Sort ({} keys)", keys.len()),
            PhysOp::Limit { n, .. } => format!("Limit {n}"),
            PhysOp::Values { rows } => format!("Values ({} rows)", rows.len()),
            PhysOp::Exchange { .. } => "Exchange".to_string(),
        }
    }

    /// ` cols=[a, b]`: the table columns a scan reads, by bare name.
    fn describe_cols(&self) -> String {
        let names: Vec<&str> = self
            .schema
            .columns()
            .iter()
            .map(|c| {
                c.name
                    .split_once('.')
                    .map_or(c.name.as_str(), |(_, bare)| bare)
            })
            .collect();
        format!(" cols=[{}]", names.join(", "))
    }

    /// Child plans, left to right.
    pub fn children(&self) -> Vec<&PhysicalPlan> {
        match &self.op {
            PhysOp::SeqScan { .. } | PhysOp::IndexScan { .. } | PhysOp::Values { .. } => vec![],
            PhysOp::Filter { input, .. }
            | PhysOp::Project { input, .. }
            | PhysOp::Aggregate { input, .. }
            | PhysOp::Sort { input, .. }
            | PhysOp::Limit { input, .. }
            | PhysOp::Exchange { input } => vec![input],
            PhysOp::NestedLoopJoin { left, right, .. } | PhysOp::HashJoin { left, right, .. } => {
                vec![left, right]
            }
        }
    }

    fn children_mut(&mut self) -> Vec<&mut PhysicalPlan> {
        match &mut self.op {
            PhysOp::SeqScan { .. } | PhysOp::IndexScan { .. } | PhysOp::Values { .. } => vec![],
            PhysOp::Filter { input, .. }
            | PhysOp::Project { input, .. }
            | PhysOp::Aggregate { input, .. }
            | PhysOp::Sort { input, .. }
            | PhysOp::Limit { input, .. }
            | PhysOp::Exchange { input } => vec![input],
            PhysOp::NestedLoopJoin { left, right, .. } | PhysOp::HashJoin { left, right, .. } => {
                vec![left, right]
            }
        }
    }

    /// Total number of operators.
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
    }
}

/// An index probe's key interval as EXPLAIN prints it: `= v` for a point,
/// `[lo..hi]` otherwise, an open end left blank.
fn describe_bounds(lo: &Option<Value>, hi: &Option<Value>) -> String {
    let end = |v: &Option<Value>| v.as_ref().map_or(String::new(), Value::to_string);
    match (lo, hi) {
        (Some(l), Some(h)) if l == h => format!("= {l}"),
        _ => format!("[{}..{}]", end(lo), end(hi)),
    }
}

/// Cost units one row pays for the scalar function calls in `e`; 0 for
/// an expression that calls none. Inference is priced an order of
/// magnitude above a built-in: the planner uses the figure both to charge
/// scans and to order a filter's conjuncts cheapest first.
pub fn call_cost(e: &Expr) -> f64 {
    const BUILTIN: f64 = 0.002;
    const PREDICT: f64 = 0.05;
    let own = match e {
        Expr::Predict { .. } => PREDICT,
        Expr::Function { name, .. } if name.eq_ignore_ascii_case("PREDICT") => PREDICT,
        Expr::Function { .. } => BUILTIN,
        _ => 0.0,
    };
    own + e.children().into_iter().map(call_cost).sum::<f64>()
}

/// A predicate as `EXPLAIN` prints it. One that calls functions is
/// printed conjunct by conjunct in evaluation order — the order the
/// planner chose by [`call_cost`] — since each conjunct only sees the rows
/// the ones before it let through.
fn describe_predicate(p: &Expr) -> String {
    if call_cost(p) == 0.0 {
        return format!("{p:?}");
    }
    let conjuncts: Vec<String> = p.conjuncts().iter().map(|c| format!("{c:?}")).collect();
    format!("[{}]", conjuncts.join(" THEN "))
}

/// ` models=[…]` naming the model versions `exprs` predict with; empty
/// when they use none. (Predicates print theirs inline.)
fn describe_models<'a>(exprs: impl IntoIterator<Item = &'a Expr>) -> String {
    fn collect<'a>(e: &'a Expr, out: &mut Vec<&'a ModelRef>) {
        if let Expr::Predict { model, .. } = e {
            if !out.contains(&model) {
                out.push(model);
            }
        }
        for child in e.children() {
            collect(child, out);
        }
    }
    let mut models = Vec::new();
    for e in exprs {
        collect(e, &mut models);
    }
    if models.is_empty() {
        String::new()
    } else {
        format!(" models={models:?}")
    }
}

/// Bind every `PREDICT(model, args…)` in the plan to the model version
/// `models` currently serves, replacing the by-name call with
/// [`Expr::Predict`]; says whether there was any. Each model is looked up
/// once, however often the statement calls it, so all its calls share
/// one version. An unknown model or a wrong argument count fails here,
/// before any row is read.
pub fn bind_models(plan: &mut PhysicalPlan, models: Option<&dyn ModelHook>) -> Result<bool> {
    let mut bound = Vec::new();
    bind_models_node(plan, models, &mut bound)?;
    Ok(!bound.is_empty())
}

fn bind_models_node(
    plan: &mut PhysicalPlan,
    models: Option<&dyn ModelHook>,
    bound: &mut Vec<ModelRef>,
) -> Result<()> {
    for e in plan.op.exprs_mut() {
        bind_models_expr(e, models, bound)?;
    }
    for child in plan.children_mut() {
        bind_models_node(child, models, bound)?;
    }
    Ok(())
}

fn bind_models_expr(
    e: &mut Expr,
    models: Option<&dyn ModelHook>,
    bound: &mut Vec<ModelRef>,
) -> Result<()> {
    for child in e.children_mut() {
        bind_models_expr(child, models, bound)?;
    }
    let Expr::Function { name, args } = e else {
        return Ok(());
    };
    if !name.eq_ignore_ascii_case("PREDICT") {
        return Ok(());
    }
    // `bind_expr` already turned the model name into a text literal
    let Some(Expr::Literal(Value::Text(name))) = args.first() else {
        return Err(AimError::Model("PREDICT needs a model name".into()));
    };
    let arity = args.len() - 1;
    let seen = bound
        .iter()
        .find(|m| m.0.name().eq_ignore_ascii_case(name) && m.0.arity() == arity);
    let model = match seen {
        Some(model) => model.clone(),
        None => {
            let hook =
                models.ok_or_else(|| AimError::Model("no model runtime registered".into()))?;
            let model = ModelRef(hook.bind(name, arity)?);
            bound.push(model.clone());
            model
        }
    };
    *e = Expr::Predict {
        model,
        args: args.split_off(1),
    };
    Ok(())
}

/// Resolve every column reference in `expr` to the exact spelling used by
/// `schema`, so the executor can evaluate by direct name lookup.
///
/// Resolution order for a bare name: exact match, then unique `*.name`
/// suffix match (ambiguity is an error). Qualified names must match
/// `qualifier.name` exactly.
pub fn bind_expr(expr: &Expr, schema: &Schema) -> Result<Expr> {
    let out = match expr {
        Expr::Column { qualifier, name } => {
            let spelling = resolve_column(schema, qualifier.as_deref(), name)?;
            Expr::Column {
                qualifier: None,
                name: spelling,
            }
        }
        Expr::Literal(v) => Expr::Literal(v.clone()),
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(bind_expr(left, schema)?),
            op: *op,
            right: Box::new(bind_expr(right, schema)?),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(bind_expr(expr, schema)?),
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(bind_expr(expr, schema)?),
            negated: *negated,
        },
        Expr::Between { expr, lo, hi } => Expr::Between {
            expr: Box::new(bind_expr(expr, schema)?),
            lo: Box::new(bind_expr(lo, schema)?),
            hi: Box::new(bind_expr(hi, schema)?),
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(bind_expr(expr, schema)?),
            list: list
                .iter()
                .map(|e| bind_expr(e, schema))
                .collect::<Result<_>>()?,
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(bind_expr(expr, schema)?),
            pattern: pattern.clone(),
            negated: *negated,
        },
        Expr::Function { name, args } => {
            // PREDICT's first argument is a model name, not a column
            if name.eq_ignore_ascii_case("PREDICT") && !args.is_empty() {
                let mut bound = Vec::with_capacity(args.len());
                if let Expr::Column { name: model, .. } = &args[0] {
                    bound.push(Expr::Literal(aimdb_common::Value::Text(model.clone())));
                } else {
                    bound.push(bind_expr(&args[0], schema)?);
                }
                for a in &args[1..] {
                    bound.push(bind_expr(a, schema)?);
                }
                Expr::Function {
                    name: name.clone(),
                    args: bound,
                }
            } else {
                Expr::Function {
                    name: name.clone(),
                    args: args
                        .iter()
                        .map(|a| bind_expr(a, schema))
                        .collect::<Result<_>>()?,
                }
            }
        }
        Expr::Predict { model, args } => Expr::Predict {
            model: model.clone(),
            args: args
                .iter()
                .map(|a| bind_expr(a, schema))
                .collect::<Result<_>>()?,
        },
    };
    Ok(out)
}

/// Find the exact schema spelling of a (possibly qualified) column name.
pub fn resolve_column(schema: &Schema, qualifier: Option<&str>, name: &str) -> Result<String> {
    match qualifier {
        Some(q) => {
            let want = format!("{q}.{name}");
            if let Some(c) = schema
                .columns()
                .iter()
                .find(|c| c.name.eq_ignore_ascii_case(&want))
            {
                return Ok(c.name.clone());
            }
            // Projection outputs carry bare display names (`d.d_year`
            // projects as `d_year`), so a qualified reference in ORDER BY
            // over an aggregate/projection scope falls back to the bare
            // name when that is unambiguous.
            let bare: Vec<&Column> = schema
                .columns()
                .iter()
                .filter(|c| c.name.eq_ignore_ascii_case(name))
                .collect();
            match bare.len() {
                1 => Ok(bare[0].name.clone()),
                0 => Err(AimError::NotFound(format!("column {want}"))),
                _ => Err(AimError::Plan(format!("ambiguous column {want}"))),
            }
        }
        None => {
            if let Some(c) = schema
                .columns()
                .iter()
                .find(|c| c.name.eq_ignore_ascii_case(name))
            {
                return Ok(c.name.clone());
            }
            let suffix = format!(".{}", name.to_ascii_lowercase());
            let matches: Vec<&Column> = schema
                .columns()
                .iter()
                .filter(|c| c.name.to_ascii_lowercase().ends_with(&suffix))
                .collect();
            match matches.len() {
                1 => Ok(matches[0].name.clone()),
                0 => Err(AimError::NotFound(format!("column {name}"))),
                _ => Err(AimError::Plan(format!("ambiguous column {name}"))),
            }
        }
    }
}

/// Resolve a column reference the way `vexpr::compile` does: the
/// qualified spelling first, then the bare name.
pub(crate) fn resolve_col(
    schema: &Schema,
    qualifier: &Option<String>,
    name: &str,
) -> Option<usize> {
    let qualified = qualifier
        .as_ref()
        .and_then(|q| schema.index_of(&format!("{q}.{name}")).ok());
    qualified.or_else(|| schema.index_of(name).ok())
}

/// Qualify a table schema with an alias: `col` becomes `alias.col`.
pub fn qualify_schema(schema: &Schema, alias: &str) -> Schema {
    Schema::new(
        schema
            .columns()
            .iter()
            .map(|c| {
                let mut c2 = c.clone();
                c2.name = format!("{alias}.{}", c.name);
                c2
            })
            .collect(),
    )
}

/// A display name for a select item without an alias: bare column name for
/// simple references, otherwise a positional name.
pub fn default_output_name(expr: &Expr, position: usize) -> String {
    match expr {
        Expr::Column { name, .. } => match name.rsplit_once('.') {
            Some((_, bare)) => bare.to_string(),
            None => name.clone(),
        },
        Expr::Function { name, .. } => name.to_ascii_lowercase(),
        _ => format!("col{position}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimdb_common::DataType;
    use aimdb_sql::expr::BinaryOp;

    fn joined_schema() -> Schema {
        Schema::from_pairs(&[
            ("a.id", DataType::Int),
            ("a.x", DataType::Int),
            ("b.id", DataType::Int),
            ("b.y", DataType::Float),
        ])
    }

    #[test]
    fn bind_qualified_and_bare() {
        let s = joined_schema();
        let e = bind_expr(&Expr::qcol("a", "x"), &s).unwrap();
        assert_eq!(e, Expr::col("a.x"));
        let e = bind_expr(&Expr::col("y"), &s).unwrap();
        assert_eq!(e, Expr::col("b.y"));
    }

    #[test]
    fn bind_detects_ambiguity_and_missing() {
        let s = joined_schema();
        assert!(matches!(
            bind_expr(&Expr::col("id"), &s),
            Err(AimError::Plan(_))
        ));
        assert!(matches!(
            bind_expr(&Expr::col("zz"), &s),
            Err(AimError::NotFound(_))
        ));
        assert!(bind_expr(&Expr::qcol("c", "id"), &s).is_err());
    }

    #[test]
    fn bind_recurses_into_compound_exprs() {
        let s = joined_schema();
        let e = Expr::binary(Expr::col("x"), BinaryOp::Add, Expr::qcol("b", "y"));
        let bound = bind_expr(&e, &s).unwrap();
        assert_eq!(
            bound,
            Expr::binary(Expr::col("a.x"), BinaryOp::Add, Expr::col("b.y"))
        );
    }

    #[test]
    fn predict_model_arg_becomes_literal() {
        let s = joined_schema();
        let e = Expr::Function {
            name: "PREDICT".into(),
            args: vec![Expr::col("mymodel"), Expr::col("x")],
        };
        let bound = bind_expr(&e, &s).unwrap();
        match bound {
            Expr::Function { args, .. } => {
                assert_eq!(args[0], Expr::lit("mymodel"));
                assert_eq!(args[1], Expr::col("a.x"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn qualify_and_output_names() {
        let s = Schema::from_pairs(&[("id", DataType::Int)]);
        let q = qualify_schema(&s, "t");
        assert_eq!(q.columns()[0].name, "t.id");
        assert_eq!(default_output_name(&Expr::col("t.id"), 0), "id");
        assert_eq!(default_output_name(&Expr::lit(1i64), 3), "col3");
    }
}
