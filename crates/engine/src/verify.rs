//! Static plan verification.
//!
//! `verify` walks a [`PhysicalPlan`] bottom-up and checks it against the
//! catalog *before* execution: every column reference must resolve, every
//! predicate must be boolean-typed, join keys must be comparable, operator
//! schemas must be wired consistently (a `Filter` cannot change its
//! input's schema, a `Project` must emit exactly one column per
//! expression), and aggregate/index arguments must be well-typed. A plan
//! that passes cannot fail at runtime with a name-resolution or
//! type-dispatch error — the class of bug a learned planner (or a planner
//! refactor) is most likely to introduce. A scan may read fewer columns
//! than its table has; an operator above it that uses a column it
//! dropped is an unresolved column. A bound `PREDICT` is checked
//! here too (argument count against the model, no text arguments), and
//! the planner runs the verifier on every plan that carries one, in every
//! build: a model error must not wait for the first row.
//!
//! ## Type reliability
//!
//! The planner types *computed* output columns nominally as `Float`
//! (projection items, `__g{i}`/`__agg{i}` aggregate columns), so declared
//! operator schemas above a projection or aggregation do not carry true
//! types. The verifier therefore tracks its own per-column type lattice:
//! `Some(t)` where the type is statically known (scan columns, inferred
//! expression results), `None` where it is not. Strict type checks only
//! fire on known types — an unknown type is compatible with everything,
//! which keeps the verifier free of false positives at the cost of some
//! completeness above aggregations.
//!
//! The executor gates every plan through `verify` in debug builds (see
//! `Database::run_plan`), and `scripts/check.sh` sweeps a ~1k-query
//! synthetic corpus through it in release.

use aimdb_common::{AimError, DataType, Result, Schema, Value};
use aimdb_sql::ast::AggFunc;
use aimdb_sql::expr::{BinaryOp, UnaryOp};
use aimdb_sql::Expr;

use crate::catalog::Catalog;
use crate::plan::{qualify_schema, PhysOp, PhysicalPlan};

/// Verify a physical plan against the catalog. Returns the first
/// inconsistency found as an `AimError::Plan` with a precise diagnostic.
pub fn verify(plan: &PhysicalPlan, catalog: &Catalog) -> Result<()> {
    check_node(plan, catalog).map(|_| ())
}

/// Statically-known column types for an operator's output, parallel to
/// its schema. `None` = unknown (nominal typing above aggregations).
type ColTypes = Vec<Option<DataType>>;

fn err(op: &str, detail: impl Into<String>) -> AimError {
    AimError::Plan(format!("verify: {op}: {}", detail.into()))
}

fn check_node(plan: &PhysicalPlan, catalog: &Catalog) -> Result<ColTypes> {
    match &plan.op {
        PhysOp::SeqScan {
            table,
            alias,
            cols,
            filter,
        } => {
            let types = check_scan_schema("SeqScan", catalog, table, alias, cols, &plan.schema)?;
            if let Some(f) = filter {
                check_predicate("SeqScan filter", f, &plan.schema, &types)?;
            }
            Ok(types)
        }
        PhysOp::IndexScan {
            table,
            alias,
            column,
            lo,
            hi,
            cols,
            filter,
        } => {
            let types = check_scan_schema("IndexScan", catalog, table, alias, cols, &plan.schema)?;
            let t = catalog.table(table)?;
            let col_idx = t
                .schema
                .index_of(column)
                .map_err(|_| err("IndexScan", format!("no column {column} in table {table}")))?;
            if t.index_on(column).is_none() {
                return Err(err("IndexScan", format!("no index on {table}.{column}")));
            }
            let col_type = t.schema.columns()[col_idx].data_type;
            for (which, bound) in [("lo", lo), ("hi", hi)] {
                if let Some(v) = bound {
                    if !value_matches(v, col_type) {
                        return Err(err(
                            "IndexScan",
                            format!(
                                "{which} bound {v} is incomparable with {table}.{column}: {col_type:?}"
                            ),
                        ));
                    }
                }
            }
            if let Some(f) = filter {
                check_predicate("IndexScan filter", f, &plan.schema, &types)?;
            }
            Ok(types)
        }
        PhysOp::Filter { input, predicate } => {
            let types = check_node(input, catalog)?;
            check_schema_passthrough("Filter", &plan.schema, &input.schema)?;
            check_predicate("Filter", predicate, &input.schema, &types)?;
            Ok(types)
        }
        PhysOp::Project { input, exprs } => {
            let in_types = check_node(input, catalog)?;
            if plan.schema.len() != exprs.len() {
                return Err(err(
                    "Project",
                    format!(
                        "schema has {} column(s) but {} expression(s)",
                        plan.schema.len(),
                        exprs.len()
                    ),
                ));
            }
            exprs
                .iter()
                .map(|e| {
                    let t = infer_expr("Project", e, &input.schema, &in_types)?;
                    check_batch_compile("Project", e, &input.schema)?;
                    Ok(t)
                })
                .collect()
        }
        PhysOp::NestedLoopJoin { left, right, on } => {
            let lt = check_node(left, catalog)?;
            let rt = check_node(right, catalog)?;
            let types = check_join_schema("NestedLoopJoin", plan, left, right, lt, rt)?;
            if let Some(p) = on {
                check_predicate("NestedLoopJoin on", p, &plan.schema, &types)?;
            }
            Ok(types)
        }
        PhysOp::HashJoin {
            left,
            right,
            left_key,
            right_key,
            residual,
        } => {
            let lt = check_node(left, catalog)?;
            let rt = check_node(right, catalog)?;
            let lk = infer_expr("HashJoin left key", left_key, &left.schema, &lt)?;
            let rk = infer_expr("HashJoin right key", right_key, &right.schema, &rt)?;
            check_batch_compile("HashJoin left key", left_key, &left.schema)?;
            check_batch_compile("HashJoin right key", right_key, &right.schema)?;
            if let (Some(a), Some(b)) = (lk, rk) {
                if !comparable(a, b) {
                    return Err(err(
                        "HashJoin",
                        format!(
                            "join keys disagree: {left_key:?} is {a:?} but {right_key:?} is {b:?}"
                        ),
                    ));
                }
            }
            let types = check_join_schema("HashJoin", plan, left, right, lt, rt)?;
            if let Some(p) = residual {
                check_predicate("HashJoin residual", p, &plan.schema, &types)?;
            }
            Ok(types)
        }
        PhysOp::Aggregate {
            input,
            group_exprs,
            aggs,
        } => {
            let in_types = check_node(input, catalog)?;
            let expected = group_exprs.len() + aggs.len();
            if plan.schema.len() != expected {
                return Err(err(
                    "Aggregate",
                    format!(
                        "schema has {} column(s) but {} group(s) + {} aggregate(s)",
                        plan.schema.len(),
                        group_exprs.len(),
                        aggs.len()
                    ),
                ));
            }
            let mut out = Vec::with_capacity(expected);
            for g in group_exprs {
                let t = infer_expr("Aggregate group key", g, &input.schema, &in_types)?;
                check_batch_compile("Aggregate group key", g, &input.schema)?;
                out.push(t);
            }
            for a in aggs {
                let arg_type = match (&a.arg, a.func) {
                    (None, AggFunc::Count) => None,
                    (None, f) => {
                        return Err(err(
                            "Aggregate",
                            format!("{f:?} requires an argument (only COUNT may take *)"),
                        ))
                    }
                    (Some(e), _) => {
                        let t = infer_expr("Aggregate argument", e, &input.schema, &in_types)?;
                        check_batch_compile("Aggregate argument", e, &input.schema)?;
                        t
                    }
                };
                if matches!(a.func, AggFunc::Sum | AggFunc::Avg) && arg_type == Some(DataType::Text)
                {
                    return Err(err(
                        "Aggregate",
                        format!("{:?} over Text argument {:?}", a.func, a.arg),
                    ));
                }
                out.push(match a.func {
                    AggFunc::Count => Some(DataType::Int),
                    AggFunc::Sum | AggFunc::Avg => Some(DataType::Float),
                    AggFunc::Min | AggFunc::Max => arg_type,
                });
            }
            Ok(out)
        }
        PhysOp::Sort { input, keys } => {
            let types = check_node(input, catalog)?;
            check_schema_passthrough("Sort", &plan.schema, &input.schema)?;
            if keys.is_empty() {
                return Err(err("Sort", "no sort keys"));
            }
            for k in keys {
                // every value type is sortable; keys just need to resolve
                infer_expr("Sort key", &k.expr, &input.schema, &types)?;
                check_batch_compile("Sort key", &k.expr, &input.schema)?;
            }
            Ok(types)
        }
        PhysOp::Limit { input, .. } => {
            let types = check_node(input, catalog)?;
            check_schema_passthrough("Limit", &plan.schema, &input.schema)?;
            Ok(types)
        }
        PhysOp::Values { rows } => {
            let declared: ColTypes = plan
                .schema
                .columns()
                .iter()
                .map(|c| Some(c.data_type))
                .collect();
            for (ri, row) in rows.iter().enumerate() {
                if row.len() != plan.schema.len() {
                    return Err(err(
                        "Values",
                        format!(
                            "row {ri} has {} value(s) for {} column(s)",
                            row.len(),
                            plan.schema.len()
                        ),
                    ));
                }
                for (ci, col) in plan.schema.columns().iter().enumerate() {
                    let v = row.get(ci);
                    if !v.is_null() && !value_matches(v, col.data_type) {
                        return Err(err(
                            "Values",
                            format!(
                                "row {ri} column {}: {v} is not {:?}",
                                col.name, col.data_type
                            ),
                        ));
                    }
                }
            }
            Ok(declared)
        }
        PhysOp::Exchange { input } => {
            let types = check_node(input, catalog)?;
            check_schema_passthrough("Exchange", &plan.schema, &input.schema)?;
            check_exchange_region(input)?;
            Ok(types)
        }
    }
}

/// An Exchange must sit over a morsel-parallelizable region: a chain of
/// Filter / Project nodes bottoming out in a SeqScan, with no nested
/// Exchange, no pipeline breaker, and no index scan (whose order comes
/// from the index, not heap pages) inside the region.
fn check_exchange_region(plan: &PhysicalPlan) -> Result<()> {
    match &plan.op {
        PhysOp::SeqScan { .. } => Ok(()),
        PhysOp::Filter { input, .. } | PhysOp::Project { input, .. } => {
            check_exchange_region(input)
        }
        other => Err(err(
            "Exchange",
            format!(
                "region contains a non-parallelizable operator: {}",
                op_label(other)
            ),
        )),
    }
}

fn op_label(op: &PhysOp) -> &'static str {
    crate::analyze::op_name(op)
}

/// A scan reads the table columns `cols`, strictly ascending and in
/// range, and its output schema must be the table schema qualified by the
/// alias and projected on them.
fn check_scan_schema(
    op: &str,
    catalog: &Catalog,
    table: &str,
    alias: &str,
    cols: &[usize],
    schema: &Schema,
) -> Result<ColTypes> {
    let t = catalog
        .table(table)
        .map_err(|_| err(op, format!("unknown table {table}")))?;
    if !cols.windows(2).all(|w| w[0] < w[1]) {
        return Err(err(
            op,
            format!("cols {cols:?} of {table} are not strictly ascending"),
        ));
    }
    let expected = qualify_schema(&t.schema, alias)
        .project(cols)
        .map_err(|_| {
            err(
                op,
                format!(
                    "cols {cols:?} out of range for {table}'s {} column(s)",
                    t.schema.len()
                ),
            )
        })?;
    if *schema != expected {
        return Err(err(
            op,
            format!(
                "schema mismatch for {table} as {alias}: plan carries {:?}, catalog says {:?}",
                names(schema),
                names(&expected)
            ),
        ));
    }
    Ok(schema.columns().iter().map(|c| Some(c.data_type)).collect())
}

/// Filter/Sort/Limit must not alter their input schema.
fn check_schema_passthrough(op: &str, schema: &Schema, input: &Schema) -> Result<()> {
    if schema != input {
        return Err(err(
            op,
            format!(
                "output schema {:?} differs from input schema {:?}",
                names(schema),
                names(input)
            ),
        ));
    }
    Ok(())
}

/// Joins concatenate their children's schemas; their column types are the
/// concatenation of the children's type vectors.
fn check_join_schema(
    op: &str,
    plan: &PhysicalPlan,
    left: &PhysicalPlan,
    right: &PhysicalPlan,
    lt: ColTypes,
    rt: ColTypes,
) -> Result<ColTypes> {
    let expected = left.schema.join(&right.schema);
    if plan.schema != expected {
        return Err(err(
            op,
            format!(
                "output schema {:?} is not the concatenation of its inputs {:?}",
                names(&plan.schema),
                names(&expected)
            ),
        ));
    }
    let mut types = lt;
    types.extend(rt);
    Ok(types)
}

/// A predicate expression must type to Bool (or unknown).
fn check_predicate(op: &str, pred: &Expr, schema: &Schema, types: &ColTypes) -> Result<()> {
    // infer first: its diagnostics are richer when a column is unresolved
    let inferred = infer_expr(op, pred, schema, types)?;
    check_batch_compile(op, pred, schema)?;
    match inferred {
        Some(DataType::Bool) | None => Ok(()),
        Some(other) => Err(err(
            op,
            format!("predicate {pred:?} has type {other:?}, expected Bool"),
        )),
    }
}

/// The vectorized executor compiles every expression to positional column
/// kernels against its operator's input schema before running. Run the
/// same compilation here so a plan that passes verification is guaranteed
/// to wire into the batch pipeline too (compile fails exactly when a
/// column reference does not resolve in the input schema).
fn check_batch_compile(op: &str, expr: &Expr, schema: &Schema) -> Result<()> {
    aimdb_sql::vexpr::compile(expr, schema)
        .map(|_| ())
        .map_err(|e| err(op, format!("does not compile for batch execution: {e}")))
}

fn names(schema: &Schema) -> Vec<&str> {
    schema.columns().iter().map(|c| c.name.as_str()).collect()
}

fn numeric(t: DataType) -> bool {
    matches!(t, DataType::Int | DataType::Float)
}

/// Can values of these two types be compared by `Value::sql_cmp` without
/// being constantly NULL? (Numeric types compare cross-type.)
fn comparable(a: DataType, b: DataType) -> bool {
    a == b || (numeric(a) && numeric(b))
}

/// Does a literal value match a column type, up to numeric widening?
/// (The planner stores index bounds as `Float` even over `Int` columns.)
fn value_matches(v: &Value, t: DataType) -> bool {
    match v.data_type() {
        None => true, // NULL matches any column
        Some(vt) => comparable(vt, t),
    }
}

/// Infer the static type of `expr` against an operator's schema and
/// known column types. `Ok(None)` means the type cannot be determined
/// statically (NULL literal or a column of unknown type); errors are
/// genuine plan defects: unresolved columns, wrong arity, or operations
/// guaranteed to fail or degenerate at runtime.
fn infer_expr(
    op: &str,
    expr: &Expr,
    schema: &Schema,
    types: &ColTypes,
) -> Result<Option<DataType>> {
    match expr {
        Expr::Column { qualifier, name } => {
            // mirror the executor's resolution: qualified spelling first,
            // then the bare name
            let full = match qualifier {
                Some(q) => format!("{q}.{name}"),
                None => name.clone(),
            };
            let idx = schema
                .index_of(&full)
                .or_else(|_| schema.index_of(name))
                .map_err(|_| {
                    err(
                        op,
                        format!("unresolved column {full} (schema: {:?})", names(schema)),
                    )
                })?;
            Ok(types.get(idx).copied().flatten())
        }
        Expr::Literal(v) => Ok(v.data_type()),
        Expr::Binary {
            left,
            op: bop,
            right,
        } => {
            let l = infer_expr(op, left, schema, types)?;
            let r = infer_expr(op, right, schema, types)?;
            infer_binary(op, *bop, l, r, expr)
        }
        Expr::Unary {
            op: uop,
            expr: inner,
        } => {
            let t = infer_expr(op, inner, schema, types)?;
            match (uop, t) {
                (UnaryOp::Not, Some(DataType::Bool) | None) => Ok(Some(DataType::Bool)),
                (UnaryOp::Not, Some(other)) => {
                    Err(err(op, format!("NOT applied to {other:?} in {expr:?}")))
                }
                (UnaryOp::Neg, Some(t @ (DataType::Int | DataType::Float))) => Ok(Some(t)),
                (UnaryOp::Neg, None) => Ok(None),
                (UnaryOp::Neg, Some(other)) => {
                    Err(err(op, format!("negation of {other:?} in {expr:?}")))
                }
            }
        }
        Expr::IsNull { expr: inner, .. } => {
            infer_expr(op, inner, schema, types)?;
            Ok(Some(DataType::Bool))
        }
        Expr::Between { expr: v, lo, hi } => {
            let vt = infer_expr(op, v, schema, types)?;
            for bound in [lo, hi] {
                let bt = infer_expr(op, bound, schema, types)?;
                if let (Some(a), Some(b)) = (vt, bt) {
                    if !comparable(a, b) {
                        return Err(err(
                            op,
                            format!("BETWEEN bound {bound:?} ({b:?}) incomparable with {a:?}"),
                        ));
                    }
                }
            }
            Ok(Some(DataType::Bool))
        }
        Expr::InList { expr: v, list, .. } => {
            let vt = infer_expr(op, v, schema, types)?;
            for item in list {
                let it = infer_expr(op, item, schema, types)?;
                if let (Some(a), Some(b)) = (vt, it) {
                    if !comparable(a, b) {
                        return Err(err(
                            op,
                            format!("IN list item {item:?} ({b:?}) incomparable with {a:?}"),
                        ));
                    }
                }
            }
            Ok(Some(DataType::Bool))
        }
        Expr::Like { expr: inner, .. } => match infer_expr(op, inner, schema, types)? {
            Some(DataType::Text) | None => Ok(Some(DataType::Bool)),
            Some(other) => Err(err(op, format!("LIKE applied to {other:?} in {expr:?}"))),
        },
        Expr::Function { name, args } => infer_function(op, name, args, schema, types),
        Expr::Predict { model, args } => {
            if args.len() != model.0.arity() {
                return Err(err(
                    op,
                    format!(
                        "model {model:?} takes {} input(s), got {}",
                        model.0.arity(),
                        args.len()
                    ),
                ));
            }
            for a in args {
                // the category a text value would raise at the first row
                if infer_expr(op, a, schema, types)? == Some(DataType::Text) {
                    return Err(AimError::TypeMismatch(format!(
                        "verify: {op}: PREDICT({model:?}) applied to Text argument {a:?}"
                    )));
                }
            }
            Ok(Some(DataType::Float))
        }
    }
}

fn infer_binary(
    op: &str,
    bop: BinaryOp,
    l: Option<DataType>,
    r: Option<DataType>,
    expr: &Expr,
) -> Result<Option<DataType>> {
    use BinaryOp::*;
    match bop {
        And | Or => {
            for t in [l, r].into_iter().flatten() {
                if t != DataType::Bool {
                    return Err(err(
                        op,
                        format!("{bop:?} operand has type {t:?} in {expr:?}"),
                    ));
                }
            }
            Ok(Some(DataType::Bool))
        }
        Eq | Neq | Lt | Lte | Gt | Gte => {
            if let (Some(a), Some(b)) = (l, r) {
                if !comparable(a, b) {
                    return Err(err(
                        op,
                        format!("comparison of {a:?} with {b:?} is always NULL in {expr:?}"),
                    ));
                }
            }
            Ok(Some(DataType::Bool))
        }
        Add | Sub | Mul | Div | Mod => {
            for side in [l, r] {
                if side == Some(DataType::Text) {
                    return Err(err(op, format!("arithmetic on Text in {expr:?}")));
                }
            }
            match (l, r) {
                // Int op Int stays Int; Bool coerces to numeric (as_f64)
                (Some(DataType::Int), Some(DataType::Int)) => Ok(Some(DataType::Int)),
                (Some(_), Some(_)) => Ok(Some(DataType::Float)),
                _ => Ok(None),
            }
        }
    }
}

fn infer_function(
    op: &str,
    name: &str,
    args: &[Expr],
    schema: &Schema,
    types: &ColTypes,
) -> Result<Option<DataType>> {
    let arg_types: Vec<Option<DataType>> = args
        .iter()
        .map(|a| infer_expr(op, a, schema, types))
        .collect::<Result<_>>()?;
    let argc = |n: usize| -> Result<()> {
        if args.len() != n {
            Err(err(
                op,
                format!("{name} expects {n} argument(s), got {}", args.len()),
            ))
        } else {
            Ok(())
        }
    };
    let numeric_arg = |i: usize| -> Result<()> {
        if arg_types[i] == Some(DataType::Text) {
            Err(err(op, format!("{name} applied to Text argument")))
        } else {
            Ok(())
        }
    };
    let text_arg = |i: usize| -> Result<()> {
        match arg_types[i] {
            Some(DataType::Text) | None => Ok(()),
            Some(other) => Err(err(op, format!("{name} applied to {other:?} argument"))),
        }
    };
    match name.to_ascii_uppercase().as_str() {
        "ABS" => {
            argc(1)?;
            numeric_arg(0)?;
            Ok(match arg_types[0] {
                Some(DataType::Int) => Some(DataType::Int),
                Some(_) => Some(DataType::Float),
                None => None,
            })
        }
        "FLOOR" | "CEIL" | "ROUND" | "SQRT" | "LN" | "EXP" => {
            argc(1)?;
            numeric_arg(0)?;
            Ok(Some(DataType::Float))
        }
        "LOWER" | "UPPER" => {
            argc(1)?;
            text_arg(0)?;
            Ok(Some(DataType::Text))
        }
        "LENGTH" => {
            argc(1)?;
            text_arg(0)?;
            Ok(Some(DataType::Int))
        }
        "PREDICT" => Err(err(
            op,
            "PREDICT is not bound to a model (the planner binds it; see plan::bind_models)",
        )),
        "COUNT" | "SUM" | "AVG" | "MIN" | "MAX" => Err(err(
            op,
            format!("aggregate {name} in scalar context (planner must hoist it)"),
        )),
        other => Err(err(op, format!("unknown scalar function {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimdb_common::Column;

    fn schema(pairs: &[(&str, DataType)]) -> (Schema, ColTypes) {
        let s = Schema::new(pairs.iter().map(|(n, t)| Column::new(*n, *t)).collect());
        let types = s.columns().iter().map(|c| Some(c.data_type)).collect();
        (s, types)
    }

    #[test]
    fn infer_basic_types() {
        let (s, t) = schema(&[("a.x", DataType::Int), ("a.name", DataType::Text)]);
        let e = Expr::binary(Expr::col("a.x"), BinaryOp::Add, Expr::lit(1i64));
        assert_eq!(infer_expr("t", &e, &s, &t).unwrap(), Some(DataType::Int));
        let e = Expr::binary(Expr::col("a.x"), BinaryOp::Lt, Expr::lit(2.5));
        assert_eq!(infer_expr("t", &e, &s, &t).unwrap(), Some(DataType::Bool));
    }

    #[test]
    fn rejects_text_arithmetic_and_incomparable() {
        let (s, t) = schema(&[("a.x", DataType::Int), ("a.name", DataType::Text)]);
        let e = Expr::binary(Expr::col("a.name"), BinaryOp::Add, Expr::lit(1i64));
        assert!(infer_expr("t", &e, &s, &t).is_err());
        let e = Expr::binary(Expr::col("a.name"), BinaryOp::Eq, Expr::lit(1i64));
        assert!(infer_expr("t", &e, &s, &t).is_err());
    }

    #[test]
    fn unknown_types_are_permissive() {
        let (s, _) = schema(&[("c0", DataType::Float)]);
        let t: ColTypes = vec![None];
        let e = Expr::binary(Expr::col("c0"), BinaryOp::Eq, Expr::lit("x"));
        assert_eq!(infer_expr("t", &e, &s, &t).unwrap(), Some(DataType::Bool));
    }
}
