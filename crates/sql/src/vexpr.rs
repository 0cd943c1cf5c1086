//! Vectorized expression kernels: the one expression evaluator the
//! engine runs.
//!
//! [`compile`] resolves an [`Expr`]'s column references against an
//! operator's input schema once, producing a [`VExpr`] whose leaves are
//! column *indices*. [`eval`] then evaluates a `VExpr` over a whole
//! [`Batch`] at a time: typed column pairs (Int/Float arithmetic and
//! comparisons, Bool three-valued AND/OR) run as tight loops over the
//! typed vectors, and every other combination applies the per-value
//! rules (`eval_binary`, `like_match`, `Value::sql_cmp`) lane by lane.
//! A constant — a value of `INSERT … VALUES`, an input of `PREDICT …
//! GIVEN` — runs through the same kernels on the one-row batch with no
//! columns ([`eval_const`]).
//!
//! The semantics are SQL's a row at a time, and the reference that
//! spells them out row by row is the row evaluator of the dev-only
//! `aimdb-oracle` crate, which this crate's property tests and the
//! engine's differential tests compare against. Whole-column evaluation
//! agrees with it because almost nothing short-circuits a subtree: both
//! operands of every `Binary` are evaluated for every row, as are all
//! `Between`/`Function` children, so a column errors exactly when some
//! row errors (possibly reporting a different site, which is why the
//! oracles treat any `Err` pair as agreement). Two constructs are lazy,
//! and stay lazy here by running a subtree only on the rows that reach
//! it: item *k* of `IN (...)` runs on the lanes whose probe is not NULL
//! and that no earlier item matched, and a *predicate's* AND-ed
//! conjuncts cascade — [`eval_filter`] evaluates each conjunct only on
//! the rows every earlier conjunct accepted. That is what lets a cheap
//! conjunct shield an expensive one (`PREDICT`) from most of a batch.
//!
//! `PREDICT` is not a function call here: the planner binds it to a model
//! snapshot, and [`VExpr::Predict`] hands the argument columns to that
//! snapshot's batch kernel in one call.

use std::borrow::Cow;
use std::cmp::Ordering;

use aimdb_common::{AimError, Batch, ColVec, Lane, Result, Schema, Value};

use crate::expr::{eval_binary, like_match, BinaryOp, Expr, ModelRef, ScalarFns, UnaryOp};

/// An expression compiled against a fixed input schema: column
/// references are resolved to positional indices.
#[derive(Debug, Clone, PartialEq)]
pub enum VExpr {
    /// Input column by position.
    Col(usize),
    Literal(Value),
    Binary {
        left: Box<VExpr>,
        op: BinaryOp,
        right: Box<VExpr>,
    },
    Unary {
        op: UnaryOp,
        expr: Box<VExpr>,
    },
    IsNull {
        expr: Box<VExpr>,
        negated: bool,
    },
    Between {
        expr: Box<VExpr>,
        lo: Box<VExpr>,
        hi: Box<VExpr>,
    },
    InList {
        expr: Box<VExpr>,
        list: Vec<VExpr>,
        negated: bool,
    },
    Like {
        expr: Box<VExpr>,
        pattern: String,
        negated: bool,
    },
    Function {
        name: String,
        args: Vec<VExpr>,
    },
    /// Inference over the model snapshot bound at plan time.
    Predict {
        model: ModelRef,
        args: Vec<VExpr>,
    },
}

/// Resolve every column reference in `expr` against `schema`: the
/// qualified spelling first, then the bare name (operator output
/// schemas may carry either form). A column in neither spelling is
/// [`AimError::NotFound`].
pub fn compile(expr: &Expr, schema: &Schema) -> Result<VExpr> {
    match expr {
        Expr::Column { qualifier, name } => {
            let full = match qualifier {
                Some(q) => format!("{q}.{name}"),
                None => name.clone(),
            };
            let idx = schema.index_of(&full).or_else(|_| schema.index_of(name))?;
            Ok(VExpr::Col(idx))
        }
        Expr::Literal(v) => Ok(VExpr::Literal(v.clone())),
        Expr::Binary { left, op, right } => Ok(VExpr::Binary {
            left: Box::new(compile(left, schema)?),
            op: *op,
            right: Box::new(compile(right, schema)?),
        }),
        Expr::Unary { op, expr } => Ok(VExpr::Unary {
            op: *op,
            expr: Box::new(compile(expr, schema)?),
        }),
        Expr::IsNull { expr, negated } => Ok(VExpr::IsNull {
            expr: Box::new(compile(expr, schema)?),
            negated: *negated,
        }),
        Expr::Between { expr, lo, hi } => Ok(VExpr::Between {
            expr: Box::new(compile(expr, schema)?),
            lo: Box::new(compile(lo, schema)?),
            hi: Box::new(compile(hi, schema)?),
        }),
        Expr::InList {
            expr,
            list,
            negated,
        } => Ok(VExpr::InList {
            expr: Box::new(compile(expr, schema)?),
            list: list
                .iter()
                .map(|e| compile(e, schema))
                .collect::<Result<_>>()?,
            negated: *negated,
        }),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Ok(VExpr::Like {
            expr: Box::new(compile(expr, schema)?),
            pattern: pattern.clone(),
            negated: *negated,
        }),
        Expr::Function { name, args } => Ok(VExpr::Function {
            name: name.clone(),
            args: args
                .iter()
                .map(|a| compile(a, schema))
                .collect::<Result<_>>()?,
        }),
        Expr::Predict { model, args } => Ok(VExpr::Predict {
            model: model.clone(),
            args: args
                .iter()
                .map(|a| compile(a, schema))
                .collect::<Result<_>>()?,
        }),
    }
}

/// Evaluate a compiled expression over every row of `batch`, producing
/// a dense output column of `batch.len()` values.
pub fn eval(v: &VExpr, batch: &Batch, fns: &dyn ScalarFns) -> Result<ColVec> {
    eval_sel(v, batch, None, fns)
}

/// Evaluate an expression that reads no column — a value of `INSERT …
/// VALUES`, an input of `PREDICT … GIVEN` — over the one-row batch with
/// no columns. A column reference fails to compile against the empty
/// schema.
pub fn eval_const(expr: &Expr, fns: &dyn ScalarFns) -> Result<Value> {
    let v = compile(expr, &Schema::default())?;
    Ok(eval(&v, &Batch::from_cols(Vec::new(), 1), fns)?.value(0))
}

/// Evaluate over the rows of `batch` named by `sel` (every row when
/// `None`), producing a dense column with one lane per selected row.
/// Only the leaves know about the selection: a column reference gathers
/// its selected lanes, and every kernel above it sees dense columns.
fn eval_sel(v: &VExpr, batch: &Batch, sel: Option<&[u32]>, fns: &dyn ScalarFns) -> Result<ColVec> {
    let n = sel.map_or(batch.len(), <[u32]>::len);
    let sub = |v: &VExpr| eval_sel(v, batch, sel, fns);
    match v {
        VExpr::Col(i) => Ok(match sel {
            None => batch.col(*i).clone(),
            Some(s) => batch.col(*i).gather(s),
        }),
        VExpr::Literal(val) => Ok(broadcast(val, n)),
        VExpr::Binary { left, op, right } => {
            let l = sub(left)?;
            let r = sub(right)?;
            binary_cols(&l, *op, &r, n)
        }
        VExpr::Unary { op, expr } => {
            let c = sub(expr)?;
            unary_col(*op, &c, n)
        }
        VExpr::IsNull { expr, negated } => {
            let c = sub(expr)?;
            let vals = (0..n).map(|i| c.is_null(i) != *negated).collect();
            Ok(ColVec::Bool(Lane::from_vals(vals)))
        }
        VExpr::Between { expr, lo, hi } => {
            // scalar eval always evaluates all three children
            let c = sub(expr)?;
            let l = sub(lo)?;
            let h = sub(hi)?;
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let v = c.value(i);
                match (v.sql_cmp(&l.value(i)), v.sql_cmp(&h.value(i))) {
                    (Some(a), Some(b)) => {
                        out.push(Value::Bool(a != Ordering::Less && b != Ordering::Greater))
                    }
                    _ => out.push(Value::Null),
                }
            }
            Ok(ColVec::from_values(out))
        }
        VExpr::InList {
            expr,
            list,
            negated,
        } => {
            // IN is lazy: a NULL probe reads no item, and a row reads
            // item k only if no earlier item matched it. So item k runs
            // as one batch on exactly the lanes still undecided.
            let c = sub(expr)?;
            let mut out = vec![Value::Null; n];
            let mut saw_null = vec![false; n];
            let mut open: Vec<usize> = (0..n).filter(|&i| !c.is_null(i)).collect();
            for item in list {
                if open.is_empty() {
                    break;
                }
                let rows: Vec<u32> = open
                    .iter()
                    .map(|&i| sel.map_or(i as u32, |s| s[i]))
                    .collect();
                let w = eval_sel(item, batch, Some(&rows), fns)?;
                let mut still = Vec::with_capacity(open.len());
                for (k, &i) in open.iter().enumerate() {
                    match c.value(i).sql_cmp(&w.value(k)) {
                        Some(Ordering::Equal) => out[i] = Value::Bool(!*negated),
                        None => {
                            saw_null[i] = true;
                            still.push(i);
                        }
                        _ => still.push(i),
                    }
                }
                open = still;
            }
            for i in open {
                out[i] = if saw_null[i] {
                    Value::Null
                } else {
                    Value::Bool(*negated)
                };
            }
            Ok(ColVec::from_values(out))
        }
        VExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let c = sub(expr)?;
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let v = c.value(i);
                if v.is_null() {
                    out.push(Value::Null);
                } else {
                    out.push(Value::Bool(like_match(v.as_str()?, pattern) != *negated));
                }
            }
            Ok(ColVec::from_values(out))
        }
        VExpr::Function { name, args } => {
            let cols: Vec<ColVec> = args.iter().map(sub).collect::<Result<_>>()?;
            let mut out = Vec::with_capacity(n);
            let mut argv: Vec<Value> = Vec::with_capacity(cols.len());
            for i in 0..n {
                argv.clear();
                argv.extend(cols.iter().map(|c| c.value(i)));
                out.push(fns.call(name, &argv)?);
            }
            Ok(ColVec::from_values(out))
        }
        VExpr::Predict { model, args } => {
            let cols: Vec<ColVec> = args.iter().map(sub).collect::<Result<_>>()?;
            let mut vals = vec![0.0; n];
            model.0.predict_batch(&cols, &mut vals)?;
            Ok(ColVec::Float(Lane::from_vals(vals)))
        }
    }
}

/// Evaluate a compiled predicate over `batch`, returning the selection
/// vector of rows where it is TRUE (SQL WHERE semantics: NULL drops the
/// row; a non-boolean result is a type error).
///
/// The predicate's AND-ed conjuncts run as a cascade, in order: each is
/// evaluated only on the rows all earlier ones accepted, and once no row
/// is left the remaining conjuncts are not evaluated at all.
pub fn eval_filter(v: &VExpr, batch: &Batch, fns: &dyn ScalarFns) -> Result<Vec<u32>> {
    let mut sel = None;
    narrow(v, batch, fns, &mut sel)?;
    Ok(sel.unwrap_or_else(|| (0..batch.len() as u32).collect()))
}

/// Apply the conjuncts of `v`, left to right, to the rows still in `sel`
/// (`None`: every row of the batch).
fn narrow(v: &VExpr, batch: &Batch, fns: &dyn ScalarFns, sel: &mut Option<Vec<u32>>) -> Result<()> {
    if let VExpr::Binary {
        left,
        op: BinaryOp::And,
        right,
    } = v
    {
        narrow(left, batch, fns, sel)?;
        return narrow(right, batch, fns, sel);
    }
    if sel.as_ref().is_some_and(Vec::is_empty) {
        return Ok(());
    }
    let c = eval_sel(v, batch, sel.as_deref(), fns)?;
    let row = |lane: usize| sel.as_ref().map_or(lane as u32, |s| s[lane]);
    let mut kept = Vec::new();
    match &c {
        ColVec::Bool(l) => {
            for (lane, b) in l.iter().enumerate() {
                if b == Some(&true) {
                    kept.push(row(lane));
                }
            }
        }
        other => {
            for lane in 0..other.len() {
                match other.value(lane) {
                    Value::Bool(true) => kept.push(row(lane)),
                    Value::Bool(false) | Value::Null => {}
                    v => {
                        return Err(AimError::TypeMismatch(format!(
                            "predicate evaluated to non-boolean {v}"
                        )))
                    }
                }
            }
        }
    }
    *sel = Some(kept);
    Ok(())
}

fn unary_value(op: UnaryOp, v: Value) -> Result<Value> {
    match (op, v) {
        (UnaryOp::Not, Value::Null) => Ok(Value::Null),
        (UnaryOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
        (UnaryOp::Neg, Value::Int(i)) => Ok(Value::Int(i.wrapping_neg())),
        (UnaryOp::Neg, Value::Float(f)) => Ok(Value::Float(-f)),
        (UnaryOp::Neg, Value::Null) => Ok(Value::Null),
        (op, v) => Err(AimError::TypeMismatch(format!(
            "cannot apply {op:?} to {v}"
        ))),
    }
}

fn broadcast(v: &Value, n: usize) -> ColVec {
    match v {
        Value::Int(x) => ColVec::Int(Lane::from_vals(vec![*x; n])),
        Value::Float(x) => ColVec::Float(Lane::from_vals(vec![*x; n])),
        Value::Bool(x) => ColVec::Bool(Lane::from_vals(vec![*x; n])),
        Value::Text(s) => ColVec::Text(Lane::from_vals(vec![s.clone(); n])),
        Value::Null => ColVec::Mixed(vec![Value::Null; n]),
    }
}

/// Vectorized binary kernel: typed fast paths with a per-lane
/// `eval_binary` fallback for mixed/text/other combinations. Every typed
/// path but AND/OR is one [`Lane::zip`]: NULL in, NULL out.
fn binary_cols(l: &ColVec, op: BinaryOp, r: &ColVec, n: usize) -> Result<ColVec> {
    use BinaryOp::*;
    let div_by_zero = || AimError::Execution("division by zero".into());
    match (l, r, op) {
        // Int × Int: exact integer compare / wrapping arithmetic
        (ColVec::Int(a), ColVec::Int(b), _) => match op {
            Eq | Neq | Lt | Lte | Gt | Gte => {
                Ok(ColVec::Bool(a.zip(b, |x, y| Ok(cmp_holds(op, x.cmp(y))))?))
            }
            Add | Sub | Mul => Ok(ColVec::Int(a.zip(b, |&x, &y| {
                Ok(match op {
                    Add => x.wrapping_add(y),
                    Sub => x.wrapping_sub(y),
                    _ => x.wrapping_mul(y),
                })
            })?)),
            Div | Mod => Ok(ColVec::Int(a.zip(b, |&x, &y| match y {
                0 => Err(div_by_zero()),
                _ if op == Div => Ok(x.wrapping_div(y)),
                _ => Ok(x.wrapping_rem(y)),
            })?)),
            And | Or => lanewise(l, op, r, n),
        },
        // Float × Float / Float × Int: total_cmp compare, f64 arithmetic
        (ColVec::Float(_) | ColVec::Int(_), ColVec::Float(_) | ColVec::Int(_), _) => {
            let (a, b) = (as_f64_lanes(l), as_f64_lanes(r));
            match op {
                Eq | Neq | Lt | Lte | Gt | Gte => Ok(ColVec::Bool(
                    a.zip(&b, |x, y| Ok(cmp_holds(op, x.total_cmp(y))))?,
                )),
                Add | Sub | Mul => Ok(ColVec::Float(a.zip(&b, |&x, &y| {
                    Ok(match op {
                        Add => x + y,
                        Sub => x - y,
                        _ => x * y,
                    })
                })?)),
                Div | Mod => Ok(ColVec::Float(a.zip(&b, |&x, &y| {
                    if y == 0.0 {
                        Err(div_by_zero())
                    } else if op == Div {
                        Ok(x / y)
                    } else {
                        Ok(x % y)
                    }
                })?)),
                And | Or => lanewise(l, op, r, n),
            }
        }
        // Bool × Bool three-valued AND/OR with false/true absorption
        (ColVec::Bool(a), ColVec::Bool(b), And | Or) => Ok(ColVec::Bool(
            a.iter()
                .zip(b.iter())
                .map(|(x, y)| match (op, x, y) {
                    (And, Some(false), _) | (And, _, Some(false)) => Some(false),
                    (And, Some(true), Some(true)) => Some(true),
                    (Or, Some(true), _) | (Or, _, Some(true)) => Some(true),
                    (Or, Some(false), Some(false)) => Some(false),
                    _ => None,
                })
                .collect(),
        )),
        // Text × Text comparisons
        (ColVec::Text(a), ColVec::Text(b), Eq | Neq | Lt | Lte | Gt | Gte) => {
            Ok(ColVec::Bool(a.zip(b, |x, y| Ok(cmp_holds(op, x.cmp(y))))?))
        }
        // everything else: per-lane scalar semantics
        _ => lanewise(l, op, r, n),
    }
}

/// Per-lane fallback for [`binary_cols`]: exactly `eval_binary` per row.
fn lanewise(l: &ColVec, op: BinaryOp, r: &ColVec, n: usize) -> Result<ColVec> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(eval_binary(&l.value(i), op, &r.value(i))?);
    }
    Ok(ColVec::from_values(out))
}

/// A numeric column as an f64 lane: a Float lane borrowed, an Int lane
/// widened (callers guarantee one of the two).
fn as_f64_lanes(c: &ColVec) -> Cow<'_, Lane<f64>> {
    match c {
        ColVec::Int(l) => Cow::Owned(l.map(|&v| v as f64)),
        ColVec::Float(l) => Cow::Borrowed(l),
        _ => unreachable!("as_f64_lanes on non-numeric column"),
    }
}

fn cmp_holds(op: BinaryOp, ord: Ordering) -> bool {
    match op {
        BinaryOp::Eq => ord == Ordering::Equal,
        BinaryOp::Neq => ord != Ordering::Equal,
        BinaryOp::Lt => ord == Ordering::Less,
        BinaryOp::Lte => ord != Ordering::Greater,
        BinaryOp::Gt => ord == Ordering::Greater,
        BinaryOp::Gte => ord != Ordering::Less,
        _ => unreachable!("cmp_holds on non-comparison"),
    }
}

fn unary_col(op: UnaryOp, c: &ColVec, n: usize) -> Result<ColVec> {
    match (op, c) {
        (UnaryOp::Neg, ColVec::Int(l)) => Ok(ColVec::Int(l.map(|v| v.wrapping_neg()))),
        (UnaryOp::Neg, ColVec::Float(l)) => Ok(ColVec::Float(l.map(|v| -v))),
        (UnaryOp::Not, ColVec::Bool(l)) => Ok(ColVec::Bool(l.map(|v| !v))),
        _ => {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                out.push(unary_value(op, c.value(i))?);
            }
            Ok(ColVec::from_values(out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BoundModel, BuiltinFns};
    use aimdb_common::{DataType, Row};
    use std::sync::{Arc, Mutex};

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Float),
            ("s", DataType::Text),
        ])
    }

    fn batch() -> Batch {
        let rows = vec![
            Row::new(vec![
                Value::Int(10),
                Value::Float(2.5),
                Value::Text("hello".into()),
            ]),
            Row::new(vec![Value::Null, Value::Float(-1.0), Value::Null]),
            Row::new(vec![
                Value::Int(-3),
                Value::Null,
                Value::Text("world".into()),
            ]),
        ];
        Batch::from_rows(&schema(), &rows)
    }

    #[test]
    fn filter_selects_true_lanes() {
        let e = Expr::binary(Expr::col("a"), BinaryOp::Gt, Expr::lit(0i64));
        let v = compile(&e, &schema()).unwrap();
        // row 0: 10 > 0 → keep; row 1: NULL → drop; row 2: -3 → drop
        assert_eq!(eval_filter(&v, &batch(), &BuiltinFns).unwrap(), vec![0]);
    }

    #[test]
    fn filter_rejects_non_boolean() {
        let e = Expr::binary(Expr::col("a"), BinaryOp::Add, Expr::lit(1i64));
        let v = compile(&e, &schema()).unwrap();
        assert!(eval_filter(&v, &batch(), &BuiltinFns).is_err());
    }

    #[test]
    fn division_by_zero_errors_like_scalar() {
        let e = Expr::binary(Expr::col("a"), BinaryOp::Div, Expr::lit(0i64));
        let v = compile(&e, &schema()).unwrap();
        assert!(eval(&v, &batch(), &BuiltinFns).is_err());
    }

    #[test]
    fn wrapping_arithmetic_matches_scalar() {
        let s = Schema::from_pairs(&[("x", DataType::Int)]);
        let rows = vec![Row::new(vec![Value::Int(i64::MAX)])];
        let b = Batch::from_rows(&s, &rows);
        let e = Expr::binary(Expr::col("x"), BinaryOp::Add, Expr::lit(1i64));
        let v = compile(&e, &s).unwrap();
        let got = eval(&v, &b, &BuiltinFns).unwrap().value(0);
        assert_eq!(got, Value::Int(i64::MIN));
        // the one overflowing quotient wraps too
        let rows = vec![Row::new(vec![Value::Int(i64::MIN)])];
        let b = Batch::from_rows(&s, &rows);
        for (op, want) in [(BinaryOp::Div, i64::MIN), (BinaryOp::Mod, 0)] {
            let e = Expr::binary(Expr::col("x"), op, Expr::lit(-1i64));
            let got = eval(&compile(&e, &s).unwrap(), &b, &BuiltinFns).unwrap();
            assert_eq!(got.value(0), Value::Int(want));
        }
    }

    #[test]
    fn compile_unknown_column_fails() {
        assert!(compile(&Expr::col("zzz"), &schema()).is_err());
    }

    #[test]
    fn constants_run_on_the_one_row_batch() {
        let neg = |e| Expr::Unary {
            op: UnaryOp::Neg,
            expr: Box::new(e),
        };
        let e = Expr::Function {
            name: "ABS".into(),
            args: vec![neg(Expr::lit(7i64))],
        };
        assert_eq!(eval_const(&e, &BuiltinFns), Ok(Value::Int(7)));
        let e = Expr::binary(Expr::lit(1i64), BinaryOp::Div, Expr::lit(0i64));
        assert!(eval_const(&e, &BuiltinFns).is_err());
        assert_eq!(
            eval_const(&Expr::col("x"), &BuiltinFns),
            Err(AimError::NotFound("column x".into()))
        );
    }

    fn in_list(probe: Expr, list: Vec<Expr>) -> VExpr {
        let e = Expr::InList {
            expr: Box::new(probe),
            list,
            negated: false,
        };
        compile(&e, &Schema::from_pairs(&[("x", DataType::Int)])).unwrap()
    }

    fn ints(xs: &[i64]) -> Batch {
        Batch::from_cols(
            vec![ColVec::from_values(
                xs.iter().map(|&x| Value::Int(x)).collect(),
            )],
            xs.len(),
        )
    }

    #[test]
    fn in_items_run_only_on_undecided_lanes() {
        let one_over_zero = || Expr::binary(Expr::lit(1i64), BinaryOp::Div, Expr::lit(0i64));
        let v = in_list(Expr::col("x"), vec![Expr::lit(1i64), one_over_zero()]);
        // every lane is decided by the first item: the second never runs
        let got = eval(&v, &ints(&[1, 1, 1]), &BuiltinFns).unwrap();
        assert_eq!(got.value(0), Value::Bool(true));
        assert_eq!(got.value(2), Value::Bool(true));
        // one lane the first item leaves open reaches it and raises
        assert!(eval(&v, &ints(&[1, 2, 1]), &BuiltinFns).is_err());
        // a NULL probe reads no item
        let v = in_list(Expr::lit(Value::Null), vec![one_over_zero()]);
        let got = eval(&v, &ints(&[5, 6]), &BuiltinFns).unwrap();
        assert_eq!(got.value(0), Value::Null);
        assert_eq!(got.value(1), Value::Null);
    }

    /// `PREDICT(echo, x)` = `x`, keeping every batch it is handed.
    #[derive(Default)]
    struct Echo {
        seen: Mutex<Vec<Vec<f64>>>,
    }

    impl BoundModel for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn version(&self) -> u32 {
            1
        }
        fn kind(&self) -> &str {
            "stub"
        }
        fn arity(&self) -> usize {
            1
        }
        fn predict_batch(&self, cols: &[ColVec], out: &mut [f64]) -> Result<()> {
            let xs = cols[0].f64_lane()?.into_owned();
            out.copy_from_slice(&xs);
            self.seen.lock().unwrap().push(xs);
            Ok(())
        }
    }

    #[test]
    fn a_later_in_item_predicts_only_the_undecided_lanes() {
        let echo = Arc::new(Echo::default());
        let predict = Expr::Predict {
            model: ModelRef(Arc::clone(&echo) as Arc<dyn BoundModel>),
            args: vec![Expr::col("x")],
        };
        let v = in_list(Expr::col("x"), vec![Expr::lit(1i64), predict]);
        // lanes 0 and 2 match the literal, lane 3 has a NULL probe
        let b = Batch::from_cols(
            vec![ColVec::from_values(vec![
                Value::Int(1),
                Value::Int(4),
                Value::Int(1),
                Value::Null,
                Value::Int(6),
            ])],
            5,
        );
        let got = eval(&v, &b, &BuiltinFns).unwrap();
        let t = Value::Bool(true);
        let want = [t.clone(), t.clone(), t.clone(), Value::Null, t];
        for (i, w) in want.iter().enumerate() {
            assert_eq!(&got.value(i), w, "lane {i}");
        }
        assert_eq!(*echo.seen.lock().unwrap(), vec![vec![4.0, 6.0]]);
        // under a selection the item reads the selected rows still open
        echo.seen.lock().unwrap().clear();
        let got = eval_sel(&v, &b, Some(&[2, 4]), &BuiltinFns).unwrap();
        assert_eq!(got.value(0), Value::Bool(true));
        assert_eq!(got.value(1), Value::Bool(true));
        assert_eq!(*echo.seen.lock().unwrap(), vec![vec![6.0]]);
    }

    /// `PREDICT(m, x…)` = twice the sum of its arguments.
    struct TwiceSum;

    impl BoundModel for TwiceSum {
        fn name(&self) -> &str {
            "m"
        }
        fn version(&self) -> u32 {
            1
        }
        fn kind(&self) -> &str {
            "stub"
        }
        fn arity(&self) -> usize {
            2
        }
        fn predict_batch(&self, cols: &[ColVec], out: &mut [f64]) -> Result<()> {
            out.fill(0.0);
            for c in cols {
                for (o, x) in out.iter_mut().zip(c.f64_lane()?.iter()) {
                    *o += 2.0 * x;
                }
            }
            Ok(())
        }
    }

    fn predict(args: Vec<Expr>) -> Expr {
        Expr::Predict {
            model: ModelRef(Arc::new(TwiceSum)),
            args,
        }
    }

    #[test]
    fn predict_runs_the_bound_kernel_on_selected_lanes_only() {
        let (s, b) = (schema(), batch());
        // row 0 has both inputs; rows 1 and 2 have a NULL one
        let p = predict(vec![Expr::col("a"), Expr::col("b")]);
        let v = compile(&p, &s).unwrap();
        assert!(eval(&v, &b, &BuiltinFns).is_err(), "NULL input is an error");
        let got = eval_sel(&v, &b, Some(&[0]), &BuiltinFns).unwrap();
        assert_eq!(got.value(0), Value::Float(25.0));
        // inside an IN item: the kernel on the selected lane
        let e = Expr::InList {
            expr: Box::new(Expr::lit(25.0)),
            list: vec![p],
            negated: false,
        };
        let v = compile(&e, &s).unwrap();
        let got = eval_sel(&v, &b, Some(&[0]), &BuiltinFns).unwrap();
        assert_eq!(got.value(0), Value::Bool(true));
    }

    #[test]
    fn filter_conjuncts_cascade_like_scalar_predicate() {
        use BinaryOp::*;
        let (s, b) = (schema(), batch());
        let both = Expr::binary(
            Expr::IsNull {
                expr: Box::new(Expr::col("a")),
                negated: true,
            },
            And,
            Expr::IsNull {
                expr: Box::new(Expr::col("b")),
                negated: true,
            },
        );
        let over = Expr::binary(
            predict(vec![Expr::col("a"), Expr::col("b")]),
            Gt,
            Expr::lit(20.0),
        );
        // shielded: the model only sees rows with both inputs present
        let shielded = Expr::binary(both.clone(), And, over.clone());
        let v = compile(&shielded, &s).unwrap();
        assert_eq!(eval_filter(&v, &b, &BuiltinFns).unwrap(), vec![0]);
        // the other way round the model meets a NULL first
        let exposed = Expr::binary(over, And, both);
        let v = compile(&exposed, &s).unwrap();
        assert!(eval_filter(&v, &b, &BuiltinFns).is_err());
    }
}
