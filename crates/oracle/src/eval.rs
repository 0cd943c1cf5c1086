//! The row evaluator: an [`Expr`] put to one `(Schema, Row)` pair, the
//! reference the batch kernels (`aimdb_sql::vexpr`) are diffed against.
//!
//! It walks the tree a node at a time with nothing compiled and nothing
//! batched. Every node evaluates all of its children, except the two
//! lazy constructs: `IN` stops at its first matching item (and reads no
//! item for a NULL probe), and a predicate's AND-ed conjuncts stop at
//! the first that is not TRUE. The per-value rules of the product
//! ([`eval_binary`], [`like_match`], `Value::sql_cmp`) are shared; the
//! tree walk, column lookup, laziness and `PREDICT` are its own.

use aimdb_common::{AimError, Result, Row, Schema, Value};
use aimdb_sql::expr::{eval_binary, like_match};
use aimdb_sql::{BinaryOp, Expr, ScalarFns, UnaryOp};

/// Row-at-a-time evaluation of an expression.
pub trait RowEval {
    /// Evaluate against a row. `fns` resolves scalar function calls.
    fn eval(&self, schema: &Schema, row: &Row, fns: &dyn ScalarFns) -> Result<Value>;

    /// Evaluate as a predicate: NULL counts as false (SQL WHERE semantics).
    ///
    /// The AND-ed conjuncts of a predicate are evaluated left to right and
    /// evaluation stops at the first one that is not TRUE: a later
    /// conjunct is never evaluated — and so can never raise an error — on
    /// a row an earlier one already rejected. `vexpr::eval_filter` applies
    /// the same rule a batch at a time.
    fn eval_predicate(&self, schema: &Schema, row: &Row, fns: &dyn ScalarFns) -> Result<bool>;
}

impl RowEval for Expr {
    fn eval(&self, schema: &Schema, row: &Row, fns: &dyn ScalarFns) -> Result<Value> {
        match self {
            Expr::Column { qualifier, name } => {
                let full = match qualifier {
                    Some(q) => format!("{q}.{name}"),
                    None => name.clone(),
                };
                // Try the qualified spelling first, then the bare name —
                // operator output schemas may carry either form.
                let idx = schema.index_of(&full).or_else(|_| schema.index_of(name))?;
                Ok(row.get(idx).clone())
            }
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Binary { left, op, right } => {
                let l = left.eval(schema, row, fns)?;
                let r = right.eval(schema, row, fns)?;
                eval_binary(&l, *op, &r)
            }
            Expr::Unary { op, expr } => {
                let v = expr.eval(schema, row, fns)?;
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
            Expr::IsNull { expr, negated } => {
                let v = expr.eval(schema, row, fns)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            Expr::Between { expr, lo, hi } => {
                let v = expr.eval(schema, row, fns)?;
                let l = lo.eval(schema, row, fns)?;
                let h = hi.eval(schema, row, fns)?;
                match (v.sql_cmp(&l), v.sql_cmp(&h)) {
                    (Some(a), Some(b)) => Ok(Value::Bool(
                        a != std::cmp::Ordering::Less && b != std::cmp::Ordering::Greater,
                    )),
                    _ => Ok(Value::Null),
                }
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval(schema, row, fns)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    let w = item.eval(schema, row, fns)?;
                    match v.sql_cmp(&w) {
                        Some(std::cmp::Ordering::Equal) => {
                            return Ok(Value::Bool(!*negated));
                        }
                        None => saw_null = true,
                        _ => {}
                    }
                }
                if saw_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(*negated))
                }
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = expr.eval(schema, row, fns)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let s = v.as_str()?;
                Ok(Value::Bool(like_match(s, pattern) != *negated))
            }
            Expr::Function { name, args } => {
                let vals: Vec<Value> = args
                    .iter()
                    .map(|a| a.eval(schema, row, fns))
                    .collect::<Result<_>>()?;
                fns.call(name, &vals)
            }
            // Row-at-a-time evaluation is the reference the batch kernel
            // is checked against, so it deliberately goes the long way
            // round: by name through the function registry, one row per
            // call.
            Expr::Predict { model, args } => {
                let mut vals = Vec::with_capacity(args.len() + 1);
                vals.push(Value::Text(model.0.name().to_string()));
                for a in args {
                    vals.push(a.eval(schema, row, fns)?);
                }
                fns.call("PREDICT", &vals)
            }
        }
    }

    fn eval_predicate(&self, schema: &Schema, row: &Row, fns: &dyn ScalarFns) -> Result<bool> {
        if let Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } = self
        {
            return Ok(
                left.eval_predicate(schema, row, fns)? && right.eval_predicate(schema, row, fns)?
            );
        }
        match self.eval(schema, row, fns)? {
            Value::Bool(b) => Ok(b),
            Value::Null => Ok(false),
            other => Err(AimError::TypeMismatch(format!(
                "predicate evaluated to non-boolean {other}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimdb_common::DataType;
    use aimdb_sql::expr::BuiltinFns;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Float),
            ("s", DataType::Text),
        ])
    }

    fn row() -> Row {
        Row::new(vec![
            Value::Int(10),
            Value::Float(2.5),
            Value::Text("hello".into()),
        ])
    }

    fn eval(e: &Expr) -> Value {
        e.eval(&schema(), &row(), &BuiltinFns).unwrap()
    }

    #[test]
    fn arithmetic_and_comparison() {
        let e = Expr::binary(Expr::col("a"), BinaryOp::Add, Expr::lit(5i64));
        assert_eq!(eval(&e), Value::Int(15));
        let e = Expr::binary(Expr::col("a"), BinaryOp::Mul, Expr::col("b"));
        assert_eq!(eval(&e), Value::Float(25.0));
        let e = Expr::binary(Expr::col("a"), BinaryOp::Gt, Expr::lit(9i64));
        assert_eq!(eval(&e), Value::Bool(true));
    }

    #[test]
    fn three_valued_logic() {
        let null = Expr::lit(Value::Null);
        let t = Expr::lit(true);
        let f = Expr::lit(false);
        // NULL AND FALSE = FALSE; NULL AND TRUE = NULL
        assert_eq!(
            eval(&Expr::binary(null.clone(), BinaryOp::And, f.clone())),
            Value::Bool(false)
        );
        assert_eq!(
            eval(&Expr::binary(null.clone(), BinaryOp::And, t.clone())),
            Value::Null
        );
        // NULL OR TRUE = TRUE
        assert_eq!(
            eval(&Expr::binary(null.clone(), BinaryOp::Or, t)),
            Value::Bool(true)
        );
        // NULL = NULL is NULL
        assert_eq!(
            eval(&Expr::binary(null.clone(), BinaryOp::Eq, null)),
            Value::Null
        );
    }

    #[test]
    fn predicate_null_is_false() {
        let e = Expr::binary(Expr::lit(Value::Null), BinaryOp::Eq, Expr::lit(1i64));
        assert!(!e.eval_predicate(&schema(), &row(), &BuiltinFns).unwrap());
    }

    #[test]
    fn between_and_in() {
        let e = Expr::Between {
            expr: Box::new(Expr::col("a")),
            lo: Box::new(Expr::lit(5i64)),
            hi: Box::new(Expr::lit(15i64)),
        };
        assert_eq!(eval(&e), Value::Bool(true));
        let e = Expr::InList {
            expr: Box::new(Expr::col("a")),
            list: vec![Expr::lit(1i64), Expr::lit(10i64)],
            negated: false,
        };
        assert_eq!(eval(&e), Value::Bool(true));
        let e = Expr::InList {
            expr: Box::new(Expr::col("a")),
            list: vec![Expr::lit(1i64)],
            negated: true,
        };
        assert_eq!(eval(&e), Value::Bool(true));
    }

    #[test]
    fn is_null() {
        let e = Expr::IsNull {
            expr: Box::new(Expr::lit(Value::Null)),
            negated: false,
        };
        assert_eq!(eval(&e), Value::Bool(true));
        let e = Expr::IsNull {
            expr: Box::new(Expr::col("a")),
            negated: true,
        };
        assert_eq!(eval(&e), Value::Bool(true));
    }

    #[test]
    fn builtin_functions() {
        let e = Expr::Function {
            name: "abs".into(),
            args: vec![Expr::binary(Expr::lit(0i64), BinaryOp::Sub, Expr::col("a"))],
        };
        assert_eq!(eval(&e), Value::Int(10));
        let e = Expr::Function {
            name: "UPPER".into(),
            args: vec![Expr::col("s")],
        };
        assert_eq!(eval(&e), Value::Text("HELLO".into()));
        let e = Expr::Function {
            name: "NOPE".into(),
            args: vec![],
        };
        assert!(e.eval(&schema(), &row(), &BuiltinFns).is_err());
    }

    #[test]
    fn division_by_zero_errors() {
        let e = Expr::binary(Expr::lit(1i64), BinaryOp::Div, Expr::lit(0i64));
        assert!(e.eval(&schema(), &row(), &BuiltinFns).is_err());
    }

    #[test]
    fn qualified_column_falls_back_to_bare() {
        let e = Expr::qcol("t", "a");
        assert_eq!(eval(&e), Value::Int(10));
    }

    #[test]
    fn in_and_conjuncts_stop_at_the_first_decisive_item() {
        let one_over_zero = Expr::binary(Expr::lit(1i64), BinaryOp::Div, Expr::lit(0i64));
        let e = Expr::InList {
            expr: Box::new(Expr::col("a")),
            list: vec![Expr::lit(10i64), one_over_zero.clone()],
            negated: false,
        };
        assert_eq!(eval(&e), Value::Bool(true));
        let e = Expr::InList {
            expr: Box::new(Expr::lit(Value::Null)),
            list: vec![one_over_zero.clone()],
            negated: false,
        };
        assert_eq!(eval(&e), Value::Null);
        let rejects = Expr::binary(Expr::col("a"), BinaryOp::Lt, Expr::lit(0i64));
        let raises = Expr::binary(one_over_zero, BinaryOp::Gt, Expr::lit(2i64));
        let shielded = Expr::binary(rejects.clone(), BinaryOp::And, raises.clone());
        assert_eq!(
            shielded.eval_predicate(&schema(), &row(), &BuiltinFns),
            Ok(false)
        );
        let exposed = Expr::binary(raises, BinaryOp::And, rejects);
        assert!(exposed
            .eval_predicate(&schema(), &row(), &BuiltinFns)
            .is_err());
    }
}
