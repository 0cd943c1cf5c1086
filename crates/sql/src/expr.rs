//! Expression trees and the per-value rules of SQL three-valued logic.
//!
//! An [`Expr`] is what the parser builds and the planner rewrites.
//! Column references may be qualified (`t.a`) or bare (`a`); the
//! engine evaluates an expression only after [`crate::vexpr::compile`]
//! has resolved them against an operator's input schema, with the batch
//! kernels of [`crate::vexpr`]. This module keeps the rules those
//! kernels apply a value at a time ([`eval_binary`], [`like_match`]).
//! Scalar functions are dispatched through the [`ScalarFns`] trait, and
//! the AISQL `PREDICT` is bound at plan time to a [`BoundModel`], so the
//! SQL crate stays free of engine/model dependencies.

use std::fmt;
use std::sync::Arc;

use aimdb_common::{AimError, ColVec, Result, Value};

/// Binary operators, in ascending precedence groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    Or,
    And,
    Eq,
    Neq,
    Lt,
    Lte,
    Gt,
    Gte,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinaryOp::Or => "OR",
            BinaryOp::And => "AND",
            BinaryOp::Eq => "=",
            BinaryOp::Neq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::Lte => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Gte => ">=",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
        };
        f.write_str(s)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Not,
    Neg,
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference; `qualifier` is the table name/alias if written.
    Column {
        qualifier: Option<String>,
        name: String,
    },
    Literal(Value),
    Binary {
        left: Box<Expr>,
        op: BinaryOp,
        right: Box<Expr>,
    },
    Unary {
        op: UnaryOp,
        expr: Box<Expr>,
    },
    /// `expr IS NULL` / `expr IS NOT NULL`
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    /// `expr BETWEEN lo AND hi`
    Between {
        expr: Box<Expr>,
        lo: Box<Expr>,
        hi: Box<Expr>,
    },
    /// `expr IN (v1, v2, ...)`
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// `expr LIKE 'pat%'` — `%` multi-char, `_` single-char wildcards.
    Like {
        expr: Box<Expr>,
        pattern: String,
        negated: bool,
    },
    /// Scalar function call, e.g. `ABS(x)`. The parser also emits
    /// `PREDICT(model, a, b)` in this form; the planner replaces it with
    /// [`Expr::Predict`] before the plan leaves it.
    Function {
        name: String,
        args: Vec<Expr>,
    },
    /// `PREDICT(model, args…)` bound to the model version this statement
    /// predicts with. `args` are the feature expressions only.
    Predict {
        model: ModelRef,
        args: Vec<Expr>,
    },
}

/// One version of a trained model, resolved once when a statement is
/// planned. Everything the statement predicts goes through this
/// snapshot, so a re-train that lands mid-scan cannot change the answer
/// half way, and the row loop takes no lock and looks nothing up.
pub trait BoundModel: Send + Sync {
    fn name(&self) -> &str;
    fn version(&self) -> u32;
    /// Model family, for `EXPLAIN` (e.g. `linear`, `tree`).
    fn kind(&self) -> &str;
    /// Number of feature arguments the model takes.
    fn arity(&self) -> usize;
    /// Predict every row of a column batch: `cols[j]` is feature `j`,
    /// `out[i]` receives row `i`'s prediction. A NULL or non-numeric
    /// lane is the type error [`Value::as_f64`] reports for it.
    fn predict_batch(&self, cols: &[ColVec], out: &mut [f64]) -> Result<()>;

    /// One row: a batch of one.
    fn predict_row(&self, inputs: &[Value]) -> Result<Value> {
        let cols: Vec<ColVec> = inputs
            .iter()
            .map(|v| ColVec::from_values(vec![v.clone()]))
            .collect();
        let mut out = [0.0];
        self.predict_batch(&cols, &mut out)?;
        Ok(Value::Float(out[0]))
    }
}

/// Shared handle to a [`BoundModel`]. Two handles are equal when they
/// point at the same snapshot.
#[derive(Clone)]
pub struct ModelRef(pub Arc<dyn BoundModel>);

impl PartialEq for ModelRef {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl fmt::Debug for ModelRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} v{} {}",
            self.0.name(),
            self.0.version(),
            self.0.kind()
        )
    }
}

impl Expr {
    pub fn col(name: &str) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.to_string(),
        }
    }

    pub fn qcol(q: &str, name: &str) -> Expr {
        Expr::Column {
            qualifier: Some(q.to_string()),
            name: name.to_string(),
        }
    }

    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    /// Conjunction of a list of predicates (`None` for the empty list).
    pub fn conjunction(mut preds: Vec<Expr>) -> Option<Expr> {
        let first = if preds.is_empty() {
            return None;
        } else {
            preds.remove(0)
        };
        Some(
            preds
                .into_iter()
                .fold(first, |acc, p| Expr::binary(acc, BinaryOp::And, p)),
        )
    }

    /// Split a predicate into its AND-ed conjuncts.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        match self {
            Expr::Binary {
                left,
                op: BinaryOp::And,
                right,
            } => {
                let mut out = left.conjuncts();
                out.extend(right.conjuncts());
                out
            }
            other => vec![other],
        }
    }

    /// Column names referenced anywhere in this expression. The first
    /// argument of an unbound `PREDICT(model, ...)` is a model name, not
    /// a column, and is skipped.
    pub fn referenced_columns(&self) -> Vec<(Option<&str>, &str)> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Column { qualifier, name } = e {
                out.push((qualifier.as_deref(), name.as_str()));
            }
        });
        out
    }

    fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        // an unbound PREDICT's model-name argument must not be visited as
        // a column
        let skip = match self {
            Expr::Function { name, args } if name.eq_ignore_ascii_case("PREDICT") => {
                usize::from(!args.is_empty())
            }
            _ => 0,
        };
        for child in self.children().into_iter().skip(skip) {
            child.visit(f);
        }
    }

    /// Direct sub-expressions, in evaluation order.
    pub fn children(&self) -> Vec<&Expr> {
        match self {
            Expr::Column { .. } | Expr::Literal(_) => vec![],
            Expr::Binary { left, right, .. } => vec![left, right],
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => {
                vec![expr]
            }
            Expr::Between { expr, lo, hi } => vec![expr, lo, hi],
            Expr::InList { expr, list, .. } => std::iter::once(expr.as_ref()).chain(list).collect(),
            Expr::Function { args, .. } | Expr::Predict { args, .. } => args.iter().collect(),
        }
    }

    /// [`Self::children`], mutably.
    pub fn children_mut(&mut self) -> Vec<&mut Expr> {
        match self {
            Expr::Column { .. } | Expr::Literal(_) => vec![],
            Expr::Binary { left, right, .. } => vec![left, right],
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => {
                vec![expr]
            }
            Expr::Between { expr, lo, hi } => vec![expr, lo, hi],
            Expr::InList { expr, list, .. } => std::iter::once(expr.as_mut()).chain(list).collect(),
            Expr::Function { args, .. } | Expr::Predict { args, .. } => args.iter_mut().collect(),
        }
    }
}

/// One SQL binary operator on two values: three-valued AND/OR, NULL
/// for a comparison with NULL, wrapping integer arithmetic, Float
/// otherwise, and division by zero an error. The kernels' fallback for
/// lanes no typed loop covers.
pub fn eval_binary(l: &Value, op: BinaryOp, r: &Value) -> Result<Value> {
    use BinaryOp::*;
    match op {
        And => match (l, r) {
            (Value::Bool(false), _) | (_, Value::Bool(false)) => Ok(Value::Bool(false)),
            (Value::Bool(true), Value::Bool(true)) => Ok(Value::Bool(true)),
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            _ => Err(AimError::TypeMismatch("AND requires booleans".into())),
        },
        Or => match (l, r) {
            (Value::Bool(true), _) | (_, Value::Bool(true)) => Ok(Value::Bool(true)),
            (Value::Bool(false), Value::Bool(false)) => Ok(Value::Bool(false)),
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            _ => Err(AimError::TypeMismatch("OR requires booleans".into())),
        },
        Eq | Neq | Lt | Lte | Gt | Gte => {
            let Some(ord) = l.sql_cmp(r) else {
                return Ok(Value::Null);
            };
            use std::cmp::Ordering::*;
            let b = match op {
                Eq => ord == Equal,
                Neq => ord != Equal,
                Lt => ord == Less,
                Lte => ord != Greater,
                Gt => ord == Greater,
                Gte => ord != Less,
                _ => unreachable!(),
            };
            Ok(Value::Bool(b))
        }
        Add | Sub | Mul | Div | Mod => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            // integer arithmetic stays integral; anything float widens
            if let (Value::Int(a), Value::Int(b)) = (l, r) {
                return match op {
                    Add => Ok(Value::Int(a.wrapping_add(*b))),
                    Sub => Ok(Value::Int(a.wrapping_sub(*b))),
                    Mul => Ok(Value::Int(a.wrapping_mul(*b))),
                    Div => {
                        if *b == 0 {
                            Err(AimError::Execution("division by zero".into()))
                        } else {
                            Ok(Value::Int(a.wrapping_div(*b)))
                        }
                    }
                    Mod => {
                        if *b == 0 {
                            Err(AimError::Execution("division by zero".into()))
                        } else {
                            Ok(Value::Int(a.wrapping_rem(*b)))
                        }
                    }
                    _ => unreachable!(),
                };
            }
            let a = l.as_f64()?;
            let b = r.as_f64()?;
            let out = match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => {
                    if b == 0.0 {
                        return Err(AimError::Execution("division by zero".into()));
                    }
                    a / b
                }
                Mod => {
                    if b == 0.0 {
                        return Err(AimError::Execution("division by zero".into()));
                    }
                    a % b
                }
                _ => unreachable!(),
            };
            Ok(Value::Float(out))
        }
    }
}

/// SQL LIKE matching with `%` and `_` wildcards (case-sensitive).
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match (p.first(), s.first()) {
            (None, None) => true,
            (None, Some(_)) => false,
            (Some('%'), _) => {
                // match zero chars, or consume one input char
                rec(s, &p[1..]) || (!s.is_empty() && rec(&s[1..], p))
            }
            (Some('_'), Some(_)) => rec(&s[1..], &p[1..]),
            (Some(pc), Some(sc)) if pc == sc => rec(&s[1..], &p[1..]),
            _ => false,
        }
    }
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&s, &p)
}

/// Registry of scalar functions available to expressions. The engine
/// implements this; [`BuiltinFns`] covers the pure built-ins.
/// `Send + Sync` so compiled expressions can be evaluated from morsel
/// worker threads sharing one registry reference.
pub trait ScalarFns: Send + Sync {
    fn call(&self, name: &str, args: &[Value]) -> Result<Value>;
}

/// Pure built-in scalar functions: ABS, FLOOR, CEIL, ROUND, SQRT, LN, EXP,
/// LOWER, UPPER, LENGTH.
#[derive(Debug, Default, Clone, Copy)]
pub struct BuiltinFns;

impl ScalarFns for BuiltinFns {
    fn call(&self, name: &str, args: &[Value]) -> Result<Value> {
        let argc = |n: usize| -> Result<()> {
            if args.len() != n {
                Err(AimError::TypeMismatch(format!(
                    "{name} expects {n} argument(s), got {}",
                    args.len()
                )))
            } else {
                Ok(())
            }
        };
        if args.iter().any(Value::is_null) {
            return Ok(Value::Null);
        }
        match name.to_ascii_uppercase().as_str() {
            "ABS" => {
                argc(1)?;
                Ok(match &args[0] {
                    Value::Int(i) => Value::Int(i.abs()),
                    v => Value::Float(v.as_f64()?.abs()),
                })
            }
            "FLOOR" => {
                argc(1)?;
                Ok(Value::Float(args[0].as_f64()?.floor()))
            }
            "CEIL" => {
                argc(1)?;
                Ok(Value::Float(args[0].as_f64()?.ceil()))
            }
            "ROUND" => {
                argc(1)?;
                Ok(Value::Float(args[0].as_f64()?.round()))
            }
            "SQRT" => {
                argc(1)?;
                Ok(Value::Float(args[0].as_f64()?.sqrt()))
            }
            "LN" => {
                argc(1)?;
                Ok(Value::Float(args[0].as_f64()?.ln()))
            }
            "EXP" => {
                argc(1)?;
                Ok(Value::Float(args[0].as_f64()?.exp()))
            }
            "LOWER" => {
                argc(1)?;
                Ok(Value::Text(args[0].as_str()?.to_lowercase()))
            }
            "UPPER" => {
                argc(1)?;
                Ok(Value::Text(args[0].as_str()?.to_uppercase()))
            }
            "LENGTH" => {
                argc(1)?;
                Ok(Value::Int(args[0].as_str()?.chars().count() as i64))
            }
            other => Err(AimError::NotFound(format!("scalar function {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "h_llo"));
        assert!(like_match("hello", "%"));
        assert!(!like_match("hello", "H%"));
        assert!(!like_match("hello", "h_"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
    }

    #[test]
    fn conjuncts_flatten() {
        let p = Expr::conjunction(vec![
            Expr::lit(true),
            Expr::lit(false),
            Expr::binary(Expr::col("a"), BinaryOp::Eq, Expr::lit(1i64)),
        ])
        .unwrap();
        assert_eq!(p.conjuncts().len(), 3);
        assert!(Expr::conjunction(vec![]).is_none());
    }

    #[test]
    fn referenced_columns_collects() {
        let e = Expr::binary(
            Expr::qcol("t", "a"),
            BinaryOp::Add,
            Expr::Function {
                name: "ABS".into(),
                args: vec![Expr::col("b")],
            },
        );
        let cols = e.referenced_columns();
        assert_eq!(cols, vec![(Some("t"), "a"), (None, "b")]);
    }
}
