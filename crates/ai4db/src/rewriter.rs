//! Learned SQL rewriter (E4a).
//!
//! The tutorial: "there are numerous rewrite orders for a slow query …
//! traditional empirical query rewriting methods only rewrite in a fixed
//! order and may derive suboptimal queries. Instead, deep reinforcement
//! learning can be used to judiciously select the appropriate rules and
//! apply the rules in a good order."
//!
//! We implement four classic predicate-rewrite rules whose effects cascade
//! (folding enables simplification enables contradiction detection), a
//! fixed-order single-pass baseline, an exhaustive fixpoint reference, and
//! an MCTS rewriter that searches over rule sequences with a bounded
//! application budget.

use rand::rngs::StdRng;

use aimdb_common::Value;
use aimdb_ml::mcts::{mcts_plan, MctsEnv};
use aimdb_sql::expr::{BinaryOp, BuiltinFns, UnaryOp};
use aimdb_sql::vexpr::eval_const;
use aimdb_sql::Expr;

/// The rewrite rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Evaluate operators over literals: `1 + 2` → `3`, `2 < 1` → FALSE.
    ConstFold,
    /// Boolean identities: `x AND TRUE` → `x`, `x OR TRUE` → TRUE,
    /// `NOT NOT x` → `x`, `NOT TRUE` → FALSE.
    SimplifyLogic,
    /// `a >= lo AND a <= hi` → `a BETWEEN lo AND hi`.
    MergeRange,
    /// `a = c1 AND a = c2` (c1 ≠ c2) → FALSE;
    /// `a BETWEEN lo AND hi` with lo > hi → FALSE.
    DetectContradiction,
}

impl Rule {
    pub const ALL: [Rule; 4] = [
        Rule::ConstFold,
        Rule::SimplifyLogic,
        Rule::MergeRange,
        Rule::DetectContradiction,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            Rule::ConstFold => "const-fold",
            Rule::SimplifyLogic => "simplify-logic",
            Rule::MergeRange => "merge-range",
            Rule::DetectContradiction => "detect-contradiction",
        }
    }
}

/// Complexity of an expression: node count. The rewriter's objective is
/// minimizing this (a proxy for per-row predicate evaluation work), with
/// constant-FALSE/TRUE results being maximally cheap.
pub fn expr_size(e: &Expr) -> usize {
    1 + e.children().into_iter().map(expr_size).sum::<usize>()
}

/// Apply one rule everywhere in the tree (one pass). Returns `None` if
/// nothing changed.
pub fn apply_rule(e: &Expr, rule: Rule) -> Option<Expr> {
    let out = rewrite(e, rule);
    if &out == e {
        None
    } else {
        Some(out)
    }
}

fn rewrite(e: &Expr, rule: Rule) -> Expr {
    // rewrite children first (bottom-up single pass)
    let e = match e {
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(rewrite(left, rule)),
            op: *op,
            right: Box::new(rewrite(right, rule)),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(rewrite(expr, rule)),
        },
        Expr::Between { expr, lo, hi } => Expr::Between {
            expr: Box::new(rewrite(expr, rule)),
            lo: Box::new(rewrite(lo, rule)),
            hi: Box::new(rewrite(hi, rule)),
        },
        other => other.clone(),
    };
    match rule {
        Rule::ConstFold => fold(&e),
        Rule::SimplifyLogic => simplify(&e),
        Rule::MergeRange => merge_range(&e),
        Rule::DetectContradiction => contradiction(&e),
    }
}

fn as_lit(e: &Expr) -> Option<&Value> {
    match e {
        Expr::Literal(v) => Some(v),
        _ => None,
    }
}

fn fold(e: &Expr) -> Expr {
    if let Expr::Binary { left, right, .. } = e {
        if as_lit(left).is_some() && as_lit(right).is_some() {
            if let Ok(v) = eval_const(e, &BuiltinFns) {
                return Expr::Literal(v);
            }
        }
    }
    if let Expr::Unary {
        op: UnaryOp::Neg,
        expr,
    } = e
    {
        if let Some(Value::Int(i)) = as_lit(expr) {
            return Expr::Literal(Value::Int(-i));
        }
        if let Some(Value::Float(f)) = as_lit(expr) {
            return Expr::Literal(Value::Float(-f));
        }
    }
    e.clone()
}

fn simplify(e: &Expr) -> Expr {
    match e {
        Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => match (as_lit(left), as_lit(right)) {
            (Some(Value::Bool(true)), _) => (**right).clone(),
            (_, Some(Value::Bool(true))) => (**left).clone(),
            (Some(Value::Bool(false)), _) | (_, Some(Value::Bool(false))) => {
                Expr::Literal(Value::Bool(false))
            }
            _ => e.clone(),
        },
        Expr::Binary {
            left,
            op: BinaryOp::Or,
            right,
        } => match (as_lit(left), as_lit(right)) {
            (Some(Value::Bool(false)), _) => (**right).clone(),
            (_, Some(Value::Bool(false))) => (**left).clone(),
            (Some(Value::Bool(true)), _) | (_, Some(Value::Bool(true))) => {
                Expr::Literal(Value::Bool(true))
            }
            _ => e.clone(),
        },
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => match expr.as_ref() {
            Expr::Literal(Value::Bool(b)) => Expr::Literal(Value::Bool(!b)),
            Expr::Unary {
                op: UnaryOp::Not,
                expr: inner,
            } => (**inner).clone(),
            _ => e.clone(),
        },
        _ => e.clone(),
    }
}

fn merge_range(e: &Expr) -> Expr {
    // a >= lo AND a <= hi  (literal bounds, same column)
    if let Expr::Binary {
        left,
        op: BinaryOp::And,
        right,
    } = e
    {
        if let (
            Expr::Binary {
                left: c1,
                op: BinaryOp::Gte,
                right: lo,
            },
            Expr::Binary {
                left: c2,
                op: BinaryOp::Lte,
                right: hi,
            },
        ) = (left.as_ref(), right.as_ref())
        {
            if c1 == c2 && as_lit(lo).is_some() && as_lit(hi).is_some() {
                if let Expr::Column { .. } = c1.as_ref() {
                    return Expr::Between {
                        expr: c1.clone(),
                        lo: lo.clone(),
                        hi: hi.clone(),
                    };
                }
            }
        }
    }
    e.clone()
}

fn contradiction(e: &Expr) -> Expr {
    match e {
        // a = c1 AND a = c2 with different constants
        Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            if let (
                Expr::Binary {
                    left: c1,
                    op: BinaryOp::Eq,
                    right: v1,
                },
                Expr::Binary {
                    left: c2,
                    op: BinaryOp::Eq,
                    right: v2,
                },
            ) = (left.as_ref(), right.as_ref())
            {
                if c1 == c2 {
                    if let (Some(a), Some(b)) = (as_lit(v1), as_lit(v2)) {
                        if a != b {
                            return Expr::Literal(Value::Bool(false));
                        }
                    }
                }
            }
            e.clone()
        }
        Expr::Between { expr: _, lo, hi } => {
            if let (Some(l), Some(h)) = (as_lit(lo), as_lit(hi)) {
                if let Some(std::cmp::Ordering::Greater) = l.sql_cmp(h) {
                    return Expr::Literal(Value::Bool(false));
                }
            }
            e.clone()
        }
        _ => e.clone(),
    }
}

/// Outcome of a rewrite strategy.
#[derive(Debug, Clone)]
pub struct RewriteReport {
    pub method: String,
    pub final_expr: Expr,
    pub initial_size: usize,
    pub final_size: usize,
    pub applications: usize,
}

/// The baseline's rule order. Rule registries conventionally order rules
/// specific-to-general (try the strongest rewrite first); with cascading
/// rules that order misses enablements — exactly the "fixed order may
/// derive suboptimal queries" problem the tutorial describes.
pub const FIXED_ORDER: [Rule; 4] = [
    Rule::DetectContradiction,
    Rule::MergeRange,
    Rule::SimplifyLogic,
    Rule::ConstFold,
];

/// Baseline: one pass applying each rule once in registry order.
pub fn rewrite_fixed(e: &Expr) -> RewriteReport {
    let initial = expr_size(e);
    let mut cur = e.clone();
    let mut apps = 0;
    for r in FIXED_ORDER {
        apps += 1;
        if let Some(next) = apply_rule(&cur, r) {
            cur = next;
        }
    }
    RewriteReport {
        method: "fixed-order".into(),
        initial_size: initial,
        final_size: expr_size(&cur),
        final_expr: cur,
        applications: apps,
    }
}

/// Reference: apply rules to a fixpoint (best possible result, highest
/// application count).
pub fn rewrite_fixpoint(e: &Expr) -> RewriteReport {
    let initial = expr_size(e);
    let mut cur = e.clone();
    let mut apps = 0;
    loop {
        let mut changed = false;
        for r in Rule::ALL {
            apps += 1;
            if let Some(next) = apply_rule(&cur, r) {
                cur = next;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    RewriteReport {
        method: "fixpoint".into(),
        initial_size: initial,
        final_size: expr_size(&cur),
        final_expr: cur,
        applications: apps,
    }
}

struct RewriteEnv {
    budget: usize,
}

impl MctsEnv for RewriteEnv {
    type State = (Expr, usize); // (expr, applications used)
    type Action = Rule;

    fn actions(&self, s: &(Expr, usize)) -> Vec<Rule> {
        if s.1 >= self.budget {
            return vec![];
        }
        Rule::ALL
            .into_iter()
            .filter(|r| apply_rule(&s.0, *r).is_some())
            .collect()
    }

    fn apply(&self, s: &(Expr, usize), a: &Rule) -> (Expr, usize) {
        let next = apply_rule(&s.0, *a).unwrap_or_else(|| s.0.clone());
        (next, s.1 + 1)
    }

    fn terminal_reward(&self, s: &(Expr, usize)) -> f64 {
        // size reduction, scaled to [0,1]-ish; constant result is best
        let size = expr_size(&s.0) as f64;
        let bonus = match &s.0 {
            Expr::Literal(Value::Bool(_)) => 0.5,
            _ => 0.0,
        };
        1.0 / size + bonus
    }

    fn rollout(&self, state: &(Expr, usize), rng: &mut StdRng) -> f64 {
        use rand::Rng;
        let mut s = state.clone();
        loop {
            let acts = self.actions(&s);
            if acts.is_empty() {
                return self.terminal_reward(&s);
            }
            let a = acts[rng.gen_range(0..acts.len())];
            s = self.apply(&s, &a);
        }
    }
}

/// Learned rewriter: MCTS over rule sequences with a bounded application
/// budget — fewer applications than a fixpoint, better results than a
/// single fixed-order pass.
pub fn rewrite_mcts(e: &Expr, budget: usize, iters: usize, seed: u64) -> RewriteReport {
    let env = RewriteEnv { budget };
    let initial = expr_size(e);
    let (plan, (final_expr, _)) = mcts_plan(&env, (e.clone(), 0), iters, 1.0, seed);
    RewriteReport {
        method: "mcts".into(),
        initial_size: initial,
        final_size: expr_size(&final_expr),
        final_expr,
        applications: plan.len(),
    }
}

/// A workload of rewrite-rich predicates exercising rule cascades: the
/// contradiction only becomes visible after folding and simplification.
pub fn cascade_workload() -> Vec<Expr> {
    use aimdb_sql::Expr as E;
    let c = |n: &str| E::col(n);
    let l = |v: i64| E::lit(v);
    vec![
        // (a >= 1+1 AND a <= 10-8) AND b = 5 — fold → merge → BETWEEN 2..2
        E::binary(
            E::binary(
                E::binary(c("a"), BinaryOp::Gte, E::binary(l(1), BinaryOp::Add, l(1))),
                BinaryOp::And,
                E::binary(c("a"), BinaryOp::Lte, E::binary(l(10), BinaryOp::Sub, l(8))),
            ),
            BinaryOp::And,
            E::binary(c("b"), BinaryOp::Eq, l(5)),
        ),
        // a = 3 AND a = 2+2 — fold reveals contradiction
        E::binary(
            E::binary(c("a"), BinaryOp::Eq, l(3)),
            BinaryOp::And,
            E::binary(c("a"), BinaryOp::Eq, E::binary(l(2), BinaryOp::Add, l(2))),
        ),
        // (x > 0 AND TRUE) AND (1 = 1) — simplify + fold chains
        E::binary(
            E::binary(
                E::binary(c("x"), BinaryOp::Gt, l(0)),
                BinaryOp::And,
                E::lit(true),
            ),
            BinaryOp::And,
            E::binary(l(1), BinaryOp::Eq, l(1)),
        ),
        // a >= 5+1 AND a <= 4 — fold → merge → contradiction (lo > hi)
        E::binary(
            E::binary(c("a"), BinaryOp::Gte, E::binary(l(5), BinaryOp::Add, l(1))),
            BinaryOp::And,
            E::binary(c("a"), BinaryOp::Lte, l(4)),
        ),
        // NOT NOT (b = 1) AND TRUE
        E::binary(
            E::Unary {
                op: UnaryOp::Not,
                expr: Box::new(E::Unary {
                    op: UnaryOp::Not,
                    expr: Box::new(E::binary(c("b"), BinaryOp::Eq, l(1))),
                }),
            },
            BinaryOp::And,
            E::lit(true),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_fold_arithmetic_and_comparison() {
        let e = Expr::binary(Expr::lit(1i64), BinaryOp::Add, Expr::lit(2i64));
        assert_eq!(apply_rule(&e, Rule::ConstFold).unwrap(), Expr::lit(3i64));
        let e = Expr::binary(Expr::lit(2i64), BinaryOp::Lt, Expr::lit(1i64));
        assert_eq!(apply_rule(&e, Rule::ConstFold).unwrap(), Expr::lit(false));
        // no change → None
        assert!(apply_rule(&Expr::col("a"), Rule::ConstFold).is_none());
    }

    #[test]
    fn simplify_boolean_identities() {
        let x = Expr::binary(Expr::col("x"), BinaryOp::Gt, Expr::lit(0i64));
        let e = Expr::binary(x.clone(), BinaryOp::And, Expr::lit(true));
        assert_eq!(apply_rule(&e, Rule::SimplifyLogic).unwrap(), x);
        let e = Expr::binary(x.clone(), BinaryOp::Or, Expr::lit(true));
        assert_eq!(
            apply_rule(&e, Rule::SimplifyLogic).unwrap(),
            Expr::lit(true)
        );
        let e = Expr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(x.clone()),
            }),
        };
        assert_eq!(apply_rule(&e, Rule::SimplifyLogic).unwrap(), x);
    }

    #[test]
    fn merge_and_contradict() {
        let e = Expr::binary(
            Expr::binary(Expr::col("a"), BinaryOp::Gte, Expr::lit(6i64)),
            BinaryOp::And,
            Expr::binary(Expr::col("a"), BinaryOp::Lte, Expr::lit(4i64)),
        );
        let merged = apply_rule(&e, Rule::MergeRange).unwrap();
        assert!(matches!(merged, Expr::Between { .. }));
        let end = apply_rule(&merged, Rule::DetectContradiction).unwrap();
        assert_eq!(end, Expr::lit(false));
    }

    #[test]
    fn fixpoint_dominates_fixed_pass() {
        for e in cascade_workload() {
            let fixed = rewrite_fixed(&e);
            let fixpoint = rewrite_fixpoint(&e);
            assert!(fixpoint.final_size <= fixed.final_size);
        }
    }

    #[test]
    fn mcts_beats_fixed_order_on_cascades() {
        let mut mcts_total = 0usize;
        let mut fixed_total = 0usize;
        let mut fixpoint_total = 0usize;
        for (i, e) in cascade_workload().iter().enumerate() {
            let fixed = rewrite_fixed(e);
            let m = rewrite_mcts(e, 6, 300, 42 + i as u64);
            let fp = rewrite_fixpoint(e);
            mcts_total += m.final_size;
            fixed_total += fixed.final_size;
            fixpoint_total += fp.final_size;
        }
        assert!(
            mcts_total < fixed_total,
            "mcts {mcts_total} vs fixed {fixed_total}"
        );
        assert!(
            mcts_total <= fixpoint_total + 2,
            "mcts near fixpoint quality"
        );
    }

    #[test]
    fn mcts_uses_fewer_applications_than_fixpoint() {
        let e = &cascade_workload()[0];
        let m = rewrite_mcts(e, 6, 300, 3);
        let fp = rewrite_fixpoint(e);
        assert!(m.applications <= 6);
        assert!(fp.applications > m.applications);
    }

    #[test]
    fn rewrites_preserve_semantics() {
        use aimdb_common::{Batch, DataType, Row, Schema};
        use aimdb_sql::vexpr::{compile, eval_filter};
        let schema = Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("x", DataType::Int),
        ]);
        let rows: Vec<Row> = (0..64)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i % 8),
                    Value::Int(i % 3),
                    Value::Int(i - 32),
                ])
            })
            .collect();
        let batch = Batch::from_rows(&schema, &rows);
        let kept = |e: &Expr| {
            let v = compile(e, &schema).unwrap();
            eval_filter(&v, &batch, &BuiltinFns).unwrap()
        };
        for e in cascade_workload() {
            let rewritten = rewrite_fixpoint(&e).final_expr;
            assert_eq!(kept(&e), kept(&rewritten), "semantics changed for {e:?}");
        }
    }
}
