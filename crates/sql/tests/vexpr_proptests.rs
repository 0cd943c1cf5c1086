//! Property tests: the vectorized expression kernels must agree with the
//! reference row evaluator (`aimdb_oracle::RowEval`) on arbitrary
//! expressions over arbitrary batches.
//!
//! The contract (documented in `vexpr`): for every expression the batch
//! evaluation succeeds iff row evaluation succeeds on every row, and
//! on success lane `i` equals the row result for row `i`. Inputs lean
//! on the edges — NULLs everywhere, `i64::MAX`/`i64::MIN+1` for wrapping
//! overflow, NaN and subnormal floats for total-order comparisons, and
//! Int/Float/Bool mixes for numeric coercion.

use proptest::prelude::*;

use aimdb_common::{Batch, Column, DataType, Row, Schema, Value};
use aimdb_oracle::RowEval;
use aimdb_sql::expr::{BinaryOp, BuiltinFns, UnaryOp};
use aimdb_sql::vexpr;
use aimdb_sql::Expr;

fn test_schema() -> Schema {
    Schema::new(vec![
        Column::new("a", DataType::Int),
        Column::new("b", DataType::Int),
        Column::new("c", DataType::Float),
        Column::new("d", DataType::Bool),
        Column::new("e", DataType::Text),
    ])
}

fn arb_int() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        Just(Value::Int(i64::MAX)),
        Just(Value::Int(i64::MIN + 1)),
        Just(Value::Int(0)),
        (-100i64..100).prop_map(Value::Int),
    ]
}

fn arb_float() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(f64::INFINITY)),
        Just(Value::Float(-0.0)),
        (-50i64..50).prop_map(|i| Value::Float(i as f64 / 3.0)),
    ]
}

fn arb_bool() -> impl Strategy<Value = Value> {
    prop_oneof![Just(Value::Null), any::<bool>().prop_map(Value::Bool),]
}

fn arb_text() -> impl Strategy<Value = Value> {
    prop_oneof![Just(Value::Null), "[a-c ]{0,6}".prop_map(Value::Text),]
}

/// Build an expression tree from a stream of random bytes. Column
/// references always resolve (names come from the fixed schema), so
/// compilation never fails and every generated tree exercises the
/// runtime kernels rather than the resolver.
fn nb(bytes: &mut std::slice::Iter<'_, u8>, fallback: u8) -> u8 {
    *bytes.next().unwrap_or(&fallback)
}

fn gen_expr(bytes: &mut std::slice::Iter<'_, u8>, depth: u32) -> Expr {
    let b = nb(bytes, 0);
    if depth == 0 || b % 16 < 4 {
        // leaf: column or literal
        return if b.is_multiple_of(2) {
            Expr::col(["a", "b", "c", "d", "e"][(b as usize / 2) % 5])
        } else {
            gen_literal(nb(bytes, 1))
        };
    }
    match b % 16 {
        4..=8 => {
            let op = [
                BinaryOp::And,
                BinaryOp::Or,
                BinaryOp::Eq,
                BinaryOp::Neq,
                BinaryOp::Lt,
                BinaryOp::Lte,
                BinaryOp::Gt,
                BinaryOp::Gte,
                BinaryOp::Add,
                BinaryOp::Sub,
                BinaryOp::Mul,
                BinaryOp::Div,
                BinaryOp::Mod,
            ][nb(bytes, 2) as usize % 13];
            Expr::binary(gen_expr(bytes, depth - 1), op, gen_expr(bytes, depth - 1))
        }
        9 => Expr::Unary {
            op: if nb(bytes, 3).is_multiple_of(2) {
                UnaryOp::Not
            } else {
                UnaryOp::Neg
            },
            expr: Box::new(gen_expr(bytes, depth - 1)),
        },
        10 => Expr::IsNull {
            expr: Box::new(gen_expr(bytes, depth - 1)),
            negated: nb(bytes, 4).is_multiple_of(2),
        },
        11 => Expr::Between {
            expr: Box::new(gen_expr(bytes, depth - 1)),
            lo: Box::new(gen_expr(bytes, depth - 1)),
            hi: Box::new(gen_expr(bytes, depth - 1)),
        },
        12 => Expr::InList {
            expr: Box::new(gen_expr(bytes, depth - 1)),
            list: vec![gen_expr(bytes, depth - 1), gen_expr(bytes, depth - 1)],
            negated: nb(bytes, 5).is_multiple_of(2),
        },
        13 => Expr::Like {
            expr: Box::new(gen_expr(bytes, depth - 1)),
            pattern: ["%a%", "a_c", "", "%"][nb(bytes, 6) as usize % 4].to_string(),
            negated: nb(bytes, 7).is_multiple_of(2),
        },
        _ => Expr::Function {
            name: ["ABS", "LENGTH", "UPPER", "FLOOR", "SQRT"][nb(bytes, 8) as usize % 5]
                .to_string(),
            args: vec![gen_expr(bytes, depth - 1)],
        },
    }
}

fn gen_literal(b: u8) -> Expr {
    match b % 8 {
        0 => Expr::Literal(Value::Null),
        1 => Expr::Literal(Value::Int(i64::MAX)),
        2 => Expr::Literal(Value::Int(b as i64 - 128)),
        3 => Expr::Literal(Value::Int(0)),
        4 => Expr::Literal(Value::Float(b as f64 / 7.0 - 9.0)),
        5 => Expr::Literal(Value::Bool(b > 127)),
        6 => Expr::Literal(Value::Text(format!("s{}", b % 4))),
        _ => Expr::Literal(Value::Float(f64::NAN)),
    }
}

type RowTuple = (Value, Value, Value, Value, Value);

fn arb_rows() -> impl Strategy<Value = Vec<RowTuple>> {
    prop::collection::vec(
        (
            (arb_int(), arb_int()),
            (arb_float(), arb_bool(), arb_text()),
        )
            .prop_map(|((a, b), (c, d, e))| (a, b, c, d, e)),
        0..40,
    )
}

fn to_rows(tuples: Vec<RowTuple>) -> Vec<Row> {
    tuples
        .into_iter()
        .map(|(a, b, c, d, e)| Row::new(vec![a, b, c, d, e]))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn batch_eval_matches_scalar_eval(
        tuples in arb_rows(),
        prog in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        let schema = test_schema();
        let rows = to_rows(tuples);
        let expr = gen_expr(&mut prog.iter(), 4);
        let compiled = vexpr::compile(&expr, &schema).expect("schema columns always resolve");
        let batch = Batch::from_rows(&schema, &rows);
        let scalar: Vec<_> = rows
            .iter()
            .map(|r| expr.eval(&schema, r, &BuiltinFns))
            .collect();
        match vexpr::eval(&compiled, &batch, &BuiltinFns) {
            Ok(col) => {
                prop_assert_eq!(col.len(), rows.len());
                for (i, s) in scalar.iter().enumerate() {
                    match s {
                        Ok(v) => prop_assert_eq!(&col.value(i), v),
                        Err(e) => prop_assert!(
                            false,
                            "batch succeeded but scalar row {} errored ({}): {:?}",
                            i, e, expr
                        ),
                    }
                }
            }
            Err(_) => prop_assert!(
                scalar.iter().any(|s| s.is_err()),
                "batch errored but every scalar row succeeded: {:?}",
                expr
            ),
        }
    }

    #[test]
    fn batch_filter_matches_scalar_predicate(
        tuples in arb_rows(),
        prog in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        let schema = test_schema();
        let rows = to_rows(tuples);
        let expr = gen_expr(&mut prog.iter(), 3);
        let compiled = vexpr::compile(&expr, &schema).expect("schema columns always resolve");
        let batch = Batch::from_rows(&schema, &rows);
        let scalar: Vec<_> = rows
            .iter()
            .map(|r| expr.eval_predicate(&schema, r, &BuiltinFns))
            .collect();
        match vexpr::eval_filter(&compiled, &batch, &BuiltinFns) {
            Ok(sel) => {
                let expect: Vec<u32> = scalar
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| match s {
                        Ok(true) => Some(i as u32),
                        _ => None,
                    })
                    .collect();
                for (i, s) in scalar.iter().enumerate() {
                    prop_assert!(
                        s.is_ok(),
                        "filter succeeded but scalar predicate row {} errored: {:?}",
                        i, expr
                    );
                }
                prop_assert_eq!(sel, expect);
            }
            Err(_) => prop_assert!(
                scalar.iter().any(|s| s.is_err()),
                "filter errored but every scalar predicate succeeded: {:?}",
                expr
            ),
        }
    }

    // Round-tripping a gathered batch must agree with scalar evaluation
    // over the surviving rows — selection vectors and kernels compose.
    #[test]
    fn gather_then_eval_matches_scalar(
        tuples in arb_rows(),
        sel_bits in prop::collection::vec(any::<bool>(), 0..40),
        prog in prop::collection::vec(any::<u8>(), 1..32),
    ) {
        let schema = test_schema();
        let rows = to_rows(tuples);
        let expr = gen_expr(&mut prog.iter(), 3);
        let compiled = vexpr::compile(&expr, &schema).expect("schema columns always resolve");
        let batch = Batch::from_rows(&schema, &rows);
        let sel: Vec<u32> = (0..rows.len())
            .filter(|&i| *sel_bits.get(i).unwrap_or(&false))
            .map(|i| i as u32)
            .collect();
        let gathered = batch.gather(&sel);
        let kept: Vec<&Row> = sel.iter().map(|&i| &rows[i as usize]).collect();
        let scalar: Vec<_> = kept
            .iter()
            .map(|r| expr.eval(&schema, r, &BuiltinFns))
            .collect();
        if let Ok(col) = vexpr::eval(&compiled, &gathered, &BuiltinFns) {
            for (i, s) in scalar.iter().enumerate() {
                match s {
                    Ok(v) => prop_assert_eq!(&col.value(i), v),
                    Err(_) => prop_assert!(false, "batch ok, scalar err on kept row {i}"),
                }
            }
        } else {
            prop_assert!(scalar.iter().any(|s| s.is_err()));
        }
    }
}

/// Deterministic spot checks of the edges the generator relies on.
#[test]
fn coercion_and_overflow_edges() {
    let schema = test_schema();
    let rows = vec![
        Row::new(vec![
            Value::Int(i64::MAX),
            Value::Int(1),
            Value::Float(0.5),
            Value::Bool(true),
            Value::Text("ab".into()),
        ]),
        Row::new(vec![
            Value::Int(i64::MIN + 1),
            Value::Null,
            Value::Float(f64::NAN),
            Value::Null,
            Value::Null,
        ]),
    ];
    let batch = Batch::from_rows(&schema, &rows);
    let cases = [
        // wrapping add at the boundary
        Expr::binary(Expr::col("a"), BinaryOp::Add, Expr::col("b")),
        // int widened to float for the comparison
        Expr::binary(Expr::col("a"), BinaryOp::Gt, Expr::col("c")),
        // bool coerces to numeric through as_f64
        Expr::binary(Expr::col("d"), BinaryOp::Add, Expr::col("c")),
        // NaN under the total order
        Expr::binary(
            Expr::col("c"),
            BinaryOp::Lte,
            Expr::Literal(Value::Float(1.0)),
        ),
        // NULL propagation through arithmetic and NOT
        Expr::Unary {
            op: UnaryOp::Neg,
            expr: Box::new(Expr::binary(Expr::col("b"), BinaryOp::Mul, Expr::col("a"))),
        },
    ];
    for expr in cases {
        let compiled = vexpr::compile(&expr, &schema).expect("compile");
        let col = vexpr::eval(&compiled, &batch, &BuiltinFns)
            .unwrap_or_else(|e| panic!("batch eval failed ({e}): {expr:?}"));
        for (i, row) in rows.iter().enumerate() {
            let want = expr.eval(&schema, row, &BuiltinFns).expect("scalar eval");
            assert_eq!(col.value(i), want, "lane {i} of {expr:?}");
        }
    }
}

/// Batch evaluation of `e` over three rows of `(a INT, b FLOAT, s TEXT)`
/// with NULLs among them must equal row evaluation, row by row.
fn spot_check(e: &Expr) {
    let schema = Schema::from_pairs(&[
        ("a", DataType::Int),
        ("b", DataType::Float),
        ("s", DataType::Text),
    ]);
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
    let v = vexpr::compile(e, &schema).expect("compile");
    let col = vexpr::eval(&v, &Batch::from_rows(&schema, &rows), &BuiltinFns).expect("batch eval");
    for (i, row) in rows.iter().enumerate() {
        let want = e.eval(&schema, row, &BuiltinFns).expect("row eval");
        assert_eq!(col.value(i), want, "row {i} of {e:?}");
    }
}

#[test]
fn typed_kernels_match_scalar() {
    use BinaryOp::*;
    for op in [Add, Sub, Mul, Eq, Neq, Lt, Lte, Gt, Gte] {
        spot_check(&Expr::binary(Expr::col("a"), op, Expr::lit(4i64)));
        spot_check(&Expr::binary(Expr::col("a"), op, Expr::col("b")));
        spot_check(&Expr::binary(Expr::col("b"), op, Expr::lit(0.5f64)));
    }
    spot_check(&Expr::binary(Expr::col("s"), Eq, Expr::lit("hello")));
}

#[test]
fn fallback_constructs_match_scalar() {
    spot_check(&Expr::Between {
        expr: Box::new(Expr::col("a")),
        lo: Box::new(Expr::lit(-5i64)),
        hi: Box::new(Expr::lit(5i64)),
    });
    spot_check(&Expr::InList {
        expr: Box::new(Expr::col("a")),
        list: vec![Expr::lit(10i64), Expr::lit(Value::Null)],
        negated: false,
    });
    spot_check(&Expr::Like {
        expr: Box::new(Expr::col("s")),
        pattern: "h%".into(),
        negated: false,
    });
    spot_check(&Expr::IsNull {
        expr: Box::new(Expr::col("b")),
        negated: true,
    });
    spot_check(&Expr::Function {
        name: "ABS".into(),
        args: vec![Expr::col("a")],
    });
    spot_check(&Expr::Unary {
        op: UnaryOp::Neg,
        expr: Box::new(Expr::col("a")),
    });
}

#[test]
fn three_valued_and_or_match_scalar() {
    use BinaryOp::*;
    let gt = Expr::binary(Expr::col("a"), Gt, Expr::lit(0i64));
    let isn = Expr::IsNull {
        expr: Box::new(Expr::col("b")),
        negated: false,
    };
    spot_check(&Expr::binary(gt.clone(), And, isn.clone()));
    spot_check(&Expr::binary(gt, Or, isn));
}
