//! Negative fixtures for the static plan verifier: every malformed plan
//! here must be rejected with a precise diagnostic, and well-formed plans
//! produced by the planner must pass.

mod common;

use std::sync::Arc;

use aimdb_common::{AimError, Column, DataType, Row, Schema, Value};
use aimdb_engine::plan::{qualify_schema, AggExpr, PhysOp, PhysicalPlan};
use aimdb_engine::verify::verify;
use aimdb_engine::{Database, ModelHook};
use aimdb_sql::ast::AggFunc;
use aimdb_sql::{BinaryOp, Expr, ModelRef};

use common::StubModels;

fn db() -> Database {
    let d = Database::new();
    d.execute("CREATE TABLE users (id INT, age INT, name TEXT)")
        .expect("ddl");
    d.execute("CREATE TABLE orders (oid INT, user_id INT, amount FLOAT, tag TEXT)")
        .expect("ddl");
    d.execute("CREATE INDEX idx_age ON users (age)")
        .expect("ddl");
    d
}

fn scan(d: &Database, table: &str) -> PhysicalPlan {
    let width = d.catalog.table(table).expect("table").schema.len();
    narrowed(d, table, (0..width).collect())
}

/// A scan of `table` reading the columns `cols`, its schema the qualified
/// table schema projected on them.
fn narrowed(d: &Database, table: &str, cols: Vec<usize>) -> PhysicalPlan {
    let t = d.catalog.table(table).expect("table");
    PhysicalPlan {
        schema: qualify_schema(&t.schema, table)
            .project(&cols)
            .expect("cols in range"),
        op: PhysOp::SeqScan {
            table: table.into(),
            alias: table.into(),
            cols,
            filter: None,
        },
        est_rows: 1.0,
        est_cost: 1.0,
    }
}

/// Assert the plan is rejected and the diagnostic mentions `needle`.
fn rejected(d: &Database, plan: &PhysicalPlan, needle: &str) {
    match verify(plan, &d.catalog) {
        Err(AimError::Plan(msg)) => assert!(
            msg.contains(needle),
            "diagnostic {msg:?} does not mention {needle:?}"
        ),
        other => panic!("expected Plan error mentioning {needle:?}, got {other:?}"),
    }
}

#[test]
fn unknown_table_is_rejected() {
    let d = db();
    let mut p = scan(&d, "users");
    if let PhysOp::SeqScan { table, .. } = &mut p.op {
        *table = "nope".into();
    }
    rejected(&d, &p, "unknown table nope");
}

#[test]
fn unresolved_filter_column_is_rejected() {
    let d = db();
    let base = scan(&d, "users");
    let p = PhysicalPlan {
        schema: base.schema.clone(),
        op: PhysOp::Filter {
            input: Box::new(base),
            predicate: Expr::binary(Expr::col("salary"), BinaryOp::Gt, Expr::lit(10i64)),
        },
        est_rows: 1.0,
        est_cost: 1.0,
    };
    rejected(&d, &p, "unresolved column salary");
}

#[test]
fn unsorted_scan_cols_are_rejected() {
    let d = db();
    let mut p = narrowed(&d, "users", vec![0, 2]);
    if let PhysOp::SeqScan { cols, .. } = &mut p.op {
        *cols = vec![2, 0];
    }
    let t = d.catalog.table("users").expect("table");
    p.schema = qualify_schema(&t.schema, "users")
        .project(&[2, 0])
        .expect("in range");
    rejected(&d, &p, "not strictly ascending");
}

#[test]
fn out_of_range_scan_col_is_rejected() {
    let d = db();
    let mut p = narrowed(&d, "users", vec![0]);
    if let PhysOp::SeqScan { cols, .. } = &mut p.op {
        *cols = vec![0, 3]; // users has three columns
    }
    rejected(&d, &p, "out of range");
}

#[test]
fn scan_schema_disagreeing_with_cols_is_rejected() {
    let d = db();
    let mut p = narrowed(&d, "users", vec![0, 2]);
    if let PhysOp::SeqScan { cols, .. } = &mut p.op {
        *cols = vec![0, 1]; // the schema still names id and name
    }
    rejected(&d, &p, "schema mismatch");
}

#[test]
fn parent_reading_a_pruned_column_is_rejected() {
    let d = db();
    // the scan reads id and name; the filter above it wants age
    let base = narrowed(&d, "users", vec![0, 2]);
    let p = PhysicalPlan {
        schema: base.schema.clone(),
        op: PhysOp::Filter {
            input: Box::new(base),
            predicate: Expr::binary(Expr::col("users.age"), BinaryOp::Gt, Expr::lit(10i64)),
        },
        est_rows: 1.0,
        est_cost: 1.0,
    };
    rejected(&d, &p, "unresolved column users.age");
}

#[test]
fn narrowed_scan_plans_pass() {
    let d = db();
    for cols in [vec![], vec![1], vec![0, 2], vec![0, 1, 2]] {
        verify(&narrowed(&d, "users", cols.clone()), &d.catalog)
            .unwrap_or_else(|e| panic!("cols {cols:?}: {e}"));
    }
}

#[test]
fn type_mismatched_join_key_is_rejected() {
    let d = db();
    let left = scan(&d, "users");
    let right = scan(&d, "orders");
    let schema = left.schema.join(&right.schema);
    let p = PhysicalPlan {
        schema,
        op: PhysOp::HashJoin {
            left: Box::new(left),
            right: Box::new(right),
            left_key: Expr::qcol("users", "id"),    // Int
            right_key: Expr::qcol("orders", "tag"), // Text
            residual: None,
        },
        est_rows: 1.0,
        est_cost: 1.0,
    };
    rejected(&d, &p, "join keys disagree");
}

#[test]
fn project_arity_mismatch_is_rejected() {
    let d = db();
    let base = scan(&d, "users");
    let p = PhysicalPlan {
        schema: Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ]),
        op: PhysOp::Project {
            input: Box::new(base),
            exprs: vec![Expr::col("id")], // 1 expr for 2 columns
        },
        est_rows: 1.0,
        est_cost: 1.0,
    };
    rejected(&d, &p, "2 column(s) but 1 expression(s)");
}

#[test]
fn index_scan_without_index_is_rejected() {
    let d = db();
    let t = d.catalog.table("users").expect("table");
    let p = PhysicalPlan {
        schema: qualify_schema(&t.schema, "users"),
        op: PhysOp::IndexScan {
            table: "users".into(),
            alias: "users".into(),
            column: "name".into(), // no index on name
            lo: Some(Value::Text("a".into())),
            hi: None,
            cols: vec![0, 1, 2],
            filter: None,
        },
        est_rows: 1.0,
        est_cost: 1.0,
    };
    rejected(&d, &p, "no index on users.name");
}

#[test]
fn index_bound_type_mismatch_is_rejected() {
    let d = db();
    let t = d.catalog.table("users").expect("table");
    let p = PhysicalPlan {
        schema: qualify_schema(&t.schema, "users"),
        op: PhysOp::IndexScan {
            table: "users".into(),
            alias: "users".into(),
            column: "age".into(),
            lo: Some(Value::Text("young".into())), // Text bound on Int column
            hi: None,
            cols: vec![0, 1, 2],
            filter: None,
        },
        est_rows: 1.0,
        est_cost: 1.0,
    };
    rejected(&d, &p, "incomparable");
}

#[test]
fn sum_over_text_is_rejected() {
    let d = db();
    let base = scan(&d, "users");
    let p = PhysicalPlan {
        schema: Schema::new(vec![Column::new("s", DataType::Float)]),
        op: PhysOp::Aggregate {
            input: Box::new(base),
            group_exprs: vec![],
            aggs: vec![AggExpr {
                func: AggFunc::Sum,
                arg: Some(Expr::qcol("users", "name")),
                name: "s".into(),
            }],
        },
        est_rows: 1.0,
        est_cost: 1.0,
    };
    rejected(&d, &p, "Sum over Text");
}

#[test]
fn aggregate_arity_mismatch_is_rejected() {
    let d = db();
    let base = scan(&d, "users");
    let p = PhysicalPlan {
        // 2 columns declared for 1 group + 0 aggs
        schema: Schema::new(vec![
            Column::new("g", DataType::Int),
            Column::new("extra", DataType::Int),
        ]),
        op: PhysOp::Aggregate {
            input: Box::new(base),
            group_exprs: vec![Expr::col("age")],
            aggs: vec![],
        },
        est_rows: 1.0,
        est_cost: 1.0,
    };
    rejected(&d, &p, "1 group(s) + 0 aggregate(s)");
}

#[test]
fn unknown_function_is_rejected() {
    let d = db();
    let base = scan(&d, "users");
    let p = PhysicalPlan {
        schema: Schema::new(vec![Column::new("x", DataType::Float)]),
        op: PhysOp::Project {
            input: Box::new(base),
            exprs: vec![Expr::Function {
                name: "FROBNICATE".into(),
                args: vec![Expr::qcol("users", "id")],
            }],
        },
        est_rows: 1.0,
        est_cost: 1.0,
    };
    rejected(&d, &p, "unknown scalar function FROBNICATE");
}

#[test]
fn non_boolean_predicate_is_rejected() {
    let d = db();
    let base = scan(&d, "users");
    let p = PhysicalPlan {
        schema: base.schema.clone(),
        op: PhysOp::Filter {
            input: Box::new(base),
            predicate: Expr::binary(Expr::qcol("users", "id"), BinaryOp::Add, Expr::lit(1i64)),
        },
        est_rows: 1.0,
        est_cost: 1.0,
    };
    rejected(&d, &p, "expected Bool");
}

#[test]
fn filter_changing_schema_is_rejected() {
    let d = db();
    let base = scan(&d, "users");
    let p = PhysicalPlan {
        schema: Schema::new(vec![Column::new("only", DataType::Int)]),
        op: PhysOp::Filter {
            input: Box::new(base),
            predicate: Expr::lit(true),
        },
        est_rows: 1.0,
        est_cost: 1.0,
    };
    rejected(&d, &p, "differs from input schema");
}

#[test]
fn values_row_arity_mismatch_is_rejected() {
    let d = db();
    let p = PhysicalPlan {
        schema: Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ]),
        op: PhysOp::Values {
            rows: vec![Row::new(vec![Value::Int(1)])],
        },
        est_rows: 1.0,
        est_cost: 1.0,
    };
    rejected(&d, &p, "1 value(s) for 2 column(s)");
}

#[test]
fn join_schema_must_concatenate_inputs() {
    let d = db();
    let left = scan(&d, "users");
    let right = scan(&d, "orders");
    let p = PhysicalPlan {
        schema: left.schema.clone(), // dropped the right side
        op: PhysOp::NestedLoopJoin {
            left: Box::new(left),
            right: Box::new(right),
            on: None,
        },
        est_rows: 1.0,
        est_cost: 1.0,
    };
    rejected(&d, &p, "not the concatenation");
}

#[test]
fn well_formed_planner_output_passes() {
    let d = db();
    d.execute("INSERT INTO users VALUES (1, 30, 'ann'), (2, 40, 'bob')")
        .expect("load");
    d.execute("INSERT INTO orders VALUES (10, 1, 5.0, 'a'), (11, 2, 7.5, 'b')")
        .expect("load");
    // the debug gate in run_plan re-verifies each of these end to end
    for sql in [
        "SELECT * FROM users",
        "SELECT id, age + 1 FROM users WHERE age BETWEEN 20 AND 50",
        "SELECT name FROM users WHERE name LIKE 'a%' OR id IN (1, 2)",
        "SELECT u.name, o.amount FROM users u JOIN orders o ON u.id = o.user_id",
        "SELECT age, COUNT(*), AVG(age) FROM users GROUP BY age ORDER BY age LIMIT 5",
        "SELECT ABS(-3), UPPER('x'), LENGTH('abc')",
    ] {
        d.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
}

#[test]
fn hand_built_well_formed_plan_passes() {
    let d = db();
    let base = scan(&d, "users");
    let filtered = PhysicalPlan {
        schema: base.schema.clone(),
        op: PhysOp::Filter {
            input: Box::new(base),
            predicate: Expr::binary(Expr::qcol("users", "age"), BinaryOp::Gte, Expr::lit(21i64)),
        },
        est_rows: 1.0,
        est_cost: 1.0,
    };
    let p = PhysicalPlan {
        schema: Schema::new(vec![Column::new("name", DataType::Text)]),
        op: PhysOp::Project {
            input: Box::new(filtered),
            exprs: vec![Expr::qcol("users", "name")],
        },
        est_rows: 1.0,
        est_cost: 1.0,
    };
    verify(&p, &d.catalog).expect("well-formed plan must pass");
}

/// A projection of one expression over `users`.
fn project(d: &Database, expr: Expr) -> PhysicalPlan {
    PhysicalPlan {
        schema: Schema::new(vec![Column::new("x", DataType::Float)]),
        op: PhysOp::Project {
            input: Box::new(scan(d, "users")),
            exprs: vec![expr],
        },
        est_rows: 1.0,
        est_cost: 1.0,
    }
}

#[test]
fn unbound_predict_is_rejected() {
    let d = db();
    let p = project(
        &d,
        Expr::Function {
            name: "PREDICT".into(),
            args: vec![Expr::lit("lin"), Expr::qcol("users", "age")],
        },
    );
    rejected(&d, &p, "not bound to a model");
}

#[test]
fn bound_predict_is_checked_against_its_model() {
    let d = db();
    let lin = || ModelRef(StubModels.bind("lin", 2).expect("stub model"));
    let predict = |args| Expr::Predict { model: lin(), args };
    let (id, age, name) = (
        Expr::qcol("users", "id"),
        Expr::qcol("users", "age"),
        Expr::qcol("users", "name"),
    );
    verify(&project(&d, predict(vec![id, age.clone()])), &d.catalog)
        .expect("two numeric arguments for a two-input model");
    rejected(
        &d,
        &project(&d, predict(vec![age.clone()])),
        "lin v1 stub takes 2 input(s), got 1",
    );
    // a text argument keeps the category it would have raised at the
    // first row
    match verify(&project(&d, predict(vec![age, name])), &d.catalog) {
        Err(AimError::TypeMismatch(msg)) => assert!(msg.contains("Text argument"), "{msg}"),
        other => panic!("expected a type mismatch, got {other:?}"),
    }
}

/// Model errors belong to the statement, not to its first row: over
/// tables with no rows at all — where nothing would ever be predicted —
/// an unknown model, a wrong argument count, a text argument and a
/// missing model runtime are all reported when the statement is planned.
#[test]
fn model_errors_do_not_wait_for_a_row() {
    let d = db();
    let category = |sql: &str| match d.execute(sql) {
        Ok(r) => panic!("{sql}: accepted, returned {r:?}"),
        Err(e) => e.category(),
    };
    let unknown = "SELECT id FROM users WHERE PREDICT(nope, age, id) > 1";
    assert_eq!(category(unknown), "model", "no model runtime yet");
    d.set_model_hook(Arc::new(StubModels));
    assert_eq!(category(unknown), "not_found");
    assert_eq!(
        category("SELECT id FROM users WHERE id < 0 AND PREDICT(lin, age) > 1"),
        "model"
    );
    assert_eq!(
        category("SELECT AVG(PREDICT(lin, age, name)) FROM users"),
        "type_mismatch"
    );
    assert_eq!(
        category("EXPLAIN SELECT PREDICT(lin, age) FROM users"),
        "model"
    );
    d.execute("SELECT id FROM users WHERE PREDICT(lin, age, id) > 1")
        .expect("well-formed PREDICT over an empty table");
}
