//! # aimdb-sql
//!
//! The SQL front end: a hand-written lexer and recursive-descent parser
//! producing an AST, a typed expression tree with SQL three-valued
//! evaluation, and the vectorized kernels the engine's executor runs
//! those expressions with.
//!
//! Beyond classic SQL (DDL, DML, SELECT with joins/aggregates/ordering),
//! the grammar implements the tutorial's *declarative language model*
//! (§2.2 DB4AI): `CREATE MODEL ... ON table (features) LABEL col`,
//! `PREDICT model GIVEN (...)`, and `PREDICT(model, cols...)` as a scalar
//! expression usable inside any query — the "AISQL" the paper's challenges
//! section calls for.

pub mod ast;
pub mod expr;
pub mod lexer;
pub mod parser;
pub mod vexpr;

pub use ast::Statement;
pub use expr::{BinaryOp, BoundModel, Expr, ModelRef, ScalarFns, UnaryOp};
pub use lexer::{tokenize, Token};
pub use parser::parse;
pub use vexpr::VExpr;
