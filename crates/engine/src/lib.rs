//! # aimdb-engine
//!
//! The relational database kernel every AI4DB technique in this workspace
//! optimizes: a catalog over slotted-page heap files, secondary B+tree
//! indexes, equi-depth-histogram statistics, a cost-based optimizer with
//! dynamic-programming join ordering, one executor —
//! [`execute_batched_parallel`], a vectorized, morsel-parallel batch
//! pipeline — with a per-operator metrics tap, WAL-backed transactions,
//! and a live-tunable knob surface. The reference row interpreter that
//! executor is diffed against lives in the dev-only `aimdb-oracle` crate.
//!
//! Design hooks for the learned components:
//! - [`CardEstimator`](optimizer::CardEstimator) lets a learned
//!   cardinality model replace the histogram estimator (E5/E7);
//! - hypothetical indexes in [`optimizer::what_if_cost`] support index
//!   advisors without building anything (E2);
//! - [`Knobs`](knobs::Knobs) exposes the tuning space (E1);
//! - [`KpiSnapshot`](metrics::KpiSnapshot) is the monitoring surface
//!   (E11/E12), extended with histogram quantiles from the
//!   [`aimdb_trace`] registry;
//! - [`Database::tracer`](db::Database) streams completed
//!   [`QueryTrace`](aimdb_trace::QueryTrace)s (parse → verify →
//!   optimize → execute spans plus per-operator profiles) to learners,
//!   and [`Database::explain_analyze`](db::Database) surfaces the
//!   estimate-vs-actual `QEvalError` signal per plan node (E3);
//! - [`ModelHook`](db::ModelHook) lets the DB4AI crate plug model
//!   training (`CREATE MODEL`) and one model version per statement
//!   (`ModelHook::bind`, for every `PREDICT`) into SQL.

pub mod analyze;
pub mod catalog;
pub mod db;
pub mod exec;
pub mod exec_batch;
pub mod fingerprint;
pub mod knobs;
pub mod metrics;
pub mod mvcc;
pub mod optimizer;
pub mod plan;
pub mod stats;
pub mod txn;
pub mod verify;

pub use aimdb_trace as trace;

pub use analyze::{q_error, AnalyzeReport, NodeActuals};
pub use catalog::{Catalog, Table};
pub use db::{Database, ModelHook, QueryResult, RecoveryReport, TxnHandle};
pub use exec_batch::execute_batched_parallel;
pub use fingerprint::{fingerprint, normalize, StatementStat, StatementStore};
pub use knobs::Knobs;
pub use metrics::KpiSnapshot;
pub use mvcc::{CommitTs, Snapshot};
pub use optimizer::CardEstimator;
pub use plan::PhysicalPlan;
