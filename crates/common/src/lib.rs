//! # aimdb-common
//!
//! Foundation types shared by every crate in the `aimdb` workspace: SQL
//! values and their type system, table schemas, rows, the workspace-wide
//! error type, and seeded synthetic-data generators used by the
//! experiments of the AI4DB/DB4AI reproduction.
//!
//! Everything here is deliberately dependency-light; the storage engine,
//! SQL front end, ML library and the learned components all speak these
//! types.

pub mod batch;
pub mod clock;
pub mod error;
pub mod json;
pub mod lockrank;
pub mod row;
pub mod schema;
pub mod synth;
pub mod value;
pub mod wait;

pub use batch::{Batch, ColVec, Lane, DEFAULT_BATCH_SIZE};
pub use clock::{Clock, ManualClock, WallClock};
pub use error::{AimError, Result};
pub use lockrank::LockRank;
pub use row::Row;
pub use schema::{Column, Schema};
pub use value::{DataType, Value};
pub use wait::{WaitClass, WaitSet, NUM_WAIT_CLASSES};
