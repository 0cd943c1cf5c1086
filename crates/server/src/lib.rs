//! # aimdb-server
//!
//! The serving layer: a dependency-free threaded TCP front end over the
//! [`aimdb_engine`] database, with an admission gate the knobs set.
//!
//! | Layer | Module | What it does |
//! |---|---|---|
//! | Wire protocol | [`protocol`] | length-prefixed frames: handshake, query, parse/bind/execute, structured errors |
//! | Sessions | [`session`] | owns the connection's open transaction (rolled back on disconnect) and its prepared statements; every statement, `BEGIN`/`COMMIT`/`SET` included, is the engine's |
//! | Admission | [`admission`] | bounded session + statement gates with queue-then-shed semantics |
//! | Server | [`server`] | accept loop, handler threads, graceful drain, and the control thread that folds the admission knobs into the gate |
//! | Client | [`client`] | blocking test/load-generator client |
//!
//! The gate holds whatever the knobs say (`max_connections`,
//! `admission_max_statements`, `admission_queue_timeout_ms`): the
//! control thread re-reads them every tick, so a DBA's `SET` moves the
//! gate within one tick, and nothing else moves it.

pub mod admission;
pub mod client;
pub mod protocol;
pub mod server;
pub mod session;

pub use admission::{AdmissionCore, AdmissionGate, AdmissionLimits, AdmissionStats};
pub use client::{Client, Outcome};
pub use protocol::{Frame, FrameKind, WireError, MAX_FRAME, PROTOCOL_VERSION};
pub use server::{Server, ServerConfig, TunerStats};
pub use session::Session;
