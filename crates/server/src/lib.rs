//! # aimdb-server
//!
//! The serving layer: a dependency-free threaded TCP front end over the
//! [`aimdb_engine`] database, plus the admission-control half of the
//! Baihe-style self-driving loop (PAPERS.md, autonomous serving).
//!
//! | Layer | Module | What it does |
//! |---|---|---|
//! | Wire protocol | [`protocol`] | length-prefixed frames: handshake, query, parse/bind/execute, structured errors |
//! | Sessions | [`session`] | owns the connection's open transaction (rolled back on disconnect) and its prepared statements; every statement, `BEGIN`/`COMMIT`/`SET` included, is the engine's |
//! | Admission | [`admission`] | bounded session + statement gates with queue-then-shed semantics, the contention `pressure` signal and the AIMD tuner |
//! | Server | [`server`] | accept loop, handler threads, graceful drain, tuner control loop |
//! | Client | [`client`] | blocking test/load-generator client |
//!
//! The control loop closes the loop the paper's self-driving section
//! sketches: the engine's KPI snapshot and the wait-event profile feed
//! one contention-pressure signal and an AIMD tuner (both in
//! [`admission`]), whose actuations go through the ordinary knob system
//! (`SET admission_max_statements`), and the gate re-reads its limits
//! from the knobs every tick. Nothing in the loop is privileged — a DBA
//! `SET` and a tuner actuation are indistinguishable downstream.

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
