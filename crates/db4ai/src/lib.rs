//! # aimdb-db4ai
//!
//! Every DB4AI technique from §2.2 of "AI Meets Database: AI4DB and DB4AI"
//! (SIGMOD 2021):
//!
//! | Tutorial topic | Module | What it does |
//! |---|---|---|
//! | Declarative language model (AISQL) | [`declarative`] | implements the engine's `ModelHook`: `CREATE MODEL` trains and registers; `bind` hands the planner one model version per statement, which `PREDICT(...)` in a SELECT, UPDATE or DELETE runs as a batch kernel and `PREDICT … GIVEN` as a batch of one |
//! | Data discovery (Aurum) | [`discovery`] | enterprise knowledge graph over column profiles; related-column search vs. name matching |
//! | Data cleaning (ActiveClean) | [`cleaning`] | budgeted, model-aware iterative cleaning vs. random/no cleaning |
//! | Data labeling (crowdsourcing) | [`labeling`] | simulated worker pool; Dawid–Skene truth inference vs. majority vote; cost-accuracy curves |
//! | Data lineage | [`lineage`] | derivation DAG with ancestry queries and staleness propagation |
//! //! | Feature selection | [`features`] | batched + materialized feature evaluation (Zhang et al.) vs. naive recompute |
//! | Model selection | [`selection`] | parallel configuration search (task parallelism on scoped threads) vs. serial; successive halving |
//! | Model management (ModelDB) | [`registry`] | versioned model registry with metadata, search, and serde snapshots; versions are immutable and shared (`Arc<ModelVersion>`), and a version is the `BoundModel` a statement predicts with |
//! | Hardware acceleration (DAnA/ColumnML) | [`accel`] | simulated accelerator with a transfer-cost/throughput model; offload crossover |
//! | Model inference | [`inference`] | cost-unit model of per-row UDF vs. batched vs. cached inference and operator selection between them (the measured per-row-vs-batch comparison is E16, through SQL) |
//! | Hybrid DB&AI inference | [`hybrid`] | the tutorial's "patients staying > 3 days" query: predicate-aware AI pushdown vs. predict-all |

pub mod accel;
pub mod cleaning;
pub mod declarative;
pub mod discovery;
pub mod features;
pub mod hybrid;
pub mod inference;
pub mod labeling;
pub mod lineage;
pub mod registry;
pub mod selection;

pub use declarative::ModelRuntime;
pub use registry::ModelRegistry;
