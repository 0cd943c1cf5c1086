//! # aimdb-ai4db
//!
//! Every AI4DB technique from §2.1 of "AI Meets Database: AI4DB and DB4AI"
//! (SIGMOD 2021), each paired with the traditional empirical baseline the
//! tutorial says it improves on:
//!
//! | Tutorial topic | Module | Learned technique | Baseline |
//! |---|---|---|---|
//! | Knob tuning (CDBTune/QTune) | [`knob`] | Q-learning over the knob space, query-aware variant | defaults, random, grid search |
//! | Index advisor | [`index_advisor`] | MDP/Q-learning over create-drop actions | none/all/frequency/greedy what-if |
//! | View advisor | [`view_advisor`] | learned benefit estimation + selection | no views, size heuristic |
//! | SQL rewriter | [`rewriter`] | MCTS over rewrite-rule orders | fixed top-down pass |
//! | Database partitioning | [`partition`] | RL over candidate keys | first-column / frequency heuristics |
//! | Cardinality/cost estimation | [`cardinality`] | MLP on query features | histograms + independence |
//! | Join order selection | [`join_order`] | Q-learning and MCTS (SkinnerDB-style) | exact DP, greedy |
//! | End-to-end optimizer (NEO) | [`neo`] | latency-trained plan value network | cost model with stale stats |
//! | Learned index (RMI/ALEX) | [`learned_index`] | two-stage RMI + updatable variant | B+tree |
//! | Learned KV design | [`kv_design`] | cost-guided design-space walk | fixed B-tree/LSM/hash |
//! | Learned transactions | [`txn_learned`] | conflict-aware scheduling via learned predictor | FIFO |
//! | Health monitoring (iSQUAD) | [`monitor`] | KPI clustering root-cause diagnosis | threshold rules |
//! | Activity monitoring | [`monitor`] | multi-armed bandit activity selection | record-all / random |
//! | Performance prediction | [`perf_pred`] | interaction-feature MLP | sum of isolated plan costs |
//! | Database security | [`security`] | learned SQLi/PII/access-control classifiers | keyword / regex / static ACL |
//!
pub mod cardinality;
pub mod index_advisor;
pub mod join_order;
pub mod knob;
pub mod kv_design;
pub mod learned_index;
pub mod monitor;
pub mod neo;
pub mod partition;
pub mod perf_pred;
pub mod rewriter;
pub mod security;
pub mod txn_learned;
pub mod view_advisor;
