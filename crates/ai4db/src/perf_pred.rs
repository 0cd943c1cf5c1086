//! Concurrent-query performance prediction (E12b).
//!
//! Marcus & Papaemmanouil predict latency under concurrency with deep
//! models; Zhou et al. improve on them with a *graph embedding* of the
//! concurrent mix that captures operator-to-operator interactions (data
//! sharing and conflicts) that per-query pipelines miss.
//!
//! The simulation: a mix of queries runs concurrently; a query's true
//! latency depends on its isolated cost *plus interaction terms* —
//! co-running queries on the same table share the buffer pool (speedup)
//! while writers conflict with readers (slowdown). The baseline predictor
//! sums isolated plan costs (no interactions); the learned predictor uses
//! interaction features — the workload-graph signal — with an MLP.

use rand::prelude::*;
use rand::rngs::StdRng;

use aimdb_common::synth::gaussian;
use aimdb_common::Result;
use aimdb_ml::data::Dataset;
use aimdb_ml::metrics::mape;
use aimdb_ml::mlp::{Head, Mlp, MlpParams};

/// One query in a concurrent mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryDesc {
    /// Which table it reads (0..N_TABLES).
    pub table: usize,
    /// Isolated execution cost units.
    pub isolated_cost: f64,
    /// Whether it writes (writers conflict with co-runners on the table).
    pub is_writer: bool,
}

pub const N_TABLES: usize = 4;

/// A concurrent batch of queries.
pub type Mix = Vec<QueryDesc>;

/// Generate random mixes of 2..=6 concurrent queries.
pub fn generate_mixes(n: usize, seed: u64) -> Vec<Mix> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let k = rng.gen_range(2..=6);
            (0..k)
                .map(|_| QueryDesc {
                    table: rng.gen_range(0..N_TABLES),
                    isolated_cost: rng.gen_range(5.0..100.0),
                    is_writer: rng.gen::<f64>() < 0.3,
                })
                .collect()
        })
        .collect()
}

/// Ground-truth total latency of a mix: sum of isolated costs adjusted by
/// interaction effects (shared scans help, reader/writer conflicts hurt,
/// global concurrency adds contention) plus measurement noise.
pub fn true_latency(mix: &Mix, noise: f64, rng: &mut StdRng) -> f64 {
    let mut total = 0.0;
    for (i, q) in mix.iter().enumerate() {
        let mut factor = 1.0;
        for (j, other) in mix.iter().enumerate() {
            if i == j {
                continue;
            }
            if other.table == q.table {
                if q.is_writer || other.is_writer {
                    factor += 0.45; // lock conflict on the shared table
                } else {
                    factor -= 0.18; // shared buffer-pool benefit
                }
            }
        }
        // global contention grows with mix size
        factor += 0.05 * (mix.len() as f64 - 1.0);
        total += q.isolated_cost * factor.max(0.2);
    }
    (total * (1.0 + noise * gaussian(rng))).max(1.0)
}

/// Baseline: sum of isolated plan costs (what a per-query cost model
/// predicts, blind to the mix).
pub fn baseline_predict(mix: &Mix) -> f64 {
    mix.iter().map(|q| q.isolated_cost).sum()
}

/// Workload-graph features of a mix: the graph-embedding signal reduced
/// to counts/weights of interaction edge types plus totals.
pub fn graph_features(mix: &Mix) -> Vec<f64> {
    let total_cost: f64 = mix.iter().map(|q| q.isolated_cost).sum();
    let mut share_edges = 0.0; // reader-reader on same table
    let mut conflict_edges = 0.0; // writer involved on same table
    let mut share_weight = 0.0;
    let mut conflict_weight = 0.0;
    for i in 0..mix.len() {
        for j in i + 1..mix.len() {
            if mix[i].table == mix[j].table {
                let w = mix[i].isolated_cost + mix[j].isolated_cost;
                if mix[i].is_writer || mix[j].is_writer {
                    conflict_edges += 1.0;
                    conflict_weight += w;
                } else {
                    share_edges += 1.0;
                    share_weight += w;
                }
            }
        }
    }
    let writers = mix.iter().filter(|q| q.is_writer).count() as f64;
    vec![
        total_cost,
        mix.len() as f64,
        writers,
        share_edges,
        conflict_edges,
        share_weight,
        conflict_weight,
    ]
}

/// The learned predictor: MLP over graph features, trained on observed
/// mix latencies.
pub struct PerfPredictor {
    mlp: Mlp,
}

impl PerfPredictor {
    pub fn train(mixes: &[Mix], latencies: &[f64], seed: u64) -> Result<Self> {
        let x: Vec<Vec<f64>> = mixes.iter().map(graph_features).collect();
        let y: Vec<f64> = latencies.iter().map(|l| l.ln()).collect();
        let ds = Dataset::new(x, y)?;
        let mlp = Mlp::fit(
            &ds,
            &MlpParams {
                hidden: vec![32, 16],
                epochs: 400,
                lr: 0.01,
                batch: 32,
                seed,
                head: Head::Regression,
            },
        )?;
        Ok(PerfPredictor { mlp })
    }

    pub fn predict(&self, mix: &Mix) -> f64 {
        self.mlp.predict_one(&graph_features(mix)).exp()
    }
}

/// Full E12b comparison: MAPE of baseline vs. learned on held-out mixes.
pub fn run_experiment(n_train: usize, n_test: usize, seed: u64) -> Result<(f64, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let train_mixes = generate_mixes(n_train, seed ^ 1);
    let train_lat: Vec<f64> = train_mixes
        .iter()
        .map(|m| true_latency(m, 0.05, &mut rng))
        .collect();
    let model = PerfPredictor::train(&train_mixes, &train_lat, seed)?;

    let test_mixes = generate_mixes(n_test, seed ^ 2);
    let test_lat: Vec<f64> = test_mixes
        .iter()
        .map(|m| true_latency(m, 0.0, &mut rng))
        .collect();
    let base_pred: Vec<f64> = test_mixes.iter().map(baseline_predict).collect();
    let learned_pred: Vec<f64> = test_mixes.iter().map(|m| model.predict(m)).collect();
    Ok((mape(&base_pred, &test_lat), mape(&learned_pred, &test_lat)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interactions_change_latency() {
        let mut rng = StdRng::seed_from_u64(1);
        let readers: Mix = (0..3)
            .map(|_| QueryDesc {
                table: 0,
                isolated_cost: 50.0,
                is_writer: false,
            })
            .collect();
        let with_writer: Mix = {
            let mut m = readers.clone();
            m[0].is_writer = true;
            m
        };
        let shared = true_latency(&readers, 0.0, &mut rng);
        let conflicted = true_latency(&with_writer, 0.0, &mut rng);
        assert!(
            conflicted > shared * 1.3,
            "conflict {conflicted} vs shared {shared}"
        );
        // shared readers beat the naive sum despite global contention
        assert!(shared < baseline_predict(&readers) * 1.05);
    }

    #[test]
    fn learned_predictor_beats_cost_sum() {
        let (base_mape, learned_mape) = run_experiment(800, 200, 7).unwrap();
        assert!(
            learned_mape < base_mape * 0.6,
            "learned {learned_mape} vs baseline {base_mape}"
        );
        assert!(learned_mape < 0.15, "learned MAPE {learned_mape}");
    }

    #[test]
    fn graph_features_capture_edge_types() {
        let mix: Mix = vec![
            QueryDesc {
                table: 0,
                isolated_cost: 10.0,
                is_writer: false,
            },
            QueryDesc {
                table: 0,
                isolated_cost: 20.0,
                is_writer: false,
            },
            QueryDesc {
                table: 0,
                isolated_cost: 30.0,
                is_writer: true,
            },
            QueryDesc {
                table: 1,
                isolated_cost: 40.0,
                is_writer: false,
            },
        ];
        let f = graph_features(&mix);
        assert_eq!(f[0], 100.0); // total cost
        assert_eq!(f[1], 4.0); // mix size
        assert_eq!(f[2], 1.0); // writers
        assert_eq!(f[3], 1.0); // one reader-reader share edge (q0,q1)
        assert_eq!(f[4], 2.0); // two conflict edges (q0,q2),(q1,q2)
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_experiment(100, 50, 3).unwrap();
        let b = run_experiment(100, 50, 3).unwrap();
        assert_eq!(a, b);
    }
}
