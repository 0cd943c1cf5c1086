//! Learned transaction management (E10).
//!
//! Two halves, matching the tutorial's split:
//!
//! **Transaction prediction** (Ma et al., SIGMOD'18): forecast workload
//! arrival rates so the system can provision ahead of the curve — covered
//! by the forecasters in `aimdb-ml` and exercised here on OLTP traces.
//!
//! **Transaction scheduling** (Sheng et al.): "a learning based
//! transaction scheduling method, which can balance concurrency and
//! conflict rates using supervised algorithms". Transactions carry
//! read/write sets over a keyspace with hot keys; executing two
//! conflicting transactions in the same concurrent batch aborts one
//! (retry later). FIFO packs batches blindly; the learned scheduler
//! predicts pairwise conflict probability with a logistic model over
//! cheap transaction features (hot-key bitmap sketches) and packs batches
//! greedily to avoid predicted conflicts.

use std::collections::HashSet;

use rand::prelude::*;
use rand::rngs::StdRng;

use aimdb_common::synth::Zipf;
use aimdb_common::Result;
use aimdb_ml::data::Dataset;
use aimdb_ml::linear::{GdParams, LogisticRegression};

/// A simulated OLTP transaction.
#[derive(Debug, Clone)]
pub struct Txn {
    pub id: usize,
    pub reads: HashSet<u64>,
    pub writes: HashSet<u64>,
}

impl Txn {
    /// True conflict: write-write or read-write intersection.
    pub fn conflicts_with(&self, other: &Txn) -> bool {
        self.writes.iter().any(|k| other.writes.contains(k))
            || self.writes.iter().any(|k| other.reads.contains(k))
            || other.writes.iter().any(|k| self.reads.contains(k))
    }

    /// Cheap feature sketch: membership of reads/writes in `buckets`
    /// hash buckets (what a scheduler can compute without set
    /// intersection) plus set sizes.
    pub fn sketch(&self, buckets: usize) -> Vec<f64> {
        let mut f = vec![0.0; 2 * buckets + 2];
        for k in &self.reads {
            f[(k % buckets as u64) as usize] = 1.0;
        }
        for k in &self.writes {
            f[buckets + (k % buckets as u64) as usize] = 1.0;
        }
        f[2 * buckets] = self.reads.len() as f64;
        f[2 * buckets + 1] = self.writes.len() as f64;
        f
    }
}

/// Generate an OLTP workload: mostly short transactions over a Zipfian
/// keyspace (hot keys collide often).
pub fn generate_txns(n: usize, keyspace: usize, skew: f64, seed: u64) -> Vec<Txn> {
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = Zipf::new(keyspace, skew);
    (0..n)
        .map(|id| {
            let n_reads = rng.gen_range(1..5);
            let n_writes = rng.gen_range(1..3);
            let reads: HashSet<u64> = (0..n_reads).map(|_| zipf.sample(&mut rng) as u64).collect();
            let writes: HashSet<u64> = (0..n_writes)
                .map(|_| zipf.sample(&mut rng) as u64)
                .collect();
            Txn { id, reads, writes }
        })
        .collect()
}

/// Outcome of running a schedule.
#[derive(Debug, Clone)]
pub struct ScheduleReport {
    pub method: String,
    /// Completed transactions per batch slot (higher is better).
    pub throughput: f64,
    pub aborts: usize,
    pub batches: usize,
}

/// Execute batches: within a batch, conflicting pairs abort the
/// later-positioned transaction, which retries in a later batch.
pub fn execute_batches(
    mut queue: Vec<Txn>,
    batch_size: usize,
    method: &str,
    mut pack: impl FnMut(&[Txn], usize) -> Vec<usize>,
) -> ScheduleReport {
    let total = queue.len();
    let mut aborts = 0usize;
    let mut batches = 0usize;
    let mut completed = 0usize;
    while !queue.is_empty() {
        batches += 1;
        // pick batch members (indices into queue)
        let mut picked = pack(&queue, batch_size);
        picked.sort_unstable();
        picked.dedup();
        picked.truncate(batch_size);
        if picked.is_empty() {
            picked = (0..queue.len().min(batch_size)).collect();
        }
        // detect conflicts within the batch: later txn aborts
        let mut ok: Vec<usize> = Vec::new();
        let mut aborted: Vec<usize> = Vec::new();
        for &i in &picked {
            if ok.iter().any(|&j| queue[i].conflicts_with(&queue[j])) {
                aborted.push(i);
                aborts += 1;
            } else {
                ok.push(i);
            }
        }
        completed += ok.len();
        // remove completed from the queue (keep aborted for retry)
        let done: HashSet<usize> = ok.into_iter().collect();
        let mut keep = Vec::with_capacity(queue.len() - done.len());
        for (i, t) in queue.into_iter().enumerate() {
            if !done.contains(&i) {
                keep.push(t);
            }
        }
        queue = keep;
        if batches > total * 4 + 16 {
            break; // safety against livelock
        }
    }
    ScheduleReport {
        method: method.into(),
        throughput: completed as f64 / batches.max(1) as f64,
        aborts,
        batches,
    }
}

/// FIFO: take the next `batch_size` transactions in arrival order.
pub fn schedule_fifo(txns: Vec<Txn>, batch_size: usize) -> ScheduleReport {
    execute_batches(txns, batch_size, "fifo", |q, b| {
        (0..q.len().min(b)).collect()
    })
}

/// Oracle: greedy packing using exact conflict checks (upper reference).
pub fn schedule_oracle(txns: Vec<Txn>, batch_size: usize) -> ScheduleReport {
    execute_batches(txns, batch_size, "oracle", |q, b| {
        let mut picked: Vec<usize> = Vec::new();
        for i in 0..q.len() {
            if picked.len() >= b {
                break;
            }
            if picked.iter().all(|&j| !q[i].conflicts_with(&q[j])) {
                picked.push(i);
            }
        }
        picked
    })
}

/// The learned conflict predictor.
pub struct ConflictModel {
    model: LogisticRegression,
    buckets: usize,
}

impl ConflictModel {
    /// Pair features: elementwise AND of the two sketches' write/read
    /// bucket maps (bucket collisions) plus size products.
    fn pair_features(a: &Txn, b: &Txn, buckets: usize) -> Vec<f64> {
        let sa = a.sketch(buckets);
        let sb = b.sketch(buckets);
        let mut f = Vec::with_capacity(buckets + 3);
        // write-write and write-read bucket collisions
        for i in 0..buckets {
            let ww = sa[buckets + i] * sb[buckets + i];
            let wr = sa[buckets + i] * sb[i] + sa[i] * sb[buckets + i];
            f.push(ww + 0.5 * wr);
        }
        f.push(sa[2 * buckets + 1] * sb[2 * buckets + 1]); // |Wa|*|Wb|
        f.push(sa[2 * buckets] * sb[2 * buckets + 1] + sb[2 * buckets] * sa[2 * buckets + 1]);
        f.push(1.0);
        f
    }

    /// Train on historical transaction pairs labeled by whether they
    /// actually conflicted.
    pub fn train(history: &[Txn], buckets: usize, pairs: usize, seed: u64) -> Result<Self> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::with_capacity(pairs);
        let mut y = Vec::with_capacity(pairs);
        for _ in 0..pairs {
            let a = &history[rng.gen_range(0..history.len())];
            let b = &history[rng.gen_range(0..history.len())];
            if a.id == b.id {
                continue;
            }
            x.push(Self::pair_features(a, b, buckets));
            y.push(if a.conflicts_with(b) { 1.0 } else { 0.0 });
        }
        let ds = Dataset::new(x, y)?;
        let model = LogisticRegression::fit(
            &ds,
            GdParams {
                epochs: 150,
                lr: 0.1,
                ..Default::default()
            },
        )?;
        Ok(ConflictModel { model, buckets })
    }

    pub fn conflict_prob(&self, a: &Txn, b: &Txn) -> f64 {
        self.model
            .predict_proba(&Self::pair_features(a, b, self.buckets))
    }

    /// Learned scheduling: greedy packing by predicted conflict
    /// probability (admit a txn if its predicted conflict with every
    /// batch member is below `threshold`).
    pub fn schedule(&self, txns: Vec<Txn>, batch_size: usize, threshold: f64) -> ScheduleReport {
        execute_batches(txns, batch_size, "learned(conflict-model)", |q, b| {
            let mut picked: Vec<usize> = Vec::new();
            for i in 0..q.len() {
                if picked.len() >= b {
                    break;
                }
                if picked
                    .iter()
                    .all(|&j| self.conflict_prob(&q[i], &q[j]) < threshold)
                {
                    picked.push(i);
                }
            }
            picked
        })
    }
}

/// Workload forecasting half of E10: one-step MAPE of each forecaster on
/// a seasonal OLTP arrival trace.
pub fn forecast_comparison(trace: &[f64], period: usize) -> Vec<(String, f64)> {
    use aimdb_ml::forecast::*;
    use aimdb_ml::metrics::mape;
    let mut out = Vec::new();
    let runs: Vec<(&str, Box<dyn Forecaster>)> = vec![
        ("last-value", Box::new(LastValue::default())),
        ("ewma", Box::new(Ewma::new(0.4))),
        ("holt", Box::new(Holt::new(0.5, 0.2))),
        ("seasonal-naive", Box::new(SeasonalNaive::new(period))),
        ("ar(2p)", Box::new(ArModel::new(2 * period.min(12), 50))),
    ];
    for (name, mut f) in runs {
        let (p, t) = run_forecaster(f.as_mut(), trace);
        let skip = period.min(p.len());
        out.push((name.to_string(), mape(&p[skip..], &t[skip..])));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimdb_common::synth::seasonal_trace;

    fn hot_workload(seed: u64) -> Vec<Txn> {
        generate_txns(300, 200, 1.1, seed)
    }

    #[test]
    fn conflicts_detected_symmetrically() {
        let a = Txn {
            id: 0,
            reads: [1].into(),
            writes: [2].into(),
        };
        let b = Txn {
            id: 1,
            reads: [2].into(),
            writes: [3].into(),
        };
        let c = Txn {
            id: 2,
            reads: [9].into(),
            writes: [8].into(),
        };
        assert!(a.conflicts_with(&b)); // a writes 2, b reads 2
        assert!(b.conflicts_with(&a));
        assert!(!a.conflicts_with(&c));
    }

    #[test]
    fn oracle_beats_fifo_on_hot_keys() {
        let txns = hot_workload(1);
        let fifo = schedule_fifo(txns.clone(), 8);
        let oracle = schedule_oracle(txns, 8);
        assert!(
            oracle.throughput > fifo.throughput,
            "oracle {} vs fifo {}",
            oracle.throughput,
            fifo.throughput
        );
        assert!(oracle.aborts < fifo.aborts);
    }

    #[test]
    fn conflict_model_learns_real_signal() {
        let history = generate_txns(800, 200, 1.1, 2);
        let model = ConflictModel::train(&history, 32, 4000, 3).unwrap();
        let test = generate_txns(300, 200, 1.1, 4);
        // measure accuracy against truth on fresh pairs
        let mut correct = 0;
        let mut total = 0;
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..500 {
            let a = &test[rng.gen_range(0..test.len())];
            let b = &test[rng.gen_range(0..test.len())];
            if a.id == b.id {
                continue;
            }
            let pred = model.conflict_prob(a, b) >= 0.5;
            if pred == a.conflicts_with(b) {
                correct += 1;
            }
            total += 1;
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.8, "pairwise conflict accuracy {acc}");
    }

    #[test]
    fn learned_scheduler_between_fifo_and_oracle() {
        let history = generate_txns(800, 200, 1.1, 6);
        let model = ConflictModel::train(&history, 32, 4000, 7).unwrap();
        let txns = hot_workload(8);
        let fifo = schedule_fifo(txns.clone(), 8);
        let oracle = schedule_oracle(txns.clone(), 8);
        let learned = model.schedule(txns, 8, 0.5);
        assert!(
            learned.throughput > fifo.throughput,
            "learned {} vs fifo {}",
            learned.throughput,
            fifo.throughput
        );
        assert!(learned.throughput <= oracle.throughput * 1.05);
        assert!(learned.aborts < fifo.aborts);
    }

    #[test]
    fn all_transactions_complete() {
        let txns = hot_workload(9);
        let n = txns.len();
        for rep in [
            schedule_fifo(txns.clone(), 8),
            schedule_oracle(txns.clone(), 8),
        ] {
            // completed = batches * throughput
            let completed = (rep.throughput * rep.batches as f64).round() as usize;
            assert_eq!(completed, n, "{} lost transactions", rep.method);
        }
    }

    #[test]
    fn forecasting_learned_beats_naive_on_seasonal_oltp() {
        let trace = seasonal_trace(24 * 14, 24, 500.0, 200.0, 0.5, 10.0, None, 3);
        let results = forecast_comparison(&trace, 24);
        let get = |name: &str| {
            results
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, m)| *m)
                .unwrap()
        };
        assert!(get("ar(2p)") < get("last-value"), "{results:?}");
        assert!(get("seasonal-naive") < get("last-value"), "{results:?}");
    }
}
