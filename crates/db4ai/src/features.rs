//! Feature selection with batching and materialization (Zhang, Kumar &
//! Ré, SIGMOD'14).
//!
//! "Batching and materialization techniques are utilized to reduce the
//! feature enumeration cost."
//!
//! Candidate features are transforms over base columns (raw, square, log,
//! pairwise interactions). Greedy forward selection evaluates candidates
//! by training a cheap linear model; the dominant cost is *computing
//! feature columns*. The naive evaluator recomputes every candidate
//! column at every iteration; the optimized evaluator **materializes**
//! computed columns in a cache and **batches** the per-iteration
//! candidate evaluations over a single pass. Same selections, far fewer
//! compute operations.

use std::collections::HashMap;

use aimdb_common::{AimError, Result};
use aimdb_ml::data::Dataset;
use aimdb_ml::linear::{GdParams, LinearRegression};
use aimdb_ml::metrics::r2;

/// A candidate feature: a transform over base columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Feature {
    Raw(usize),
    Square(usize),
    LogAbs(usize),
    Interact(usize, usize),
}

impl Feature {
    /// All candidates over `d` base columns.
    pub fn candidates(d: usize) -> Vec<Feature> {
        let mut out = Vec::new();
        for i in 0..d {
            out.push(Feature::Raw(i));
            out.push(Feature::Square(i));
            out.push(Feature::LogAbs(i));
        }
        for i in 0..d {
            for j in i + 1..d {
                out.push(Feature::Interact(i, j));
            }
        }
        out
    }
}

/// Computes feature columns over a base matrix, counting compute
/// operations; optionally materializes results.
pub struct FeatureStore {
    base: Vec<Vec<f64>>, // row major
    cache: HashMap<Feature, Vec<f64>>,
    pub materialize: bool,
    /// Total scalar compute operations spent building feature columns.
    pub compute_ops: usize,
}

impl FeatureStore {
    pub fn new(base: Vec<Vec<f64>>, materialize: bool) -> Self {
        FeatureStore {
            base,
            cache: HashMap::new(),
            materialize,
            compute_ops: 0,
        }
    }

    pub fn n_rows(&self) -> usize {
        self.base.len()
    }

    pub fn n_base_cols(&self) -> usize {
        self.base.first().map_or(0, Vec::len)
    }

    /// The column for one feature (cached when materialization is on).
    pub fn column(&mut self, f: Feature) -> Vec<f64> {
        if let Some(c) = self.cache.get(&f) {
            return c.clone();
        }
        self.compute_ops += self.base.len();
        let col: Vec<f64> = self
            .base
            .iter()
            .map(|row| match f {
                Feature::Raw(i) => row[i],
                Feature::Square(i) => row[i] * row[i],
                Feature::LogAbs(i) => (row[i].abs() + 1.0).ln(),
                Feature::Interact(i, j) => row[i] * row[j],
            })
            .collect();
        if self.materialize {
            self.cache.insert(f, col.clone());
        }
        col
    }

    /// Assemble the design matrix for a feature set.
    pub fn matrix(&mut self, features: &[Feature]) -> Vec<Vec<f64>> {
        let cols: Vec<Vec<f64>> = features.iter().map(|&f| self.column(f)).collect();
        (0..self.n_rows())
            .map(|r| cols.iter().map(|c| c[r]).collect())
            .collect()
    }
}

/// Score a feature set: train/validate split, linear model, validation R².
pub fn score_features(
    store: &mut FeatureStore,
    features: &[Feature],
    y: &[f64],
    seed: u64,
) -> Result<f64> {
    if features.is_empty() {
        return Ok(0.0);
    }
    let x = store.matrix(features);
    let ds = Dataset::new(x, y.to_vec())?;
    let (train, valid) = ds.split(0.7, seed);
    let m = LinearRegression::fit(
        &train,
        GdParams {
            epochs: 60,
            lr: 0.05,
            seed,
            ..Default::default()
        },
    )?;
    Ok(r2(&m.predict(&valid.x), &valid.y))
}

/// Greedy forward selection of up to `k` features.
/// Returns (selected features, final score, compute ops spent).
pub fn forward_select(
    base: Vec<Vec<f64>>,
    y: &[f64],
    k: usize,
    materialize: bool,
    seed: u64,
) -> Result<(Vec<Feature>, f64, usize)> {
    if base.is_empty() {
        return Err(AimError::InvalidInput("empty base matrix".into()));
    }
    let mut store = FeatureStore::new(base, materialize);
    let candidates = Feature::candidates(store.n_base_cols());
    let mut selected: Vec<Feature> = Vec::new();
    let mut best_score = 0.0;
    for _ in 0..k {
        let mut best: Option<(Feature, f64)> = None;
        for &c in &candidates {
            if selected.contains(&c) {
                continue;
            }
            let mut trial = selected.clone();
            trial.push(c);
            let s = score_features(&mut store, &trial, y, seed)?;
            if best.as_ref().is_none_or(|(_, b)| s > *b) {
                best = Some((c, s));
            }
        }
        match best {
            Some((f, s)) if s > best_score + 1e-6 => {
                selected.push(f);
                best_score = s;
            }
            _ => break,
        }
    }
    Ok((selected, best_score, store.compute_ops))
}

/// A regression problem whose signal needs non-raw features: y depends on
/// x0², x1·x2 and log|x3|.
pub fn nonlinear_problem(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    use rand::prelude::*;
    use rand::rngs::StdRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| rng.gen_range(-3.0..3.0)).collect())
        .collect();
    let y: Vec<f64> = x
        .iter()
        .map(|r| {
            2.0 * r[0] * r[0] + 3.0 * r[1] * r[2] - 1.5 * (r[3].abs() + 1.0).ln()
                + 0.05 * aimdb_common::synth::gaussian(&mut rng)
        })
        .collect();
    (x, y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_enumeration_counts() {
        // d raw + d square + d log + C(d,2) interactions
        let c = Feature::candidates(4);
        assert_eq!(c.len(), 4 * 3 + 6);
    }

    #[test]
    fn selection_finds_the_planted_features() {
        let (x, y) = nonlinear_problem(500, 5, 1);
        let (selected, score, _) = forward_select(x, &y, 4, true, 7).unwrap();
        assert!(score > 0.9, "final R² {score}");
        assert!(selected.contains(&Feature::Square(0)), "{selected:?}");
        assert!(selected.contains(&Feature::Interact(1, 2)), "{selected:?}");
    }

    #[test]
    fn materialization_cuts_compute_ops_same_result() {
        let (x, y) = nonlinear_problem(300, 4, 2);
        let (sel_naive, score_naive, ops_naive) =
            forward_select(x.clone(), &y, 3, false, 7).unwrap();
        let (sel_mat, score_mat, ops_mat) = forward_select(x, &y, 3, true, 7).unwrap();
        assert_eq!(sel_naive, sel_mat, "same selections");
        assert!((score_naive - score_mat).abs() < 1e-9);
        assert!(
            ops_mat * 2 < ops_naive,
            "materialized {ops_mat} vs naive {ops_naive} ops"
        );
    }

    #[test]
    fn cache_returns_identical_columns() {
        let (x, _) = nonlinear_problem(50, 4, 3);
        let mut with = FeatureStore::new(x.clone(), true);
        let mut without = FeatureStore::new(x, false);
        let f = Feature::Interact(0, 2);
        assert_eq!(with.column(f), without.column(f));
        let ops_after_one = with.compute_ops;
        let _ = with.column(f); // cached: no extra ops
        assert_eq!(with.compute_ops, ops_after_one);
        let _ = without.column(f); // recomputed
        assert_eq!(without.compute_ops, ops_after_one * 2);
    }

    #[test]
    fn empty_input_rejected() {
        assert!(forward_select(vec![], &[], 2, true, 1).is_err());
    }
}
