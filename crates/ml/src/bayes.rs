//! Gaussian naive Bayes classifier.
//!
//! Fits per-class, per-feature gaussians and classifies by maximum
//! posterior. Used by the SQL-injection detector (E13), where token-level
//! features are cheap and naive independence works well.

use std::collections::BTreeMap;

use aimdb_common::{AimError, Result};

use crate::data::{predict_rows, Dataset};

#[derive(Debug, Clone)]
struct ClassStats {
    prior_ln: f64,
    mean: Vec<f64>,
    var: Vec<f64>,
}

/// A trained gaussian naive Bayes model.
#[derive(Debug, Clone)]
pub struct GaussianNb {
    classes: BTreeMap<i64, ClassStats>,
}

const VAR_FLOOR: f64 = 1e-6;

impl GaussianNb {
    pub fn fit(ds: &Dataset) -> Result<Self> {
        if ds.is_empty() {
            return Err(AimError::InvalidInput("empty training set".into()));
        }
        let d = ds.dim();
        let n = ds.len() as f64;
        let mut groups: BTreeMap<i64, Vec<usize>> = BTreeMap::new();
        for (i, &y) in ds.y.iter().enumerate() {
            groups.entry(y.round() as i64).or_default().push(i);
        }
        let mut classes = BTreeMap::new();
        for (c, idx) in groups {
            let cn = idx.len() as f64;
            let mut mean = vec![0.0; d];
            for &i in &idx {
                for (m, v) in mean.iter_mut().zip(&ds.x[i]) {
                    *m += v / cn;
                }
            }
            let mut var = vec![0.0; d];
            for &i in &idx {
                for ((s, v), m) in var.iter_mut().zip(&ds.x[i]).zip(&mean) {
                    *s += (v - m).powi(2) / cn;
                }
            }
            for v in var.iter_mut() {
                *v = v.max(VAR_FLOOR);
            }
            classes.insert(
                c,
                ClassStats {
                    prior_ln: (cn / n).ln(),
                    mean,
                    var,
                },
            );
        }
        Ok(GaussianNb { classes })
    }

    /// Log-posterior (up to a constant) of `x` under class `c`'s stats.
    fn log_post(stats: &ClassStats, x: &[f64]) -> f64 {
        let mut lp = stats.prior_ln;
        for ((xv, m), v) in x.iter().zip(&stats.mean).zip(&stats.var) {
            lp += -0.5 * ((xv - m).powi(2) / v + v.ln() + (2.0 * std::f64::consts::PI).ln());
        }
        lp
    }

    pub fn predict_one(&self, x: &[f64]) -> f64 {
        self.classes
            .iter()
            .max_by(|a, b| Self::log_post(a.1, x).total_cmp(&Self::log_post(b.1, x)))
            .map(|(c, _)| *c as f64)
            .unwrap_or(0.0)
    }

    /// [`Self::predict_one`] for every row of a column batch.
    pub fn predict_batch(&self, cols: &[&[f64]], out: &mut [f64]) {
        predict_rows(cols, out, |x| self.predict_one(x));
    }

    pub fn predict(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|x| self.predict_one(x)).collect()
    }

    /// Posterior probability of each class, normalized.
    pub fn predict_proba(&self, x: &[f64]) -> Vec<(i64, f64)> {
        let lps: Vec<(i64, f64)> = self
            .classes
            .iter()
            .map(|(c, s)| (*c, Self::log_post(s, x)))
            .collect();
        let max = lps
            .iter()
            .map(|(_, l)| *l)
            .fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<(i64, f64)> = lps.into_iter().map(|(c, l)| (c, (l - max).exp())).collect();
        let z: f64 = exps.iter().map(|(_, e)| e).sum();
        exps.into_iter().map(|(c, e)| (c, e / z)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use aimdb_common::synth::{gaussian, rng};

    fn blobs(n: usize, seed: u64) -> Dataset {
        let mut r = rng(seed);
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let c = (i % 3) as f64;
            x.push(vec![
                c * 4.0 + gaussian(&mut r),
                -c * 3.0 + gaussian(&mut r),
            ]);
            y.push(c);
        }
        Dataset::new(x, y).unwrap()
    }

    #[test]
    fn separates_gaussian_blobs() {
        let ds = blobs(900, 2);
        let m = GaussianNb::fit(&ds).unwrap();
        let pred = m.predict(&ds.x);
        assert!(accuracy(&pred, &ds.y) > 0.95);
    }

    #[test]
    fn probabilities_normalize() {
        let ds = blobs(300, 4);
        let m = GaussianNb::fit(&ds).unwrap();
        let probs = m.predict_proba(&[0.0, 0.0]);
        let z: f64 = probs.iter().map(|(_, p)| p).sum();
        assert!((z - 1.0).abs() < 1e-9);
        assert_eq!(probs.len(), 3);
    }

    #[test]
    fn zero_variance_feature_is_floored() {
        let ds = Dataset::new(
            vec![
                vec![1.0, 0.0],
                vec![1.0, 1.0],
                vec![2.0, 0.0],
                vec![2.0, 1.0],
            ],
            vec![0.0, 0.0, 1.0, 1.0],
        )
        .unwrap();
        let m = GaussianNb::fit(&ds).unwrap();
        assert_eq!(m.predict_one(&[1.0, 0.5]), 0.0);
        assert_eq!(m.predict_one(&[2.0, 0.5]), 1.0);
    }

    #[test]
    fn empty_rejected() {
        assert!(GaussianNb::fit(&Dataset::default()).is_err());
    }
}
