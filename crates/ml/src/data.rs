//! Datasets: feature matrices with targets, splits, and standardization.

use rand::prelude::*;
use rand::rngs::StdRng;

use aimdb_common::{AimError, Result};

/// A supervised dataset: `x[i]` is the feature vector for target `y[i]`.
/// For classification, `y` holds class ids as floats (0.0, 1.0, ...).
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    pub x: Vec<Vec<f64>>,
    pub y: Vec<f64>,
}

impl Dataset {
    pub fn new(x: Vec<Vec<f64>>, y: Vec<f64>) -> Result<Self> {
        if x.len() != y.len() {
            return Err(AimError::InvalidInput(format!(
                "feature/target length mismatch: {} vs {}",
                x.len(),
                y.len()
            )));
        }
        let dim = x.first().map_or(0, Vec::len);
        if x.iter().any(|r| r.len() != dim) {
            return Err(AimError::InvalidInput("ragged feature rows".into()));
        }
        if x.iter().flatten().any(|v| !v.is_finite()) || y.iter().any(|v| !v.is_finite()) {
            return Err(AimError::InvalidInput(
                "dataset contains non-finite values".into(),
            ));
        }
        Ok(Dataset { x, y })
    }

    pub fn len(&self) -> usize {
        self.x.len()
    }

    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    pub fn dim(&self) -> usize {
        self.x.first().map_or(0, Vec::len)
    }

    /// Shuffled train/test split; `train_frac` in (0, 1).
    pub fn split(&self, train_frac: f64, seed: u64) -> (Dataset, Dataset) {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(&mut StdRng::seed_from_u64(seed));
        let k = ((self.len() as f64) * train_frac).round() as usize;
        let take = |ids: &[usize]| Dataset {
            x: ids.iter().map(|&i| self.x[i].clone()).collect(),
            y: ids.iter().map(|&i| self.y[i]).collect(),
        };
        (
            take(&idx[..k.min(idx.len())]),
            take(&idx[k.min(idx.len())..]),
        )
    }

    /// Per-feature mean/std for standardization. Std of a constant feature
    /// is forced to 1 so scaling never divides by zero.
    pub fn fit_scaler(&self) -> Scaler {
        let d = self.dim();
        let n = self.len().max(1) as f64;
        let mut mean = vec![0.0; d];
        for row in &self.x {
            for (m, v) in mean.iter_mut().zip(row) {
                *m += v / n;
            }
        }
        let mut std = vec![0.0; d];
        for row in &self.x {
            for ((s, v), m) in std.iter_mut().zip(row).zip(&mean) {
                *s += (v - m).powi(2) / n;
            }
        }
        for s in std.iter_mut() {
            *s = s.sqrt();
            if *s < 1e-12 {
                *s = 1.0;
            }
        }
        Scaler { mean, std }
    }
}

/// Row-at-a-time inference over a column batch, for models whose
/// per-row work needs the whole feature vector at once: row `i` is
/// gathered from `cols[j][i]` into one reused buffer and handed to
/// `predict_one`.
pub fn predict_rows(cols: &[&[f64]], out: &mut [f64], predict_one: impl Fn(&[f64]) -> f64) {
    let mut x = vec![0.0; cols.len()];
    for (i, o) in out.iter_mut().enumerate() {
        for (xj, col) in x.iter_mut().zip(cols) {
            *xj = col[i];
        }
        *o = predict_one(&x);
    }
}

/// Feature standardizer fitted on training data.
#[derive(Debug, Clone)]
pub struct Scaler {
    pub mean: Vec<f64>,
    pub std: Vec<f64>,
}

impl Scaler {
    pub fn transform_row(&self, row: &[f64]) -> Vec<f64> {
        row.iter()
            .zip(self.mean.iter().zip(&self.std))
            .map(|(v, (m, s))| (v - m) / s)
            .collect()
    }

    pub fn transform(&self, ds: &Dataset) -> Dataset {
        Dataset {
            x: ds.x.iter().map(|r| self.transform_row(r)).collect(),
            y: ds.y.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::new(
            (0..100).map(|i| vec![i as f64, (i * 2) as f64]).collect(),
            (0..100).map(|i| i as f64).collect(),
        )
        .unwrap()
    }

    #[test]
    fn validation() {
        assert!(Dataset::new(vec![vec![1.0]], vec![]).is_err());
        assert!(Dataset::new(vec![vec![1.0], vec![1.0, 2.0]], vec![0.0, 0.0]).is_err());
        assert!(Dataset::new(vec![vec![f64::NAN]], vec![0.0]).is_err());
    }

    #[test]
    fn split_partitions() {
        let ds = toy();
        let (tr, te) = ds.split(0.8, 1);
        assert_eq!(tr.len(), 80);
        assert_eq!(te.len(), 20);
        // deterministic given seed
        let (tr2, _) = ds.split(0.8, 1);
        assert_eq!(tr.x, tr2.x);
        let (tr3, _) = ds.split(0.8, 2);
        assert_ne!(tr.x, tr3.x);
    }

    #[test]
    fn scaler_standardizes() {
        let ds = toy();
        let sc = ds.fit_scaler();
        let t = sc.transform(&ds);
        let d = t.dim();
        for j in 0..d {
            let mean: f64 = t.x.iter().map(|r| r[j]).sum::<f64>() / t.len() as f64;
            let var: f64 = t.x.iter().map(|r| (r[j] - mean).powi(2)).sum::<f64>() / t.len() as f64;
            assert!(mean.abs() < 1e-9);
            assert!((var - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn scaler_constant_feature_safe() {
        let ds = Dataset::new(vec![vec![5.0], vec![5.0]], vec![0.0, 1.0]).unwrap();
        let sc = ds.fit_scaler();
        let t = sc.transform_row(&[5.0]);
        assert!(t[0].is_finite());
    }
}
