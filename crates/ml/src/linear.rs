//! Linear and logistic regression trained by mini-batch gradient descent
//! with optional L2 regularization.

use rand::prelude::*;
use rand::rngs::StdRng;

use aimdb_common::{AimError, Result};

use crate::data::{Dataset, Scaler};

/// Training hyperparameters shared by the linear models.
#[derive(Debug, Clone, Copy)]
pub struct GdParams {
    pub epochs: usize,
    pub lr: f64,
    pub l2: f64,
    pub batch: usize,
    pub seed: u64,
}

impl Default for GdParams {
    fn default() -> Self {
        GdParams {
            epochs: 200,
            lr: 0.05,
            l2: 1e-4,
            batch: 32,
            seed: 7,
        }
    }
}

/// `bias + Σ_j w_j · scaled(x_j)` for one row, the scaler fused into the
/// dot product. [`affine_batch`] adds the same terms in the same feature
/// order, which is what keeps batch inference bit-identical to this.
fn affine_one(weights: &[f64], bias: f64, scaler: Option<&Scaler>, x: &[f64]) -> f64 {
    let mut acc = 0.0;
    match scaler {
        Some(s) => {
            for ((w, x), (m, sd)) in weights.iter().zip(x).zip(s.mean.iter().zip(&s.std)) {
                acc += w * ((x - m) / sd);
            }
        }
        None => {
            for (w, x) in weights.iter().zip(x) {
                acc += w * x;
            }
        }
    }
    acc + bias
}

/// [`affine_one`] over a column batch, one feature column at a time so
/// every inner loop is a straight pass over two slices.
fn affine_batch(
    weights: &[f64],
    bias: f64,
    scaler: Option<&Scaler>,
    cols: &[&[f64]],
    out: &mut [f64],
) {
    out.fill(0.0);
    match scaler {
        Some(s) => {
            for ((w, col), (m, sd)) in weights.iter().zip(cols).zip(s.mean.iter().zip(&s.std)) {
                for (o, x) in out.iter_mut().zip(col.iter()) {
                    *o += w * ((x - m) / sd);
                }
            }
        }
        None => {
            for (w, col) in weights.iter().zip(cols) {
                for (o, x) in out.iter_mut().zip(col.iter()) {
                    *o += w * x;
                }
            }
        }
    }
    for o in out.iter_mut() {
        *o += bias;
    }
}

/// Ordinary least squares via gradient descent, with internal feature
/// standardization so the learning rate is scale-free.
#[derive(Debug, Clone)]
pub struct LinearRegression {
    weights: Vec<f64>,
    bias: f64,
    scaler: Option<Scaler>,
}

impl LinearRegression {
    /// Fit on a dataset.
    pub fn fit(ds: &Dataset, params: GdParams) -> Result<Self> {
        if ds.is_empty() {
            return Err(AimError::InvalidInput("empty training set".into()));
        }
        let scaler = ds.fit_scaler();
        let scaled = scaler.transform(ds);
        let d = scaled.dim();
        let mut w = vec![0.0; d];
        let mut b = 0.0;
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut order: Vec<usize> = (0..scaled.len()).collect();
        for _ in 0..params.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(params.batch.max(1)) {
                let mut gw = vec![0.0; d];
                let mut gb = 0.0;
                for &i in chunk {
                    let pred: f64 = w.iter().zip(&scaled.x[i]).map(|(w, x)| w * x).sum::<f64>() + b;
                    let err = pred - scaled.y[i];
                    for (g, x) in gw.iter_mut().zip(&scaled.x[i]) {
                        *g += err * x;
                    }
                    gb += err;
                }
                let k = chunk.len() as f64;
                for (wj, gj) in w.iter_mut().zip(&gw) {
                    *wj -= params.lr * (gj / k + params.l2 * *wj);
                }
                b -= params.lr * gb / k;
            }
        }
        Ok(LinearRegression {
            weights: w,
            bias: b,
            scaler: Some(scaler),
        })
    }

    /// Construct directly from weights in *raw feature space* (no scaler).
    pub fn from_weights(weights: Vec<f64>, bias: f64) -> Self {
        LinearRegression {
            weights,
            bias,
            scaler: None,
        }
    }

    pub fn predict_one(&self, x: &[f64]) -> f64 {
        affine_one(&self.weights, self.bias, self.scaler.as_ref(), x)
    }

    /// [`Self::predict_one`] for every row of a column batch: `cols[j]`
    /// is feature `j`, `out[i]` receives row `i`'s prediction.
    pub fn predict_batch(&self, cols: &[&[f64]], out: &mut [f64]) {
        affine_batch(&self.weights, self.bias, self.scaler.as_ref(), cols, out);
    }

    pub fn predict(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|x| self.predict_one(x)).collect()
    }

    pub fn weights(&self) -> (&[f64], f64) {
        (&self.weights, self.bias)
    }
}

/// Binary logistic regression; `predict_proba` gives P(y=1).
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    bias: f64,
    scaler: Option<Scaler>,
}

/// The 0/1 class of a probability.
fn label(p: f64) -> f64 {
    if p >= 0.5 {
        1.0
    } else {
        0.0
    }
}

fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl LogisticRegression {
    pub fn fit(ds: &Dataset, params: GdParams) -> Result<Self> {
        if ds.is_empty() {
            return Err(AimError::InvalidInput("empty training set".into()));
        }
        if ds.y.iter().any(|&y| y != 0.0 && y != 1.0) {
            return Err(AimError::InvalidInput(
                "logistic regression expects 0/1 labels".into(),
            ));
        }
        let scaler = ds.fit_scaler();
        let scaled = scaler.transform(ds);
        let d = scaled.dim();
        let mut w = vec![0.0; d];
        let mut b = 0.0;
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut order: Vec<usize> = (0..scaled.len()).collect();
        for _ in 0..params.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(params.batch.max(1)) {
                let mut gw = vec![0.0; d];
                let mut gb = 0.0;
                for &i in chunk {
                    let z: f64 = w.iter().zip(&scaled.x[i]).map(|(w, x)| w * x).sum::<f64>() + b;
                    let err = sigmoid(z) - scaled.y[i];
                    for (g, x) in gw.iter_mut().zip(&scaled.x[i]) {
                        *g += err * x;
                    }
                    gb += err;
                }
                let k = chunk.len() as f64;
                for (wj, gj) in w.iter_mut().zip(&gw) {
                    *wj -= params.lr * (gj / k + params.l2 * *wj);
                }
                b -= params.lr * gb / k;
            }
        }
        Ok(LogisticRegression {
            weights: w,
            bias: b,
            scaler: Some(scaler),
        })
    }

    /// Construct directly from weights in *raw feature space* (no scaler).
    pub fn from_weights(weights: Vec<f64>, bias: f64) -> Self {
        LogisticRegression {
            weights,
            bias,
            scaler: None,
        }
    }

    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        sigmoid(affine_one(
            &self.weights,
            self.bias,
            self.scaler.as_ref(),
            x,
        ))
    }

    pub fn predict_one(&self, x: &[f64]) -> f64 {
        label(self.predict_proba(x))
    }

    /// [`Self::predict_one`] for every row of a column batch.
    pub fn predict_batch(&self, cols: &[&[f64]], out: &mut [f64]) {
        affine_batch(&self.weights, self.bias, self.scaler.as_ref(), cols, out);
        for o in out.iter_mut() {
            *o = label(sigmoid(*o));
        }
    }

    pub fn predict(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|x| self.predict_one(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{accuracy, r2};
    use aimdb_common::synth::{gaussian, rng};

    #[test]
    fn linear_recovers_plane() {
        let mut r = rng(3);
        let x: Vec<Vec<f64>> = (0..500)
            .map(|_| vec![gaussian(&mut r) * 10.0, gaussian(&mut r) * 5.0])
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|v| 3.0 * v[0] - 2.0 * v[1] + 7.0 + 0.01 * gaussian(&mut r))
            .collect();
        let ds = Dataset::new(x.clone(), y.clone()).unwrap();
        let m = LinearRegression::fit(&ds, GdParams::default()).unwrap();
        let pred = m.predict(&x);
        assert!(r2(&pred, &y) > 0.99, "r2 = {}", r2(&pred, &y));
    }

    #[test]
    fn logistic_separates_halfspace() {
        let mut r = rng(5);
        let x: Vec<Vec<f64>> = (0..600)
            .map(|_| vec![gaussian(&mut r), gaussian(&mut r)])
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|v| if v[0] + v[1] > 0.0 { 1.0 } else { 0.0 })
            .collect();
        let ds = Dataset::new(x.clone(), y.clone()).unwrap();
        let m = LogisticRegression::fit(
            &ds,
            GdParams {
                epochs: 300,
                ..Default::default()
            },
        )
        .unwrap();
        let pred = m.predict(&x);
        assert!(accuracy(&pred, &y) > 0.95);
        // probabilities are calibrated in direction
        assert!(m.predict_proba(&[3.0, 3.0]) > 0.9);
        assert!(m.predict_proba(&[-3.0, -3.0]) < 0.1);
    }

    #[test]
    fn rejects_bad_input() {
        let empty = Dataset::default();
        assert!(LinearRegression::fit(&empty, GdParams::default()).is_err());
        let bad = Dataset::new(vec![vec![1.0]], vec![2.0]).unwrap();
        assert!(LogisticRegression::fit(&bad, GdParams::default()).is_err());
    }

    #[test]
    fn from_weights_predicts_raw() {
        let m = LinearRegression::from_weights(vec![2.0], 1.0);
        assert_eq!(m.predict_one(&[3.0]), 7.0);
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
    }
}
