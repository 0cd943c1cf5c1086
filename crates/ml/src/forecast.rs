//! Time-series forecasters for workload prediction (E10/E11).
//!
//! The tutorial cites QueryBot-style ML forecasting of query arrival rates
//! (Ma et al., SIGMOD'18) against rule-based baselines. We implement the
//! spectrum: last-value (naive), EWMA, Holt's linear trend, seasonal-naive,
//! and an AR(p) model fitted by least squares — enough to reproduce the
//! "learned beats naive under seasonality + trend" claim.

use aimdb_common::{AimError, Result};

/// One-step-ahead forecaster over a scalar series.
pub trait Forecaster {
    /// Feed one observation.
    fn observe(&mut self, y: f64);
    /// Predict the next value.
    fn forecast(&self) -> f64;
    /// Name for reports.
    fn name(&self) -> &'static str;
}

/// Predicts the last observed value.
#[derive(Debug, Default, Clone)]
pub struct LastValue {
    last: f64,
}

impl Forecaster for LastValue {
    fn observe(&mut self, y: f64) {
        self.last = y;
    }
    fn forecast(&self) -> f64 {
        self.last
    }
    fn name(&self) -> &'static str {
        "last-value"
    }
}

/// Exponentially weighted moving average.
#[derive(Debug, Clone)]
pub struct Ewma {
    alpha: f64,
    level: Option<f64>,
}

impl Ewma {
    pub fn new(alpha: f64) -> Self {
        Ewma {
            alpha: alpha.clamp(0.0, 1.0),
            level: None,
        }
    }
}

impl Forecaster for Ewma {
    fn observe(&mut self, y: f64) {
        self.level = Some(match self.level {
            Some(l) => self.alpha * y + (1.0 - self.alpha) * l,
            None => y,
        });
    }
    fn forecast(&self) -> f64 {
        self.level.unwrap_or(0.0)
    }
    fn name(&self) -> &'static str {
        "ewma"
    }
}

/// Holt's linear-trend double exponential smoothing.
#[derive(Debug, Clone)]
pub struct Holt {
    alpha: f64,
    beta: f64,
    level: Option<f64>,
    trend: f64,
}

impl Holt {
    pub fn new(alpha: f64, beta: f64) -> Self {
        Holt {
            alpha: alpha.clamp(0.0, 1.0),
            beta: beta.clamp(0.0, 1.0),
            level: None,
            trend: 0.0,
        }
    }
}

impl Forecaster for Holt {
    fn observe(&mut self, y: f64) {
        match self.level {
            None => self.level = Some(y),
            Some(l) => {
                let new_level = self.alpha * y + (1.0 - self.alpha) * (l + self.trend);
                self.trend = self.beta * (new_level - l) + (1.0 - self.beta) * self.trend;
                self.level = Some(new_level);
            }
        }
    }
    fn forecast(&self) -> f64 {
        self.level.unwrap_or(0.0) + self.trend
    }
    fn name(&self) -> &'static str {
        "holt"
    }
}

/// Predicts the value one season ago.
#[derive(Debug, Clone)]
pub struct SeasonalNaive {
    period: usize,
    history: Vec<f64>,
}

impl SeasonalNaive {
    pub fn new(period: usize) -> Self {
        SeasonalNaive {
            period: period.max(1),
            history: Vec::new(),
        }
    }
}

impl Forecaster for SeasonalNaive {
    fn observe(&mut self, y: f64) {
        self.history.push(y);
    }
    fn forecast(&self) -> f64 {
        let n = self.history.len();
        if n >= self.period {
            self.history[n - self.period]
        } else {
            self.history.last().copied().unwrap_or(0.0)
        }
    }
    fn name(&self) -> &'static str {
        "seasonal-naive"
    }
}

/// Autoregressive model of order `p`, refitted by ordinary least squares
/// (normal equations with Gaussian elimination) every `refit_every`
/// observations. This is the "ML-based" forecaster of the experiment.
#[derive(Debug, Clone)]
pub struct ArModel {
    p: usize,
    refit_every: usize,
    history: Vec<f64>,
    coef: Vec<f64>, // [intercept, w1..wp], w1 on most recent lag
    since_fit: usize,
}

impl ArModel {
    pub fn new(p: usize, refit_every: usize) -> Self {
        ArModel {
            p: p.max(1),
            refit_every: refit_every.max(1),
            history: Vec::new(),
            coef: Vec::new(),
            since_fit: 0,
        }
    }

    fn refit(&mut self) {
        let n = self.history.len();
        if n < self.p + 2 {
            return;
        }
        // design matrix: rows t = p..n, predictors [1, y[t-1], .., y[t-p]]
        let rows = n - self.p;
        let d = self.p + 1;
        // normal equations A^T A x = A^T b
        let mut ata = vec![vec![0.0; d]; d];
        let mut atb = vec![0.0; d];
        for t in self.p..n {
            let mut row = Vec::with_capacity(d);
            row.push(1.0);
            for lag in 1..=self.p {
                row.push(self.history[t - lag]);
            }
            let y = self.history[t];
            for i in 0..d {
                atb[i] += row[i] * y;
                for j in 0..d {
                    ata[i][j] += row[i] * row[j];
                }
            }
        }
        // ridge stabilization
        for (i, row) in ata.iter_mut().enumerate() {
            row[i] += 1e-6 * rows as f64;
        }
        if let Ok(sol) = solve(ata, atb) {
            self.coef = sol;
        }
    }
}

impl Forecaster for ArModel {
    fn observe(&mut self, y: f64) {
        self.history.push(y);
        self.since_fit += 1;
        if self.since_fit >= self.refit_every || self.coef.is_empty() {
            self.refit();
            self.since_fit = 0;
        }
    }

    fn forecast(&self) -> f64 {
        let n = self.history.len();
        if self.coef.is_empty() || n < self.p {
            return self.history.last().copied().unwrap_or(0.0);
        }
        let mut y = self.coef[0];
        for lag in 1..=self.p {
            y += self.coef[lag] * self.history[n - lag];
        }
        y
    }

    fn name(&self) -> &'static str {
        "ar(p)"
    }
}

/// Solve a dense linear system by Gaussian elimination with partial
/// pivoting.
pub fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Result<Vec<f64>> {
    let n = a.len();
    if a.iter().any(|r| r.len() != n) || b.len() != n {
        return Err(AimError::InvalidInput("non-square system".into()));
    }
    for col in 0..n {
        // pivot
        let mut pivot = col;
        for i in col + 1..n {
            if a[i][col].abs() > a[pivot][col].abs() {
                pivot = i;
            }
        }
        if a[pivot][col].abs() < 1e-12 {
            return Err(AimError::InvalidInput("singular system".into()));
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in col + 1..n {
            let f = a[row][col] / a[col][col];
            if f == 0.0 {
                continue;
            }
            let (upper, lower) = a.split_at_mut(row);
            for (x, p) in lower[0][col..n].iter_mut().zip(&upper[col][col..n]) {
                *x -= f * p;
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in row + 1..n {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    Ok(x)
}

/// Run a forecaster over a trace, collecting one-step-ahead predictions
/// (prediction for t made after observing up to t-1). The first
/// observation has no prediction.
pub fn run_forecaster(f: &mut dyn Forecaster, trace: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let mut preds = Vec::with_capacity(trace.len().saturating_sub(1));
    let mut truths = Vec::with_capacity(trace.len().saturating_sub(1));
    for (t, &y) in trace.iter().enumerate() {
        if t > 0 {
            preds.push(f.forecast());
            truths.push(y);
        }
        f.observe(y);
    }
    (preds, truths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::mape;
    use aimdb_common::synth::seasonal_trace;

    #[test]
    fn solve_linear_system() {
        let a = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
        let b = vec![5.0, 10.0];
        let x = solve(a, b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
        assert!(solve(vec![vec![0.0]], vec![1.0]).is_err());
    }

    #[test]
    fn holt_tracks_trend() {
        let trace: Vec<f64> = (0..100).map(|t| 10.0 + 2.0 * t as f64).collect();
        let (p_holt, t_holt) = run_forecaster(&mut Holt::new(0.5, 0.3), &trace);
        let (p_last, t_last) = run_forecaster(&mut LastValue::default(), &trace);
        assert!(mape(&p_holt, &t_holt) < mape(&p_last, &t_last));
        // converged Holt should nail a pure linear trend
        let tail_err = (p_holt.last().unwrap() - t_holt.last().unwrap()).abs();
        assert!(tail_err < 0.5, "tail error {tail_err}");
    }

    #[test]
    fn seasonal_naive_beats_last_value_on_seasonal_trace() {
        let trace = seasonal_trace(240, 24, 100.0, 40.0, 0.0, 1.0, None, 3);
        let (p_sn, t_sn) = run_forecaster(&mut SeasonalNaive::new(24), &trace);
        let (p_lv, t_lv) = run_forecaster(&mut LastValue::default(), &trace);
        assert!(mape(&p_sn[24..], &t_sn[24..]) < mape(&p_lv[24..], &t_lv[24..]));
    }

    #[test]
    fn ar_model_learns_ar_process() {
        // y_t = 0.8 y_{t-1} + 10
        let mut trace = vec![50.0];
        for _ in 0..300 {
            trace.push(0.8 * trace.last().unwrap() + 10.0);
        }
        let mut ar = ArModel::new(2, 20);
        let (p, t) = run_forecaster(&mut ar, &trace);
        let tail = p.len() - 50;
        assert!(mape(&p[tail..], &t[tail..]) < 0.01);
    }

    #[test]
    fn ewma_smooths() {
        let mut e = Ewma::new(0.5);
        e.observe(0.0);
        e.observe(10.0);
        assert!((e.forecast() - 5.0).abs() < 1e-9);
        assert_eq!(e.name(), "ewma");
    }

    #[test]
    fn run_forecaster_alignment() {
        let trace = [1.0, 2.0, 3.0];
        let (p, t) = run_forecaster(&mut LastValue::default(), &trace);
        assert_eq!(p, vec![1.0, 2.0]); // predicts previous value
        assert_eq!(t, vec![2.0, 3.0]);
    }
}
