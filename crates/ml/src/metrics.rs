//! Evaluation metrics shared by the experiments.

/// Mean squared error.
pub fn mse(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    if pred.is_empty() {
        return 0.0;
    }
    pred.iter()
        .zip(truth)
        .map(|(p, t)| (p - t).powi(2))
        .sum::<f64>()
        / pred.len() as f64
}

/// Mean absolute error.
pub fn mae(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    if pred.is_empty() {
        return 0.0;
    }
    pred.iter()
        .zip(truth)
        .map(|(p, t)| (p - t).abs())
        .sum::<f64>()
        / pred.len() as f64
}

/// Coefficient of determination (R²). 1 is perfect; 0 matches predicting
/// the mean; negative is worse than the mean.
pub fn r2(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    if truth.is_empty() {
        return 0.0;
    }
    let mean = truth.iter().sum::<f64>() / truth.len() as f64;
    let ss_tot: f64 = truth.iter().map(|t| (t - mean).powi(2)).sum();
    let ss_res: f64 = pred.iter().zip(truth).map(|(p, t)| (t - p).powi(2)).sum();
    if ss_tot < 1e-12 {
        if ss_res < 1e-12 {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

/// Classification accuracy over class-id labels.
pub fn accuracy(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    if pred.is_empty() {
        return 0.0;
    }
    pred.iter()
        .zip(truth)
        .filter(|(p, t)| (p.round() - t.round()).abs() < 0.5)
        .count() as f64
        / pred.len() as f64
}

/// Precision/recall/F1 for the positive class (label 1.0) in a binary task.
pub fn binary_prf(pred: &[f64], truth: &[f64]) -> (f64, f64, f64) {
    assert_eq!(pred.len(), truth.len());
    let (mut tp, mut fp, mut fn_) = (0.0, 0.0, 0.0);
    for (p, t) in pred.iter().zip(truth) {
        let p = p.round() >= 1.0;
        let t = t.round() >= 1.0;
        match (p, t) {
            (true, true) => tp += 1.0,
            (true, false) => fp += 1.0,
            (false, true) => fn_ += 1.0,
            _ => {}
        }
    }
    let precision = if tp + fp > 0.0 { tp / (tp + fp) } else { 0.0 };
    let recall = if tp + fn_ > 0.0 { tp / (tp + fn_) } else { 0.0 };
    let f1 = if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    };
    (precision, recall, f1)
}

/// Mean absolute percentage error, skipping zero-truth points.
pub fn mape(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    let pts: Vec<f64> = pred
        .iter()
        .zip(truth)
        .filter(|(_, t)| t.abs() > 1e-9)
        .map(|(p, t)| ((p - t) / t).abs())
        .collect();
    if pts.is_empty() {
        0.0
    } else {
        pts.iter().sum::<f64>() / pts.len() as f64
    }
}

/// Q-error for cardinality estimation: max(pred/truth, truth/pred),
/// clamped below at 1. Both sides are floored at 1 row, the convention in
/// the learned-cardinality literature.
pub fn q_error(pred: f64, truth: f64) -> f64 {
    let p = pred.max(1.0);
    let t = truth.max(1.0);
    (p / t).max(t / p)
}

/// Median of a sample (sorts a copy).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// p-th percentile (0..=100) with linear interpolation.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = (p / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        v[lo] + (rank - lo as f64) * (v[hi] - v[lo])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regression_metrics() {
        let pred = [1.0, 2.0, 3.0];
        let truth = [1.0, 2.0, 5.0];
        assert!((mse(&pred, &truth) - 4.0 / 3.0).abs() < 1e-12);
        assert!((mae(&pred, &truth) - 2.0 / 3.0).abs() < 1e-12);
        assert!(r2(&truth, &truth) > 0.999);
        assert!(r2(&pred, &truth) < 1.0);
    }

    #[test]
    fn classification_metrics() {
        let pred = [1.0, 0.0, 1.0, 1.0];
        let truth = [1.0, 0.0, 0.0, 1.0];
        assert!((accuracy(&pred, &truth) - 0.75).abs() < 1e-12);
        let (p, r, f1) = binary_prf(&pred, &truth);
        assert!((p - 2.0 / 3.0).abs() < 1e-12);
        assert!((r - 1.0).abs() < 1e-12);
        assert!(f1 > 0.79 && f1 < 0.81);
    }

    #[test]
    fn q_error_symmetric() {
        assert_eq!(q_error(10.0, 100.0), 10.0);
        assert_eq!(q_error(100.0, 10.0), 10.0);
        assert_eq!(q_error(5.0, 5.0), 1.0);
        assert_eq!(q_error(0.0, 0.0), 1.0); // both floored at 1
    }

    #[test]
    fn order_statistics() {
        let xs = [3.0, 1.0, 2.0, 4.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&xs, 50.0), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn mape_skips_zero_truth() {
        let pred = [2.0, 5.0];
        let truth = [0.0, 4.0];
        assert!((mape(&pred, &truth) - 0.25).abs() < 1e-12);
    }
}
