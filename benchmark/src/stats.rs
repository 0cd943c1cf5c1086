//! The estimators every reported number goes through.
//!
//! Each is small and has a reason to exist:
//!
//! - [`percentile`] refuses a percentile the sample cannot support (fewer
//!   than ten samples beyond it), because the 99th percentile of 100
//!   samples is just the maximum.
//! - [`median_of_slices`] is how a timing metric becomes one number: the
//!   statistic is taken per measured slice and the median over slices is
//!   reported, which on a 2-core box repeats several times better than
//!   the whole-run statistic.
//! - [`geomean`] combines per-class medians so a multi-modal mix does not
//!   sit on a mode boundary and flip between runs.
//! - [`self_time_ns`] is a span's duration minus the part of it its
//!   children cover, with overlapping children counted once.
//! - [`worse_by`] / [`within_bound`] are the one comparison `--repeat`
//!   uses, so the benchmark judges itself the way a later PR is judged.

/// Samples strictly beyond the percentile position that the sample must
/// hold for the percentile to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of the `p`-th percentile in a sorted sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// The `p`-th percentile (nearest rank) of `sorted`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = rank(sorted.len(), p);
    (sorted.len() - 1 - idx >= MIN_BEYOND).then(|| sorted[idx])
}

/// The `p`-th percentile (nearest rank) with no support rule; `None` only
/// for an empty sample.
pub fn percentile_any(sorted: &[f64], p: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), p)])
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// One metric over the measured slices: the median of the per-slice
/// statistic, with the extremes kept for the report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceSummary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

/// Median over slices of a per-slice statistic. `None` if any slice could
/// not produce the statistic — a metric is reported for all slices or not
/// at all.
pub fn median_of_slices(per_slice: &[Option<f64>]) -> Option<SliceSummary> {
    let vals: Vec<f64> = per_slice.iter().copied().collect::<Option<_>>()?;
    let median = median(&vals)?;
    let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
    let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Some(SliceSummary { median, min, max })
}

/// Geometric mean of strictly positive values; `None` if empty or any
/// value is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| v.is_nan() || *v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Self time of a span `[start, end)`: its duration minus the union of its
/// children's intervals, each clipped to the span. Overlapping children
/// (parallel workers, or re-measurements beside a call) are counted once.
pub fn self_time_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    end.saturating_sub(start).saturating_sub(covered)
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// How much worse `new` is than `base`, as a share of `base` (negative
/// when `new` is better).
pub fn worse_by(base: f64, new: f64, better: Better) -> f64 {
    if base == 0.0 {
        return if new == base { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    }
}

/// The regression test a later change is held to: `new` may be worse than
/// `base` by at most `bound` (a share of `base`).
pub fn within_bound(base: f64, new: f64, better: Better, bound: f64) -> bool {
    worse_by(base, new, better) <= bound
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p99 of 1000 is rank 990: exactly ten samples lie beyond it
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        // one sample fewer and the tail is too thin
        assert_eq!(percentile(&ramp(999), 99.0), None);
        // p95 needs 200 samples
        assert_eq!(percentile(&ramp(200), 95.0), Some(190.0));
        assert_eq!(percentile(&ramp(199), 95.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_any_is_nearest_rank() {
        assert_eq!(percentile_any(&ramp(100), 99.0), Some(99.0));
        assert_eq!(percentile_any(&ramp(5), 50.0), Some(3.0));
        assert_eq!(percentile_any(&ramp(1), 99.0), Some(1.0));
        assert_eq!(percentile_any(&[], 99.0), None);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn median_of_slices_ignores_one_bad_slice_but_not_a_missing_one() {
        // one slice hit a checkpoint: the median does not move
        let s = median_of_slices(&[Some(1.0), Some(1.1), Some(9.0), Some(0.9), Some(1.0)])
            .expect("all slices present");
        assert_eq!(s.median, 1.0);
        assert_eq!(s.min, 0.9);
        assert_eq!(s.max, 9.0);
        // a slice without the statistic withholds the metric
        assert_eq!(median_of_slices(&[Some(1.0), None, Some(1.0)]), None);
        assert_eq!(median_of_slices(&[]), None);
    }

    #[test]
    fn geomean_is_scale_free_and_rejects_non_positive() {
        let g = geomean(&[1.0, 100.0]).expect("positive");
        assert!((g - 10.0).abs() < 1e-9);
        // doubling one class moves the mean by the same factor whichever
        // class it is — the property that keeps a fast class visible
        let a = geomean(&[2.0, 100.0]).expect("positive");
        let b = geomean(&[1.0, 200.0]).expect("positive");
        assert!((a - b).abs() < 1e-9);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // children [10,40) and [30,60) cover [10,60) = 50 of 100
        assert_eq!(self_time_ns(0, 100, &[(10, 40), (30, 60)]), 50);
        // a child nested in another adds nothing
        assert_eq!(self_time_ns(0, 100, &[(10, 60), (20, 30)]), 50);
        // children are clipped to the parent
        assert_eq!(self_time_ns(50, 100, &[(0, 60), (90, 200)]), 30);
        // a child wholly outside covers nothing
        assert_eq!(self_time_ns(0, 100, &[(100, 200)]), 100);
        assert_eq!(self_time_ns(0, 100, &[]), 100);
        assert_eq!(self_time_ns(0, 100, &[(0, 100), (0, 100)]), 0);
    }

    #[test]
    fn bound_comparison_respects_direction() {
        // latency up 5 %: inside an 8 % bound, outside a 4 % one
        assert!(within_bound(100.0, 105.0, Better::Lower, 0.08));
        assert!(!within_bound(100.0, 105.0, Better::Lower, 0.04));
        // throughput down 5 %
        assert!(within_bound(100.0, 95.0, Better::Higher, 0.08));
        assert!(!within_bound(100.0, 95.0, Better::Higher, 0.04));
        // improvements always pass
        assert!(within_bound(100.0, 50.0, Better::Lower, 0.0));
        assert!(within_bound(100.0, 150.0, Better::Higher, 0.0));
        assert!((worse_by(200.0, 210.0, Better::Lower) - 0.05).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 0.0, Better::Lower), 0.0);
        assert_eq!(worse_by(0.0, 1.0, Better::Lower), f64::INFINITY);
    }
}
