//! K-means clustering with k-means++ initialization.
//!
//! Used by the health monitor (E11): intermittent-slow-query KPI vectors
//! are clustered and each cluster is assigned one root cause, following
//! the iSQUAD design the tutorial describes.

use rand::prelude::*;
use rand::rngs::StdRng;

use aimdb_common::{AimError, Result};

use crate::data::predict_rows;

/// K-means result: centroids plus the assignment of each input point.
#[derive(Debug, Clone)]
pub struct KMeans {
    pub centroids: Vec<Vec<f64>>,
    pub assignments: Vec<usize>,
    pub inertia: f64,
}

fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum()
}

impl KMeans {
    /// Run k-means on `points` with `k` clusters.
    pub fn fit(points: &[Vec<f64>], k: usize, max_iter: usize, seed: u64) -> Result<Self> {
        if points.is_empty() {
            return Err(AimError::InvalidInput("no points to cluster".into()));
        }
        if k == 0 || k > points.len() {
            return Err(AimError::InvalidInput(format!(
                "k={k} invalid for {} points",
                points.len()
            )));
        }
        let mut rng = StdRng::seed_from_u64(seed);

        // k-means++ seeding
        let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
        centroids.push(points[rng.gen_range(0..points.len())].clone());
        while centroids.len() < k {
            let d2: Vec<f64> = points
                .iter()
                .map(|p| {
                    centroids
                        .iter()
                        .map(|c| dist2(p, c))
                        .fold(f64::INFINITY, f64::min)
                })
                .collect();
            let total: f64 = d2.iter().sum();
            if total <= 1e-18 {
                // all points coincide with centroids; fill arbitrarily
                centroids.push(points[rng.gen_range(0..points.len())].clone());
                continue;
            }
            let mut target = rng.gen::<f64>() * total;
            let mut chosen = points.len() - 1;
            for (i, d) in d2.iter().enumerate() {
                target -= d;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            centroids.push(points[chosen].clone());
        }

        let mut assignments = vec![0usize; points.len()];
        for _ in 0..max_iter {
            // assign
            let mut changed = false;
            for (i, p) in points.iter().enumerate() {
                let mut best = 0;
                for c in 1..k {
                    if dist2(p, &centroids[c]) < dist2(p, &centroids[best]) {
                        best = c;
                    }
                }
                if assignments[i] != best {
                    assignments[i] = best;
                    changed = true;
                }
            }
            // update
            let dim = points[0].len();
            let mut sums = vec![vec![0.0; dim]; k];
            let mut counts = vec![0usize; k];
            for (p, &a) in points.iter().zip(&assignments) {
                counts[a] += 1;
                for (s, v) in sums[a].iter_mut().zip(p) {
                    *s += v;
                }
            }
            for (c, (sum, count)) in centroids.iter_mut().zip(sums.iter().zip(&counts)) {
                if *count > 0 {
                    *c = sum.iter().map(|s| s / *count as f64).collect();
                }
            }
            if !changed {
                break;
            }
        }
        let inertia = points
            .iter()
            .zip(&assignments)
            .map(|(p, &a)| dist2(p, &centroids[a]))
            .sum();
        Ok(KMeans {
            centroids,
            assignments,
            inertia,
        })
    }

    /// Nearest centroid for a new point.
    pub fn assign(&self, p: &[f64]) -> usize {
        (0..self.centroids.len())
            .min_by(|&a, &b| dist2(p, &self.centroids[a]).total_cmp(&dist2(p, &self.centroids[b])))
            .unwrap_or(0)
    }

    /// [`Self::assign`] (as `f64`) for every row of a column batch.
    pub fn predict_batch(&self, cols: &[&[f64]], out: &mut [f64]) {
        predict_rows(cols, out, |p| self.assign(p) as f64);
    }

    /// Distance from `p` to its nearest centroid (novelty signal).
    pub fn distance_to_nearest(&self, p: &[f64]) -> f64 {
        self.centroids
            .iter()
            .map(|c| dist2(p, c).sqrt())
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimdb_common::synth::{gaussian, rng};

    fn three_blobs(seed: u64) -> Vec<Vec<f64>> {
        let mut r = rng(seed);
        let centers = [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]];
        (0..300)
            .map(|i| {
                let c = centers[i % 3];
                vec![c[0] + gaussian(&mut r) * 0.5, c[1] + gaussian(&mut r) * 0.5]
            })
            .collect()
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let pts = three_blobs(1);
        let km = KMeans::fit(&pts, 3, 50, 9).unwrap();
        // points from the same generator blob must share a cluster
        for i in (0..pts.len()).step_by(3) {
            assert_eq!(km.assignments[i], km.assignments[(i + 3) % pts.len()]);
        }
        // all three clusters used
        let mut used: Vec<usize> = km.assignments.clone();
        used.sort_unstable();
        used.dedup();
        assert_eq!(used.len(), 3);
        assert!(km.inertia < pts.len() as f64); // tight blobs
    }

    #[test]
    fn assign_and_novelty() {
        let pts = three_blobs(2);
        let km = KMeans::fit(&pts, 3, 50, 9).unwrap();
        let a = km.assign(&[10.0, 0.0]);
        assert!(km.centroids[a][0] > 8.0);
        assert!(km.distance_to_nearest(&[100.0, 100.0]) > 50.0);
        assert!(km.distance_to_nearest(&[0.0, 0.0]) < 1.0);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(KMeans::fit(&[], 1, 10, 0).is_err());
        let pts = vec![vec![1.0], vec![2.0]];
        assert!(KMeans::fit(&pts, 3, 10, 0).is_err());
        assert!(KMeans::fit(&pts, 0, 10, 0).is_err());
        // identical points: must not loop or divide by zero
        let same = vec![vec![5.0]; 10];
        let km = KMeans::fit(&same, 2, 10, 0).unwrap();
        assert_eq!(km.inertia, 0.0);
    }
}
