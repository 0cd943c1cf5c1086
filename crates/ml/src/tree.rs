//! Decision trees (CART) and random forests.
//!
//! Classification trees split on Gini impurity; regression trees on
//! variance reduction. Forests bag rows and subsample features per split.

use rand::prelude::*;
use rand::rngs::StdRng;

use aimdb_common::{AimError, Result};

use crate::data::Dataset;

/// Task selector for trees/forests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeTask {
    Classification,
    Regression,
}

/// Tree hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct TreeParams {
    pub max_depth: usize,
    pub min_samples_split: usize,
    pub task: TreeTask,
    /// Features to consider per split; `None` means all.
    pub max_features: Option<usize>,
    pub seed: u64,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 12,
            min_samples_split: 4,
            task: TreeTask::Classification,
            max_features: None,
            seed: 7,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A trained CART decision tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    root: Node,
    task: TreeTask,
}

impl DecisionTree {
    pub fn fit(ds: &Dataset, params: TreeParams) -> Result<Self> {
        if ds.is_empty() {
            return Err(AimError::InvalidInput("empty training set".into()));
        }
        let idx: Vec<usize> = (0..ds.len()).collect();
        let mut rng = StdRng::seed_from_u64(params.seed);
        let root = build(ds, &idx, &params, 0, &mut rng);
        Ok(DecisionTree {
            root,
            task: params.task,
        })
    }

    pub fn predict_one(&self, x: &[f64]) -> f64 {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// [`Self::predict_one`] for every row of a column batch: the same
    /// root-to-leaf walk, reading feature `j` of row `i` from `cols[j][i]`.
    pub fn predict_batch(&self, cols: &[&[f64]], out: &mut [f64]) {
        for (i, o) in out.iter_mut().enumerate() {
            let mut node = &self.root;
            *o = loop {
                match node {
                    Node::Leaf { value } => break *value,
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        node = if cols[*feature][i] <= *threshold {
                            left
                        } else {
                            right
                        };
                    }
                }
            };
        }
    }

    pub fn predict(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|x| self.predict_one(x)).collect()
    }

    pub fn task(&self) -> TreeTask {
        self.task
    }

    /// Depth of the fitted tree.
    pub fn depth(&self) -> usize {
        fn d(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => 1 + d(left).max(d(right)),
            }
        }
        d(&self.root)
    }
}

fn leaf_value(ds: &Dataset, idx: &[usize], task: TreeTask) -> f64 {
    match task {
        TreeTask::Regression => idx.iter().map(|&i| ds.y[i]).sum::<f64>() / idx.len().max(1) as f64,
        TreeTask::Classification => {
            // majority class
            let mut counts: std::collections::HashMap<i64, usize> =
                std::collections::HashMap::new();
            for &i in idx {
                *counts.entry(ds.y[i].round() as i64).or_default() += 1;
            }
            counts
                .into_iter()
                .max_by_key(|&(c, n)| (n, -c))
                .map(|(c, _)| c as f64)
                .unwrap_or(0.0)
        }
    }
}

fn impurity(ds: &Dataset, idx: &[usize], task: TreeTask) -> f64 {
    if idx.is_empty() {
        return 0.0;
    }
    match task {
        TreeTask::Regression => {
            let n = idx.len() as f64;
            let mean = idx.iter().map(|&i| ds.y[i]).sum::<f64>() / n;
            idx.iter().map(|&i| (ds.y[i] - mean).powi(2)).sum::<f64>() / n
        }
        TreeTask::Classification => {
            let mut counts: std::collections::HashMap<i64, usize> =
                std::collections::HashMap::new();
            for &i in idx {
                *counts.entry(ds.y[i].round() as i64).or_default() += 1;
            }
            let n = idx.len() as f64;
            1.0 - counts
                .values()
                .map(|&c| (c as f64 / n).powi(2))
                .sum::<f64>()
        }
    }
}

fn build(ds: &Dataset, idx: &[usize], params: &TreeParams, depth: usize, rng: &mut StdRng) -> Node {
    let parent_impurity = impurity(ds, idx, params.task);
    if depth >= params.max_depth || idx.len() < params.min_samples_split || parent_impurity < 1e-12
    {
        return Node::Leaf {
            value: leaf_value(ds, idx, params.task),
        };
    }
    let dim = ds.dim();
    let mut features: Vec<usize> = (0..dim).collect();
    if let Some(k) = params.max_features {
        features.shuffle(rng);
        features.truncate(k.max(1).min(dim));
    }

    let mut best: Option<(f64, usize, f64)> = None; // (weighted impurity, feature, threshold)
    for &f in &features {
        // candidate thresholds: midpoints of sorted unique values
        let mut vals: Vec<f64> = idx.iter().map(|&i| ds.x[i][f]).collect();
        vals.sort_by(|a, b| a.total_cmp(b));
        vals.dedup();
        if vals.len() < 2 {
            continue;
        }
        // cap candidate count for wide-domain features
        let step = (vals.len() / 32).max(1);
        for w in vals.windows(2).step_by(step) {
            let thr = (w[0] + w[1]) / 2.0;
            let (l, r): (Vec<usize>, Vec<usize>) = idx.iter().partition(|&&i| ds.x[i][f] <= thr);
            if l.is_empty() || r.is_empty() {
                continue;
            }
            let n = idx.len() as f64;
            let score = impurity(ds, &l, params.task) * l.len() as f64 / n
                + impurity(ds, &r, params.task) * r.len() as f64 / n;
            if best.is_none_or(|(b, _, _)| score < b) {
                best = Some((score, f, thr));
            }
        }
    }
    match best {
        Some((score, feature, threshold)) if score < parent_impurity - 1e-12 => {
            let (l, r): (Vec<usize>, Vec<usize>) =
                idx.iter().partition(|&&i| ds.x[i][feature] <= threshold);
            Node::Split {
                feature,
                threshold,
                left: Box::new(build(ds, &l, params, depth + 1, rng)),
                right: Box::new(build(ds, &r, params, depth + 1, rng)),
            }
        }
        _ => Node::Leaf {
            value: leaf_value(ds, idx, params.task),
        },
    }
}

/// Bagged ensemble of CART trees.
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    task: TreeTask,
}

impl RandomForest {
    pub fn fit(ds: &Dataset, n_trees: usize, params: TreeParams) -> Result<Self> {
        if ds.is_empty() {
            return Err(AimError::InvalidInput("empty training set".into()));
        }
        let mut rng = StdRng::seed_from_u64(params.seed);
        let default_feats = ((ds.dim() as f64).sqrt().ceil() as usize).max(1);
        let mut trees = Vec::with_capacity(n_trees);
        for t in 0..n_trees {
            // bootstrap sample
            let idx: Vec<usize> = (0..ds.len()).map(|_| rng.gen_range(0..ds.len())).collect();
            let boot = Dataset {
                x: idx.iter().map(|&i| ds.x[i].clone()).collect(),
                y: idx.iter().map(|&i| ds.y[i]).collect(),
            };
            let p = TreeParams {
                max_features: Some(params.max_features.unwrap_or(default_feats)),
                seed: params.seed.wrapping_add(t as u64 + 1),
                ..params
            };
            trees.push(DecisionTree::fit(&boot, p)?);
        }
        Ok(RandomForest {
            trees,
            task: params.task,
        })
    }

    pub fn predict_one(&self, x: &[f64]) -> f64 {
        let votes: Vec<f64> = self.trees.iter().map(|t| t.predict_one(x)).collect();
        match self.task {
            TreeTask::Regression => votes.iter().sum::<f64>() / votes.len().max(1) as f64,
            TreeTask::Classification => {
                let mut counts: std::collections::HashMap<i64, usize> =
                    std::collections::HashMap::new();
                for v in votes {
                    *counts.entry(v.round() as i64).or_default() += 1;
                }
                counts
                    .into_iter()
                    .max_by_key(|&(c, n)| (n, -c))
                    .map(|(c, _)| c as f64)
                    .unwrap_or(0.0)
            }
        }
    }

    pub fn predict(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|x| self.predict_one(x)).collect()
    }

    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{accuracy, r2};
    use aimdb_common::synth::rng;
    use rand::Rng;

    fn ring_dataset(n: usize, seed: u64) -> Dataset {
        // class 1 inside the ring radius 1, class 0 outside — nonlinear
        let mut r = rng(seed);
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![r.gen_range(-2.0..2.0), r.gen_range(-2.0..2.0)])
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|v| {
                if v[0] * v[0] + v[1] * v[1] < 1.0 {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        Dataset::new(x, y).unwrap()
    }

    #[test]
    fn tree_classifies_nonlinear_boundary() {
        let ds = ring_dataset(1200, 3);
        let t = DecisionTree::fit(&ds, TreeParams::default()).unwrap();
        let pred = t.predict(&ds.x);
        assert!(accuracy(&pred, &ds.y) > 0.93);
        assert!(t.depth() > 2);
    }

    #[test]
    fn tree_regression_fits_step() {
        let x: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..200).map(|i| if i < 100 { 1.0 } else { 5.0 }).collect();
        let ds = Dataset::new(x.clone(), y.clone()).unwrap();
        let t = DecisionTree::fit(
            &ds,
            TreeParams {
                task: TreeTask::Regression,
                ..Default::default()
            },
        )
        .unwrap();
        let pred = t.predict(&x);
        assert!(r2(&pred, &y) > 0.999);
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let ds = Dataset::new(vec![vec![0.0], vec![1.0]], vec![1.0, 1.0]).unwrap();
        let t = DecisionTree::fit(&ds, TreeParams::default()).unwrap();
        assert_eq!(t.depth(), 1);
        assert_eq!(t.predict_one(&[0.5]), 1.0);
    }

    #[test]
    fn forest_beats_or_matches_single_tree_oob() {
        let ds = ring_dataset(1500, 5);
        let (train, test) = ds.split(0.7, 1);
        let shallow = TreeParams {
            max_depth: 4,
            ..Default::default()
        };
        let single = DecisionTree::fit(&train, shallow).unwrap();
        let forest = RandomForest::fit(&train, 25, shallow).unwrap();
        let acc_tree = accuracy(&single.predict(&test.x), &test.y);
        let acc_forest = accuracy(&forest.predict(&test.x), &test.y);
        assert!(
            acc_forest >= acc_tree - 0.02,
            "forest {acc_forest} vs tree {acc_tree}"
        );
        assert_eq!(forest.n_trees(), 25);
    }

    #[test]
    fn empty_rejected() {
        let empty = Dataset::default();
        assert!(DecisionTree::fit(&empty, TreeParams::default()).is_err());
        assert!(RandomForest::fit(&empty, 3, TreeParams::default()).is_err());
    }
}
