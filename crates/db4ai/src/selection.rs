//! Model selection with parallelism (MLbase / parameter-server line).
//!
//! "A key bottleneck of this problem is model selection throughput, i.e.,
//! the number of training configurations tested per unit time. … A
//! solution to enhance the throughput is parallelism."
//!
//! A configuration grid (model kind × hyperparameters) is evaluated
//! serially and with task parallelism (scoped threads). Both
//! return identical results; the parallel path multiplies throughput.
//! Successive halving is implemented on top: it spends a fraction of the
//! full grid's epoch budget to reach a comparable winner.

use aimdb_common::{AimError, Clock, Result, WallClock};
use aimdb_ml::data::Dataset;
use aimdb_ml::linear::{GdParams, LogisticRegression};
use aimdb_ml::metrics::accuracy;
use aimdb_ml::tree::{DecisionTree, TreeParams, TreeTask};

/// One training configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum Config {
    Logistic { epochs: usize, lr: f64 },
    Tree { max_depth: usize },
}

impl Config {
    /// The default search grid.
    pub fn grid() -> Vec<Config> {
        let mut out = Vec::new();
        for &epochs in &[30, 100, 250] {
            for &lr in &[0.01, 0.05, 0.2] {
                out.push(Config::Logistic { epochs, lr });
            }
        }
        for &d in &[2, 4, 8, 12] {
            out.push(Config::Tree { max_depth: d });
        }
        out
    }

    /// Epochs this configuration costs (trees count as their depth·10 for
    /// budget accounting).
    pub fn budget(&self) -> usize {
        match self {
            Config::Logistic { epochs, .. } => *epochs,
            Config::Tree { max_depth } => max_depth * 10,
        }
    }

    /// Train on `train`, return validation accuracy. `budget_scale`
    /// shrinks the training effort (successive halving's early rungs).
    pub fn evaluate(&self, train: &Dataset, valid: &Dataset, budget_scale: f64) -> Result<f64> {
        match self {
            Config::Logistic { epochs, lr } => {
                let m = LogisticRegression::fit(
                    train,
                    GdParams {
                        epochs: ((*epochs as f64 * budget_scale) as usize).max(5),
                        lr: *lr,
                        seed: 7,
                        ..Default::default()
                    },
                )?;
                Ok(accuracy(&m.predict(&valid.x), &valid.y))
            }
            Config::Tree { max_depth } => {
                let m = DecisionTree::fit(
                    train,
                    TreeParams {
                        max_depth: ((*max_depth as f64 * budget_scale).ceil() as usize).max(1),
                        task: TreeTask::Classification,
                        seed: 7,
                        ..Default::default()
                    },
                )?;
                Ok(accuracy(&m.predict(&valid.x), &valid.y))
            }
        }
    }
}

/// Result of a grid evaluation.
#[derive(Debug, Clone)]
pub struct SelectionReport {
    pub method: String,
    pub best_config: Config,
    pub best_score: f64,
    pub configs_tested: usize,
    pub wall_seconds: f64,
    pub epochs_spent: usize,
}

fn argbest(scores: &[(Config, f64)]) -> Result<(Config, f64)> {
    scores
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .cloned()
        .ok_or_else(|| AimError::InvalidInput("empty grid".into()))
}

/// Serial full-grid evaluation.
pub fn select_serial(grid: &[Config], train: &Dataset, valid: &Dataset) -> Result<SelectionReport> {
    select_serial_with_clock(grid, train, valid, &WallClock::new())
}

/// Serial full-grid evaluation against an injected clock (the
/// `wall_seconds` in the report come from `clock`, so deterministic runs
/// can pass a `ManualClock`).
pub fn select_serial_with_clock(
    grid: &[Config],
    train: &Dataset,
    valid: &Dataset,
    clock: &dyn Clock,
) -> Result<SelectionReport> {
    let t0 = clock.now_secs();
    let scores: Vec<(Config, f64)> = grid
        .iter()
        .map(|c| Ok((c.clone(), c.evaluate(train, valid, 1.0)?)))
        .collect::<Result<_>>()?;
    let (best_config, best_score) = argbest(&scores)?;
    Ok(SelectionReport {
        method: "serial".into(),
        best_config,
        best_score,
        configs_tested: grid.len(),
        wall_seconds: clock.now_secs() - t0,
        epochs_spent: grid.iter().map(Config::budget).sum(),
    })
}

/// Task-parallel full-grid evaluation over `workers` scoped threads.
pub fn select_parallel(
    grid: &[Config],
    train: &Dataset,
    valid: &Dataset,
    workers: usize,
) -> Result<SelectionReport> {
    select_parallel_with_clock(grid, train, valid, workers, &WallClock::new())
}

/// Task-parallel evaluation against an injected clock.
pub fn select_parallel_with_clock(
    grid: &[Config],
    train: &Dataset,
    valid: &Dataset,
    workers: usize,
    clock: &dyn Clock,
) -> Result<SelectionReport> {
    let t0 = clock.now_secs();
    let workers = workers.max(1);
    let mut scores: Vec<Option<(Config, f64)>> = vec![None; grid.len()];
    // work-stealing over an atomic cursor: configs have very unequal
    // training costs, so static chunking would leave workers idle
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results: std::sync::Mutex<Vec<(usize, Config, f64)>> =
        std::sync::Mutex::new(Vec::with_capacity(grid.len()));
    let joined = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| loop {
                    // ordering: Relaxed — the counter only hands out distinct
                    // indices; grid data is read-only and results go via the lock
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= grid.len() {
                        break;
                    }
                    if let Ok(score) = grid[i].evaluate(train, valid, 1.0) {
                        // a poisoned lock means a sibling panicked; drop the
                        // result and let the completeness check below fail
                        if let Ok(mut guard) = results.lock() {
                            guard.push((i, grid[i].clone(), score));
                        }
                    }
                })
            })
            .collect();
        // join every handle, so a worker panic is an error, not a panic
        let mut ok = true;
        for h in handles {
            ok &= h.join().is_ok();
        }
        ok
    });
    if !joined {
        return Err(AimError::Execution("worker thread panicked".into()));
    }
    let collected = results
        .into_inner()
        .map_err(|_| AimError::Execution("result lock poisoned by worker panic".into()))?;
    for (i, c, s) in collected {
        scores[i] = Some((c, s));
    }
    let flat: Vec<(Config, f64)> = scores.into_iter().flatten().collect();
    if flat.len() != grid.len() {
        return Err(AimError::Execution(
            "a configuration failed to evaluate".into(),
        ));
    }
    let (best_config, best_score) = argbest(&flat)?;
    Ok(SelectionReport {
        method: format!("parallel(x{workers})"),
        best_config,
        best_score,
        configs_tested: grid.len(),
        wall_seconds: clock.now_secs() - t0,
        epochs_spent: grid.iter().map(Config::budget).sum(),
    })
}

/// Successive halving: evaluate everything at a small budget, keep the
/// top half, double the budget, repeat.
pub fn select_halving(
    grid: &[Config],
    train: &Dataset,
    valid: &Dataset,
) -> Result<SelectionReport> {
    select_halving_with_clock(grid, train, valid, &WallClock::new())
}

/// Successive halving against an injected clock.
pub fn select_halving_with_clock(
    grid: &[Config],
    train: &Dataset,
    valid: &Dataset,
    clock: &dyn Clock,
) -> Result<SelectionReport> {
    let t0 = clock.now_secs();
    let mut survivors: Vec<Config> = grid.to_vec();
    let mut scale = 0.25;
    let mut epochs_spent = 0usize;
    let mut last_scores: Vec<(Config, f64)> = Vec::new();
    while survivors.len() > 1 && scale <= 1.0 {
        let scores: Vec<(Config, f64)> = survivors
            .iter()
            .map(|c| {
                epochs_spent += (c.budget() as f64 * scale) as usize;
                Ok((c.clone(), c.evaluate(train, valid, scale)?))
            })
            .collect::<Result<_>>()?;
        let mut ranked = scores.clone();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        survivors = ranked
            .iter()
            .take((survivors.len() / 2).max(1))
            .map(|(c, _)| c.clone())
            .collect();
        last_scores = ranked;
        scale *= 2.0;
    }
    let (best_config, best_score) = argbest(&last_scores)?;
    Ok(SelectionReport {
        method: "successive-halving".into(),
        best_config,
        best_score,
        configs_tested: grid.len(),
        wall_seconds: clock.now_secs() - t0,
        epochs_spent,
    })
}

/// A classification problem for the selection experiments.
pub fn classification_problem(n: usize, seed: u64) -> Result<(Dataset, Dataset)> {
    use rand::prelude::*;
    use rand::rngs::StdRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            vec![
                rng.gen_range(-2.0..2.0),
                rng.gen_range(-2.0..2.0),
                rng.gen_range(-2.0..2.0),
            ]
        })
        .collect();
    let y: Vec<f64> = x
        .iter()
        .map(|r| {
            let s = r[0] * r[0] + 0.8 * r[1] - 0.5 * r[2];
            if s > 0.5 {
                1.0
            } else {
                0.0
            }
        })
        .collect();
    let ds = Dataset::new(x, y)?;
    let (train, valid) = ds.split(0.75, seed);
    Ok((train, valid))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree() {
        let (train, valid) = classification_problem(600, 1).unwrap();
        let grid = Config::grid();
        let serial = select_serial(&grid, &train, &valid).unwrap();
        let parallel = select_parallel(&grid, &train, &valid, 4).unwrap();
        assert_eq!(serial.best_config, parallel.best_config);
        assert_eq!(serial.best_score, parallel.best_score);
        assert_eq!(parallel.configs_tested, grid.len());
        assert!(serial.best_score > 0.85, "best {}", serial.best_score);
    }

    #[test]
    fn parallel_at_least_keeps_up() {
        // wall-clock speedups are machine-dependent; assert it is not
        // dramatically slower (lock contention bug guard), and measure
        // throughput for the harness.
        let (train, valid) = classification_problem(1500, 2).unwrap();
        let grid = Config::grid();
        let serial = select_serial(&grid, &train, &valid).unwrap();
        let parallel = select_parallel(&grid, &train, &valid, 4).unwrap();
        assert!(
            parallel.wall_seconds < serial.wall_seconds * 1.5,
            "parallel {} vs serial {}",
            parallel.wall_seconds,
            serial.wall_seconds
        );
    }

    #[test]
    fn halving_spends_fewer_epochs_for_similar_quality() {
        let (train, valid) = classification_problem(800, 3).unwrap();
        let grid = Config::grid();
        let full = select_serial(&grid, &train, &valid).unwrap();
        let halving = select_halving(&grid, &train, &valid).unwrap();
        assert!(
            halving.epochs_spent < full.epochs_spent,
            "halving {} vs full {}",
            halving.epochs_spent,
            full.epochs_spent
        );
        assert!(
            halving.best_score >= full.best_score - 0.05,
            "halving {} vs full {}",
            halving.best_score,
            full.best_score
        );
    }

    #[test]
    fn manual_clock_makes_reports_deterministic() {
        use aimdb_common::ManualClock;
        let (train, valid) = classification_problem(200, 5).unwrap();
        let grid = Config::grid();
        let clock = ManualClock::new();
        let a = select_serial_with_clock(&grid, &train, &valid, &clock).unwrap();
        let b = select_serial_with_clock(&grid, &train, &valid, &clock).unwrap();
        assert_eq!(a.wall_seconds, 0.0);
        assert_eq!(a.wall_seconds, b.wall_seconds);
        assert_eq!(a.best_score, b.best_score);
    }

    #[test]
    fn empty_grid_rejected() {
        let (train, valid) = classification_problem(100, 4).unwrap();
        assert!(select_serial(&[], &train, &valid).is_err());
    }
}
