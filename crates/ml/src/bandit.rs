//! Multi-armed bandits: ε-greedy, UCB1 and Thompson sampling.
//!
//! The database-activity monitor (E12) frames "which activities should we
//! record under a limited budget?" as a bandit problem, exactly as the
//! tutorial describes (Grushka-Cohen et al.). The bandits here are also
//! reused wherever a learned component needs cheap explore/exploit.

use rand::prelude::*;
use rand::rngs::StdRng;

/// Strategy for arm selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BanditPolicy {
    /// Explore uniformly with probability ε, otherwise exploit the best
    /// empirical mean.
    EpsilonGreedy { epsilon: f64 },
    /// UCB1: mean + c·sqrt(ln t / n).
    Ucb1 { c: f64 },
    /// Thompson sampling with Beta posteriors (rewards must be in [0,1]).
    Thompson,
}

/// A multi-armed bandit over `n` arms.
#[derive(Debug, Clone)]
pub struct Bandit {
    policy: BanditPolicy,
    counts: Vec<u64>,
    sums: Vec<f64>,
    /// Beta posterior parameters (successes+1, failures+1) for Thompson.
    alpha: Vec<f64>,
    beta: Vec<f64>,
    t: u64,
    rng: StdRng,
}

impl Bandit {
    pub fn new(n_arms: usize, policy: BanditPolicy, seed: u64) -> Self {
        Bandit {
            policy,
            counts: vec![0; n_arms],
            sums: vec![0.0; n_arms],
            alpha: vec![1.0; n_arms],
            beta: vec![1.0; n_arms],
            t: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    pub fn n_arms(&self) -> usize {
        self.counts.len()
    }

    /// Pick an arm according to the policy.
    pub fn select(&mut self) -> usize {
        self.t += 1;
        match self.policy {
            BanditPolicy::EpsilonGreedy { epsilon } => {
                if self.rng.gen::<f64>() < epsilon {
                    self.rng.gen_range(0..self.counts.len())
                } else {
                    self.best_mean()
                }
            }
            BanditPolicy::Ucb1 { c } => {
                // play each arm once first
                if let Some(unplayed) = self.counts.iter().position(|&n| n == 0) {
                    return unplayed;
                }
                let ln_t = (self.t as f64).ln();
                argmax(self.counts.len(), |a| self.ucb(a, c, ln_t))
            }
            BanditPolicy::Thompson => {
                let samples: Vec<f64> = (0..self.counts.len())
                    .map(|i| sample_beta(self.alpha[i], self.beta[i], &mut self.rng))
                    .collect();
                argmax(samples.len(), |i| samples[i])
            }
        }
    }

    fn ucb(&self, arm: usize, c: f64, ln_t: f64) -> f64 {
        let n = self.counts[arm] as f64;
        self.sums[arm] / n + c * (ln_t / n).sqrt()
    }

    fn best_mean(&self) -> usize {
        argmax(self.counts.len(), |a| {
            if self.counts[a] == 0 {
                f64::INFINITY // force initial exploration
            } else {
                self.sums[a] / self.counts[a] as f64
            }
        })
    }

    /// Report the observed reward for an arm.
    pub fn update(&mut self, arm: usize, reward: f64) {
        self.counts[arm] += 1;
        self.sums[arm] += reward;
        let r = reward.clamp(0.0, 1.0);
        self.alpha[arm] += r;
        self.beta[arm] += 1.0 - r;
    }

    /// Empirical mean reward of an arm (0 if unplayed).
    pub fn mean(&self, arm: usize) -> f64 {
        if self.counts[arm] == 0 {
            0.0
        } else {
            self.sums[arm] / self.counts[arm] as f64
        }
    }

    pub fn count(&self, arm: usize) -> u64 {
        self.counts[arm]
    }
}

/// Sample Beta(a, b) via two Gamma draws (Marsaglia–Tsang).
/// Index in `0..n` maximizing `score`; ties and empty ranges resolve to
/// the lowest index.
fn argmax(n: usize, score: impl Fn(usize) -> f64) -> usize {
    let mut best = 0;
    for i in 1..n {
        if score(i) > score(best) {
            best = i;
        }
    }
    best
}

fn sample_beta(a: f64, b: f64, rng: &mut StdRng) -> f64 {
    let x = sample_gamma(a, rng);
    let y = sample_gamma(b, rng);
    if x + y <= 0.0 {
        0.5
    } else {
        x / (x + y)
    }
}

fn sample_gamma(shape: f64, rng: &mut StdRng) -> f64 {
    if shape < 1.0 {
        // Johnk boost: Gamma(a) = Gamma(a+1) * U^(1/a)
        let u: f64 = rng.gen::<f64>().max(1e-12);
        return sample_gamma(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = {
            // Box–Muller normal
            let u1: f64 = rng.gen::<f64>().max(1e-12);
            let u2: f64 = rng.gen();
            (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        };
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen::<f64>().max(1e-12);
        if u.ln() < -(0.5 * x * x) + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Run a bandit against fixed Bernoulli arms for `steps`, returning the
/// cumulative reward — a convenience for experiments.
pub fn simulate_bernoulli(
    policy: BanditPolicy,
    probs: &[f64],
    steps: usize,
    seed: u64,
) -> (f64, Vec<u64>) {
    let mut b = Bandit::new(probs.len(), policy, seed);
    let mut env = StdRng::seed_from_u64(seed.wrapping_add(1));
    let mut total = 0.0;
    for _ in 0..steps {
        let arm = b.select();
        let r = if env.gen::<f64>() < probs[arm] {
            1.0
        } else {
            0.0
        };
        total += r;
        b.update(arm, r);
    }
    let counts = (0..probs.len()).map(|i| b.count(i)).collect();
    (total, counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROBS: &[f64] = &[0.1, 0.2, 0.8, 0.3];

    #[test]
    fn ucb_finds_best_arm() {
        let (reward, counts) = simulate_bernoulli(BanditPolicy::Ucb1 { c: 1.4 }, PROBS, 3000, 1);
        let best: u64 = counts[2];
        assert!(best > 2000, "best arm pulled {best} times");
        assert!(reward > 0.6 * 3000.0);
    }

    #[test]
    fn thompson_finds_best_arm() {
        let (_, counts) = simulate_bernoulli(BanditPolicy::Thompson, PROBS, 3000, 2);
        assert!(counts[2] > 2000, "counts {counts:?}");
    }

    #[test]
    fn epsilon_greedy_explores() {
        let (_, counts) =
            simulate_bernoulli(BanditPolicy::EpsilonGreedy { epsilon: 0.1 }, PROBS, 3000, 3);
        // exploits mostly, but every arm gets some pulls
        assert!(counts[2] > 1800);
        assert!(counts.iter().all(|&c| c > 20));
    }

    #[test]
    fn policies_beat_uniform_random() {
        let uniform_expect = 3000.0 * PROBS.iter().sum::<f64>() / PROBS.len() as f64;
        for policy in [
            BanditPolicy::Ucb1 { c: 1.4 },
            BanditPolicy::Thompson,
            BanditPolicy::EpsilonGreedy { epsilon: 0.1 },
        ] {
            let (reward, _) = simulate_bernoulli(policy, PROBS, 3000, 4);
            assert!(
                reward > uniform_expect * 1.4,
                "{policy:?} reward {reward} vs uniform {uniform_expect}"
            );
        }
    }

    #[test]
    fn beta_sampler_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            let s = sample_beta(2.0, 5.0, &mut rng);
            assert!((0.0..=1.0).contains(&s));
        }
        // mean of Beta(8, 2) ≈ 0.8
        let mean: f64 = (0..5000)
            .map(|_| sample_beta(8.0, 2.0, &mut rng))
            .sum::<f64>()
            / 5000.0;
        assert!((mean - 0.8).abs() < 0.05, "mean {mean}");
    }
}
