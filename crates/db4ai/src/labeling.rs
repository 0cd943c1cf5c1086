//! Data labeling via simulated crowdsourcing.
//!
//! "With commercial public crowdsourcing platforms … crowdsourcing is an
//! effective way to address such tasks by utilizing hundreds or thousands
//! of workers to label the data."
//!
//! The platform simulation prices each vote, assigns items to a
//! heterogeneous worker pool, and aggregates with majority vote (baseline)
//! or Dawid–Skene truth inference (learned). The experiment traces the
//! cost/accuracy frontier and shows DS reaching target accuracy with
//! fewer votes — i.e., cheaper labels for downstream training.

use rand::prelude::*;
use rand::rngs::StdRng;

use aimdb_common::{AimError, Result};
use aimdb_ml::em::{majority_vote, simulate_crowd, DawidSkene, Vote};

/// A labeling campaign configuration.
#[derive(Debug, Clone)]
pub struct Campaign {
    pub n_items: usize,
    pub n_classes: usize,
    /// Per-worker accuracies (heterogeneous pool).
    pub worker_acc: Vec<f64>,
    /// Cost charged per vote (platform pricing).
    pub cost_per_vote: f64,
}

impl Campaign {
    /// A typical pool: a couple of experts, mostly average, some spammers.
    pub fn typical(n_items: usize) -> Campaign {
        Campaign {
            n_items,
            n_classes: 3,
            worker_acc: vec![0.97, 0.95, 0.7, 0.7, 0.65, 0.65, 0.6, 0.6, 0.34, 0.34],
            cost_per_vote: 0.02,
        }
    }
}

/// Result of one aggregation run.
#[derive(Debug, Clone)]
pub struct LabelingOutcome {
    pub method: String,
    pub votes_per_item: usize,
    pub total_cost: f64,
    pub accuracy: f64,
}

/// Run the campaign at a redundancy level with both aggregators.
pub fn run_campaign(
    c: &Campaign,
    votes_per_item: usize,
    seed: u64,
) -> Result<(LabelingOutcome, LabelingOutcome)> {
    if votes_per_item == 0 {
        return Err(AimError::InvalidInput(
            "need at least one vote per item".into(),
        ));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let truth: Vec<usize> = (0..c.n_items)
        .map(|_| rng.gen_range(0..c.n_classes))
        .collect();
    let votes: Vec<Vote> = simulate_crowd(&truth, &c.worker_acc, c.n_classes, votes_per_item, seed);
    let cost = votes.len() as f64 * c.cost_per_vote;

    let acc = |labels: &[usize]| {
        labels.iter().zip(&truth).filter(|(a, b)| a == b).count() as f64 / truth.len() as f64
    };

    let mv = majority_vote(&votes, c.n_items, c.n_classes);
    let ds = DawidSkene::fit(&votes, c.n_items, c.worker_acc.len(), c.n_classes, 60, 1e-6)?;
    Ok((
        LabelingOutcome {
            method: "majority-vote".into(),
            votes_per_item,
            total_cost: cost,
            accuracy: acc(&mv),
        },
        LabelingOutcome {
            method: "dawid-skene".into(),
            votes_per_item,
            total_cost: cost,
            accuracy: acc(&ds.labels()),
        },
    ))
}

/// Sweep vote redundancy, producing the cost/accuracy frontier for both
/// aggregators.
pub fn cost_accuracy_frontier(
    c: &Campaign,
    redundancies: &[usize],
    seed: u64,
) -> Result<Vec<(LabelingOutcome, LabelingOutcome)>> {
    redundancies
        .iter()
        .map(|&r| run_campaign(c, r, seed))
        .collect()
}

/// Votes needed by each method to reach `target` accuracy (None if never
/// reached within the sweep).
pub fn votes_to_reach(
    frontier: &[(LabelingOutcome, LabelingOutcome)],
    target: f64,
) -> (Option<usize>, Option<usize>) {
    let mv = frontier
        .iter()
        .find(|(m, _)| m.accuracy >= target)
        .map(|(m, _)| m.votes_per_item);
    let ds = frontier
        .iter()
        .find(|(_, d)| d.accuracy >= target)
        .map(|(_, d)| d.votes_per_item);
    (mv, ds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ds_dominates_mv_on_heterogeneous_pool() {
        let c = Campaign::typical(400);
        let (mv, ds) = run_campaign(&c, 7, 11).unwrap();
        assert!(
            ds.accuracy >= mv.accuracy,
            "DS {} vs MV {}",
            ds.accuracy,
            mv.accuracy
        );
        assert!(ds.accuracy > 0.9);
        assert_eq!(mv.total_cost, ds.total_cost);
    }

    #[test]
    fn frontier_improves_with_redundancy() {
        let c = Campaign::typical(300);
        let frontier = cost_accuracy_frontier(&c, &[1, 3, 5, 7], 3).unwrap();
        // cost strictly grows
        assert!(frontier
            .windows(2)
            .all(|w| w[1].0.total_cost > w[0].0.total_cost));
        // accuracy at 7 votes beats accuracy at 1 vote for both methods
        assert!(frontier[3].0.accuracy > frontier[0].0.accuracy);
        assert!(frontier[3].1.accuracy > frontier[0].1.accuracy);
    }

    #[test]
    fn ds_reaches_target_cheaper_or_equal() {
        let c = Campaign::typical(400);
        let frontier = cost_accuracy_frontier(&c, &[1, 3, 5, 7, 9], 5).unwrap();
        let (mv_votes, ds_votes) = votes_to_reach(&frontier, 0.92);
        let ds_votes = ds_votes.expect("DS reaches 92%");
        // MV may never reach the target: DS is then strictly cheaper
        if let Some(mv) = mv_votes {
            assert!(ds_votes <= mv, "DS {ds_votes} votes vs MV {mv}");
        }
    }

    #[test]
    fn zero_votes_rejected() {
        let c = Campaign::typical(10);
        assert!(run_campaign(&c, 0, 1).is_err());
    }
}
