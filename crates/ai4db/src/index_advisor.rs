//! Learning-based index advisor (E2).
//!
//! Following Sadri et al. (ICDE'20), index selection is modeled as an MDP:
//! the state is the set of built indexes, actions create or drop an index
//! (bounded by a budget), and the reward is the what-if cost reduction of
//! the workload. The what-if costing service is the engine's own planner
//! with hypothetical indexes — the same architecture real advisors use
//! against commercial optimizers.
//!
//! Baselines: no indexes, index-everything, most-frequent-column
//! heuristic, and classic greedy what-if selection.

use std::collections::{HashMap, HashSet};

use aimdb_common::Result;
use aimdb_engine::optimizer::{CardEstimator, HistogramEstimator, Planner};
use aimdb_engine::stats::TableStats;
use aimdb_engine::Database;
use aimdb_ml::qlearn::{QLearner, QParams};
use aimdb_sql::ast::{Select, Statement};
use aimdb_sql::parser::parse_one;

/// A query with its execution frequency in the workload.
#[derive(Debug, Clone)]
pub struct WorkloadQuery {
    pub select: Select,
    pub frequency: f64,
}

/// Parse a workload from SQL strings with frequencies.
pub fn workload_from_sql(queries: &[(&str, f64)]) -> Result<Vec<WorkloadQuery>> {
    queries
        .iter()
        .map(|(sql, f)| match parse_one(sql)? {
            Statement::Select(select) => Ok(WorkloadQuery {
                select,
                frequency: *f,
            }),
            _ => Err(aimdb_common::AimError::InvalidInput(
                "workload must be SELECT statements".into(),
            )),
        })
        .collect()
}

/// An index candidate.
pub type Candidate = (String, String); // (table, column)

/// What-if cost of a workload under a hypothetical index set.
pub fn what_if_cost(
    db: &Database,
    workload: &[WorkloadQuery],
    indexes: &HashSet<Candidate>,
) -> Result<f64> {
    let stats: HashMap<String, TableStats> = db.stats_snapshot();
    let est = HistogramEstimator;
    let mut planner = Planner::new(&db.catalog, &stats, &est as &dyn CardEstimator);
    planner.hypothetical_only = true;
    planner.hypothetical_indexes = indexes
        .iter()
        .map(|(t, c)| (t.to_ascii_lowercase(), c.to_ascii_lowercase()))
        .collect();
    let mut total = 0.0;
    for q in workload {
        let plan = planner.plan_select(&q.select)?;
        total += plan.est_cost * q.frequency;
    }
    Ok(total)
}

/// Enumerate candidates: every (table, column) referenced by a predicate
/// in the workload.
pub fn enumerate_candidates(db: &Database, workload: &[WorkloadQuery]) -> Vec<Candidate> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for q in workload {
        let tables: Vec<(String, String)> = {
            let mut v: Vec<(String, String)> = q
                .select
                .from
                .iter()
                .map(|t| (t.effective_name().to_string(), t.name.clone()))
                .collect();
            v.extend(
                q.select
                    .joins
                    .iter()
                    .map(|j| (j.table.effective_name().to_string(), j.table.name.clone())),
            );
            v
        };
        let mut preds = Vec::new();
        if let Some(w) = &q.select.where_clause {
            preds.extend(w.conjuncts().into_iter().cloned());
        }
        for j in &q.select.joins {
            preds.extend(j.on.conjuncts().into_iter().cloned());
        }
        for p in preds {
            for (qual, col) in p.referenced_columns() {
                // resolve alias → table
                let table = match qual {
                    Some(a) => tables
                        .iter()
                        .find(|(alias, _)| alias.eq_ignore_ascii_case(a))
                        .map(|(_, t)| t.clone()),
                    None => tables
                        .iter()
                        .find(|(_, t)| {
                            db.catalog
                                .table(t)
                                .map(|tb| tb.schema.index_of(col).is_ok())
                                .unwrap_or(false)
                        })
                        .map(|(_, t)| t.clone()),
                };
                if let Some(t) = table {
                    let cand = (t.to_ascii_lowercase(), col.to_ascii_lowercase());
                    if seen.insert(cand.clone()) {
                        out.push(cand);
                    }
                }
            }
        }
    }
    out.sort();
    out
}

/// An advisor's recommendation and its what-if workload cost.
#[derive(Debug, Clone)]
pub struct Advice {
    pub method: String,
    pub indexes: Vec<Candidate>,
    pub workload_cost: f64,
    /// Number of what-if plan evaluations spent.
    pub evaluations: usize,
}

/// Baseline: no indexes.
pub fn advise_none(db: &Database, workload: &[WorkloadQuery]) -> Result<Advice> {
    let cost = what_if_cost(db, workload, &HashSet::new())?;
    Ok(Advice {
        method: "none".into(),
        indexes: vec![],
        workload_cost: cost,
        evaluations: 1,
    })
}

/// Baseline: index every candidate (ignores budget/storage).
pub fn advise_all(db: &Database, workload: &[WorkloadQuery]) -> Result<Advice> {
    let cands: HashSet<Candidate> = enumerate_candidates(db, workload).into_iter().collect();
    let cost = what_if_cost(db, workload, &cands)?;
    Ok(Advice {
        method: "all".into(),
        indexes: cands.into_iter().collect(),
        workload_cost: cost,
        evaluations: 1,
    })
}

/// Baseline: pick the `budget` columns referenced most often (weighted by
/// query frequency), ignoring the optimizer entirely.
pub fn advise_frequency(
    db: &Database,
    workload: &[WorkloadQuery],
    budget: usize,
) -> Result<Advice> {
    let mut counts: HashMap<Candidate, f64> = HashMap::new();
    for q in workload {
        for cand in enumerate_candidates(db, std::slice::from_ref(q)) {
            *counts.entry(cand).or_default() += q.frequency;
        }
    }
    let mut ranked: Vec<(Candidate, f64)> = counts.into_iter().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let chosen: HashSet<Candidate> = ranked.into_iter().take(budget).map(|(c, _)| c).collect();
    let cost = what_if_cost(db, workload, &chosen)?;
    Ok(Advice {
        method: "frequency".into(),
        indexes: chosen.into_iter().collect(),
        workload_cost: cost,
        evaluations: 1,
    })
}

/// Classic greedy what-if advisor: repeatedly add the candidate with the
/// largest cost reduction until the budget is hit or no candidate helps.
pub fn advise_greedy(db: &Database, workload: &[WorkloadQuery], budget: usize) -> Result<Advice> {
    let cands = enumerate_candidates(db, workload);
    let mut chosen: HashSet<Candidate> = HashSet::new();
    let mut current = what_if_cost(db, workload, &chosen)?;
    let mut evals = 1;
    while chosen.len() < budget {
        let mut best: Option<(Candidate, f64)> = None;
        for c in &cands {
            if chosen.contains(c) {
                continue;
            }
            let mut trial = chosen.clone();
            trial.insert(c.clone());
            let cost = what_if_cost(db, workload, &trial)?;
            evals += 1;
            if cost < current && best.as_ref().is_none_or(|(_, b)| cost < *b) {
                best = Some((c.clone(), cost));
            }
        }
        match best {
            Some((c, cost)) => {
                chosen.insert(c);
                current = cost;
            }
            None => break,
        }
    }
    Ok(Advice {
        method: "greedy".into(),
        indexes: chosen.into_iter().collect(),
        workload_cost: current,
        evaluations: evals,
    })
}

/// RL advisor (Sadri et al.): Q-learning over index-set states with
/// add/stop actions; reward is the normalized cost reduction at episode
/// end minus a per-index penalty.
pub fn advise_rl(
    db: &Database,
    workload: &[WorkloadQuery],
    budget: usize,
    episodes: usize,
    seed: u64,
) -> Result<Advice> {
    let cands = enumerate_candidates(db, workload);
    if cands.is_empty() {
        return advise_none(db, workload);
    }
    let n = cands.len().min(16);
    let cands = &cands[..n];
    let base_cost = what_if_cost(db, workload, &HashSet::new())?;
    let mut evals = 1;
    // actions: 0..n = add candidate i; n = stop
    let mut q = QLearner::new(
        n + 1,
        QParams {
            alpha: 0.4,
            gamma: 1.0,
            epsilon: 1.0,
            epsilon_min: 0.02,
            epsilon_decay: 0.97,
        },
        seed,
    );
    let mut best: (HashSet<Candidate>, f64) = (HashSet::new(), base_cost);

    for _ in 0..episodes {
        let mut state_mask = 0usize;
        let mut chosen: HashSet<Candidate> = HashSet::new();
        let mut prev_cost = base_cost;
        loop {
            let legal: Vec<usize> = (0..n)
                .filter(|i| state_mask >> i & 1 == 0 && chosen.len() < budget)
                .chain(std::iter::once(n))
                .collect();
            let a = q.select(state_mask, &legal);
            if a == n || chosen.len() >= budget {
                q.update(state_mask, n, 0.0, state_mask, &[], true);
                break;
            }
            chosen.insert(cands[a].clone());
            let next_mask = state_mask | (1 << a);
            let cost = what_if_cost(db, workload, &chosen)?;
            evals += 1;
            // stepwise reward: normalized marginal gain minus small penalty
            let reward = (prev_cost - cost) / base_cost - 0.01;
            let done = chosen.len() >= budget;
            q.update(state_mask, a, reward, next_mask, &[], done);
            state_mask = next_mask;
            prev_cost = cost;
            if cost < best.1 {
                best = (chosen.clone(), cost);
            }
            if done {
                break;
            }
        }
        q.end_episode();
    }
    Ok(Advice {
        method: "rl(mdp)".into(),
        indexes: best.0.into_iter().collect(),
        workload_cost: best.1,
        evaluations: evals,
    })
}

/// Apply an advice: physically create the recommended indexes.
pub fn apply_advice(db: &Database, advice: &Advice) -> Result<usize> {
    let mut n = 0;
    for (t, c) in &advice.indexes {
        let name = format!("advised_{t}_{c}");
        if db.catalog.create_index(&name, t, c).is_ok() {
            n += 1;
        }
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A database where indexing the *right* columns matters: skewed
    /// workload touching few of many columns.
    fn setup() -> (Database, Vec<WorkloadQuery>) {
        let db = Database::new();
        db.execute("CREATE TABLE items (id INT, cat INT, price FLOAT, stock INT, vendor INT)")
            .unwrap();
        let tuples: Vec<String> = (0..4000)
            .map(|i| {
                format!(
                    "({i}, {}, {}, {}, {})",
                    i % 500,
                    (i % 97) as f64,
                    i % 13,
                    i % 211
                )
            })
            .collect();
        db.execute(&format!("INSERT INTO items VALUES {}", tuples.join(",")))
            .unwrap();
        db.execute("ANALYZE").unwrap();
        let workload = workload_from_sql(&[
            ("SELECT * FROM items WHERE id = 17", 100.0),
            ("SELECT * FROM items WHERE cat = 3", 50.0),
            ("SELECT * FROM items WHERE stock = 5", 1.0),
        ])
        .unwrap();
        (db, workload)
    }

    #[test]
    fn candidates_enumerated_from_predicates() {
        let (db, wl) = setup();
        let cands = enumerate_candidates(&db, &wl);
        assert!(cands.contains(&("items".into(), "id".into())));
        assert!(cands.contains(&("items".into(), "cat".into())));
        assert!(cands.contains(&("items".into(), "stock".into())));
        assert_eq!(cands.len(), 3);
    }

    #[test]
    fn what_if_reflects_indexes() {
        let (db, wl) = setup();
        let no_idx = what_if_cost(&db, &wl, &HashSet::new()).unwrap();
        let with: HashSet<Candidate> = [("items".to_string(), "id".to_string())].into();
        let with_idx = what_if_cost(&db, &wl, &with).unwrap();
        assert!(
            with_idx < no_idx * 0.5,
            "index should cut cost: {with_idx} vs {no_idx}"
        );
    }

    #[test]
    fn greedy_picks_high_value_indexes_first() {
        let (db, wl) = setup();
        let advice = advise_greedy(&db, &wl, 2).unwrap();
        assert_eq!(advice.indexes.len(), 2);
        assert!(advice.indexes.contains(&("items".into(), "id".into())));
        assert!(advice.indexes.contains(&("items".into(), "cat".into())));
        let none = advise_none(&db, &wl).unwrap();
        assert!(advice.workload_cost < none.workload_cost);
    }

    #[test]
    fn rl_matches_greedy_quality_under_budget() {
        let (db, wl) = setup();
        let greedy = advise_greedy(&db, &wl, 2).unwrap();
        let rl = advise_rl(&db, &wl, 2, 60, 3).unwrap();
        assert!(
            rl.workload_cost <= greedy.workload_cost * 1.05,
            "rl {} vs greedy {}",
            rl.workload_cost,
            greedy.workload_cost
        );
        assert!(rl.indexes.len() <= 2);
    }

    #[test]
    fn rl_beats_frequency_heuristic_when_frequency_misleads() {
        let db = Database::new();
        db.execute("CREATE TABLE t (a INT, b INT)").unwrap();
        let tuples: Vec<String> = (0..4000).map(|i| format!("({}, {i})", i % 2)).collect();
        db.execute(&format!("INSERT INTO t VALUES {}", tuples.join(",")))
            .unwrap();
        db.execute("ANALYZE").unwrap();
        // column a is referenced often but has 2 distinct values (useless
        // index); b is rare but highly selective.
        let wl = workload_from_sql(&[
            ("SELECT * FROM t WHERE a = 1", 10.0),
            ("SELECT * FROM t WHERE b = 7", 8.0),
        ])
        .unwrap();
        let freq = advise_frequency(&db, &wl, 1).unwrap();
        let rl = advise_rl(&db, &wl, 1, 40, 1).unwrap();
        assert_eq!(freq.indexes, vec![("t".into(), "a".into())]);
        assert_eq!(rl.indexes, vec![("t".into(), "b".into())]);
        assert!(rl.workload_cost < freq.workload_cost);
    }

    #[test]
    fn apply_advice_creates_real_indexes() {
        let (db, wl) = setup();
        let advice = advise_greedy(&db, &wl, 1).unwrap();
        let n = apply_advice(&db, &advice).unwrap();
        assert_eq!(n, 1);
        let t = db.catalog.table("items").unwrap();
        assert!(t.index_on("id").is_some());
    }
}
