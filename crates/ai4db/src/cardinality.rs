//! Learned cardinality estimation (E5).
//!
//! The tutorial: "traditional techniques cannot effectively capture the
//! correlations between different columns/tables and thus cannot provide
//! high-quality estimation. Recently, deep learning based techniques …
//! are proposed to estimate the cost and cardinality."
//!
//! The experiment plants a two-column table whose correlation is
//! controlled (0 → independent, 0.9 → strongly dependent), issues
//! conjunctive range queries, and compares, on the q-error metric
//! standard in this literature:
//! - the engine's histogram estimator (per-column selectivities multiplied
//!   under independence — exact at corr=0, badly wrong at corr→1), vs.
//! - an MLP trained on executed queries (features: normalized range
//!   bounds; target: log cardinality).
//!
//! [`LearnedEstimator`] additionally implements the engine's
//! [`CardEstimator`] seam so the learned model can drive the real
//! optimizer (used by E7/A2).

use std::collections::HashMap;

use rand::prelude::*;
use rand::rngs::StdRng;

use aimdb_common::synth::correlated_pairs;
use aimdb_common::{AimError, Result};
use aimdb_engine::optimizer::{CardEstimator, HistogramEstimator, SimplePred};
use aimdb_engine::stats::TableStats;
use aimdb_engine::Database;
use aimdb_ml::data::Dataset;
use aimdb_ml::metrics::q_error;
use aimdb_ml::mlp::{Head, Mlp, MlpParams};

/// A conjunctive two-column range query: `a IN [a_lo, a_hi] AND b IN
/// [b_lo, b_hi]` (inclusive).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeQuery {
    pub a_lo: i64,
    pub a_hi: i64,
    pub b_lo: i64,
    pub b_hi: i64,
}

impl RangeQuery {
    pub fn to_sql(&self) -> String {
        format!(
            "SELECT COUNT(*) FROM pairs WHERE a BETWEEN {} AND {} AND b BETWEEN {} AND {}",
            self.a_lo, self.a_hi, self.b_lo, self.b_hi
        )
    }
}

/// The experiment's data: raw pairs plus a populated, ANALYZEd database.
pub struct CorrData {
    pub pairs: Vec<(i64, i64)>,
    pub domain: i64,
    pub corr: f64,
}

impl CorrData {
    pub fn generate(n: usize, domain: i64, corr: f64, seed: u64) -> Self {
        CorrData {
            pairs: correlated_pairs(n, domain, corr, seed),
            domain,
            corr,
        }
    }

    /// Load into a database table `pairs(a, b)` and ANALYZE it.
    pub fn load_into_db(&self) -> Result<Database> {
        let db = Database::new();
        db.execute("CREATE TABLE pairs (a INT, b INT)")?;
        for chunk in self.pairs.chunks(1000) {
            let tuples: Vec<String> = chunk.iter().map(|(a, b)| format!("({a}, {b})")).collect();
            db.execute(&format!("INSERT INTO pairs VALUES {}", tuples.join(",")))?;
        }
        db.execute("ANALYZE pairs")?;
        Ok(db)
    }

    /// Exact cardinality by counting.
    pub fn true_card(&self, q: &RangeQuery) -> f64 {
        self.pairs
            .iter()
            .filter(|(a, b)| *a >= q.a_lo && *a <= q.a_hi && *b >= q.b_lo && *b <= q.b_hi)
            .count() as f64
    }

    /// Random query workload. Half the queries are "correlated probes"
    /// (same range on both columns — where correlation bites hardest),
    /// half are independent ranges.
    pub fn gen_queries(&self, m: usize, seed: u64) -> Vec<RangeQuery> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..m)
            .map(|i| {
                let w_a = rng.gen_range(1..=self.domain / 2);
                let a_lo = rng.gen_range(0..self.domain - w_a);
                if i % 2 == 0 {
                    RangeQuery {
                        a_lo,
                        a_hi: a_lo + w_a,
                        b_lo: a_lo,
                        b_hi: a_lo + w_a,
                    }
                } else {
                    let w_b = rng.gen_range(1..=self.domain / 2);
                    let b_lo = rng.gen_range(0..self.domain - w_b);
                    RangeQuery {
                        a_lo,
                        a_hi: a_lo + w_a,
                        b_lo,
                        b_hi: b_lo + w_b,
                    }
                }
            })
            .collect()
    }
}

/// Baseline estimate: histogram selectivities multiplied (independence).
pub fn histogram_estimate(stats: &TableStats, q: &RangeQuery) -> f64 {
    let sel_a = stats.range_selectivity("a", Some(q.a_lo as f64), Some(q.a_hi as f64));
    let sel_b = stats.range_selectivity("b", Some(q.b_lo as f64), Some(q.b_hi as f64));
    (sel_a * sel_b * stats.row_count as f64).max(0.0)
}

/// The learned estimator: an MLP over normalized query bounds trained on
/// executed queries (supervised by their true cardinalities).
pub struct LearnedCard {
    mlp: Mlp,
    rows: f64,
    domain: f64,
}

impl LearnedCard {
    fn featurize(&self, q: &RangeQuery) -> Vec<f64> {
        Self::features(q, self.domain)
    }

    fn features(q: &RangeQuery, domain: f64) -> Vec<f64> {
        let d = domain;
        let overlap_lo = q.a_lo.max(q.b_lo) as f64;
        let overlap_hi = q.a_hi.min(q.b_hi) as f64;
        vec![
            q.a_lo as f64 / d,
            q.a_hi as f64 / d,
            q.b_lo as f64 / d,
            q.b_hi as f64 / d,
            (q.a_hi - q.a_lo) as f64 / d,
            (q.b_hi - q.b_lo) as f64 / d,
            // overlap width — the correlation-sensitive feature
            ((overlap_hi - overlap_lo).max(-1.0) + 1.0) / d,
        ]
    }

    /// Train on a workload of executed queries.
    pub fn train(data: &CorrData, train_queries: &[RangeQuery], seed: u64) -> Result<Self> {
        if train_queries.is_empty() {
            return Err(AimError::InvalidInput("no training queries".into()));
        }
        let rows = data.pairs.len() as f64;
        let x: Vec<Vec<f64>> = train_queries
            .iter()
            .map(|q| Self::features(q, data.domain as f64))
            .collect();
        let y: Vec<f64> = train_queries
            .iter()
            .map(|q| (data.true_card(q) + 1.0).ln())
            .collect();
        let ds = Dataset::new(x, y)?;
        let mlp = Mlp::fit(
            &ds,
            &MlpParams {
                hidden: vec![64, 32],
                epochs: 300,
                lr: 0.01,
                batch: 32,
                seed,
                head: Head::Regression,
            },
        )?;
        Ok(LearnedCard {
            mlp,
            rows,
            domain: data.domain as f64,
        })
    }

    pub fn estimate(&self, q: &RangeQuery) -> f64 {
        self.mlp
            .predict_one(&self.featurize(q))
            .exp()
            .clamp(0.0, self.rows)
    }
}

/// Q-error summary of an estimator over a workload.
#[derive(Debug, Clone)]
pub struct QErrorReport {
    pub method: String,
    pub median: f64,
    pub p95: f64,
    pub max: f64,
}

pub fn evaluate<F: Fn(&RangeQuery) -> f64>(
    method: &str,
    data: &CorrData,
    queries: &[RangeQuery],
    estimate: F,
) -> QErrorReport {
    let mut qes: Vec<f64> = queries
        .iter()
        .map(|q| q_error(estimate(q), data.true_card(q)))
        .collect();
    qes.sort_by(|a, b| a.total_cmp(b));
    QErrorReport {
        method: method.into(),
        median: aimdb_ml::metrics::median(&qes),
        p95: aimdb_ml::metrics::percentile(&qes, 95.0),
        max: qes.last().copied().unwrap_or(1.0),
    }
}

/// [`CardEstimator`] adapter: routes range predicates on `pairs.a` /
/// `pairs.b` through the learned model, everything else to histograms —
/// this is how the learned model drives the engine's real optimizer.
pub struct LearnedEstimator {
    pub model: LearnedCard,
    pub table: String,
    fallback: HistogramEstimator,
}

impl LearnedEstimator {
    pub fn new(model: LearnedCard, table: &str) -> Self {
        LearnedEstimator {
            model,
            table: table.to_ascii_lowercase(),
            fallback: HistogramEstimator,
        }
    }
}

impl CardEstimator for LearnedEstimator {
    fn scan_selectivity(
        &self,
        table: &str,
        preds: &[SimplePred],
        stats: Option<&TableStats>,
    ) -> f64 {
        if table.eq_ignore_ascii_case(&self.table) && !preds.is_empty() {
            // assemble bounds for columns a and b
            let d = self.model.domain as i64;
            let (mut a, mut b) = ((0i64, d), (0i64, d));
            let mut all_known = true;
            for p in preds {
                match p {
                    SimplePred::Range { column, lo, hi } => {
                        let r = (
                            lo.map(|f| f as i64).unwrap_or(0),
                            hi.map(|f| f as i64).unwrap_or(d),
                        );
                        match column.as_str() {
                            "a" => a = r,
                            "b" => b = r,
                            _ => all_known = false,
                        }
                    }
                    SimplePred::Eq { column, value } => {
                        if let Ok(v) = value.as_i64() {
                            match column.as_str() {
                                "a" => a = (v, v),
                                "b" => b = (v, v),
                                _ => all_known = false,
                            }
                        } else {
                            all_known = false;
                        }
                    }
                    SimplePred::Other => all_known = false,
                }
            }
            if all_known {
                let q = RangeQuery {
                    a_lo: a.0,
                    a_hi: a.1,
                    b_lo: b.0,
                    b_hi: b.1,
                };
                let est = self.model.estimate(&q);
                return (est / self.model.rows).clamp(1e-9, 1.0);
            }
        }
        self.fallback.scan_selectivity(table, preds, stats)
    }

    fn join_selectivity(
        &self,
        left: (&str, &str),
        right: (&str, &str),
        stats: &HashMap<String, TableStats>,
    ) -> f64 {
        self.fallback.join_selectivity(left, right, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(corr: f64) -> (QErrorReport, QErrorReport) {
        let data = CorrData::generate(20_000, 100, corr, 11);
        let db = data.load_into_db().unwrap();
        let stats = db.stats_snapshot();
        let st = stats.get("pairs").unwrap().clone();
        let train = data.gen_queries(600, 21);
        let test = data.gen_queries(150, 22);
        let model = LearnedCard::train(&data, &train, 5).unwrap();
        let hist = evaluate("histogram", &data, &test, |q| histogram_estimate(&st, q));
        let learned = evaluate("learned", &data, &test, |q| model.estimate(q));
        (hist, learned)
    }

    #[test]
    fn histogram_is_fine_when_independent() {
        let (hist, _) = run(0.0);
        assert!(hist.median < 1.6, "median q-error {}", hist.median);
    }

    #[test]
    fn learned_beats_histogram_under_correlation() {
        let (hist, learned) = run(0.9);
        // independence assumption collapses under correlation
        assert!(
            hist.p95 > learned.p95 * 2.0,
            "hist p95 {} vs learned p95 {}",
            hist.p95,
            learned.p95
        );
        assert!(
            hist.median > learned.median,
            "hist med {} vs learned med {}",
            hist.median,
            learned.median
        );
        assert!(learned.median < 2.5, "learned median {}", learned.median);
    }

    #[test]
    fn true_card_matches_sql_count() {
        let data = CorrData::generate(3_000, 50, 0.5, 3);
        let db = data.load_into_db().unwrap();
        for q in data.gen_queries(5, 7) {
            let sql_count = db
                .execute(&q.to_sql())
                .unwrap()
                .scalar()
                .unwrap()
                .as_i64()
                .unwrap();
            assert_eq!(sql_count as f64, data.true_card(&q));
        }
    }

    #[test]
    fn learned_estimator_plugs_into_optimizer() {
        let data = CorrData::generate(8_000, 100, 0.9, 13);
        let db = data.load_into_db().unwrap();
        let train = data.gen_queries(400, 31);
        let model = LearnedCard::train(&data, &train, 5).unwrap();
        db.set_estimator(std::sync::Arc::new(LearnedEstimator::new(model, "pairs")));
        // plan a correlated query: estimated rows should be near truth
        let q = RangeQuery {
            a_lo: 10,
            a_hi: 30,
            b_lo: 10,
            b_hi: 30,
        };
        let truth = data.true_card(&q);
        let sel = aimdb_sql::parser::parse_one(&format!(
            "SELECT * FROM pairs WHERE a BETWEEN {} AND {} AND b BETWEEN {} AND {}",
            q.a_lo, q.a_hi, q.b_lo, q.b_hi
        ))
        .unwrap();
        let aimdb_sql::Statement::Select(sel) = sel else {
            panic!()
        };
        let plan = db.plan(&sel).unwrap();
        let qe = q_error(plan.est_rows, truth);
        assert!(
            qe < 3.0,
            "optimizer-visible q-error {qe} (est {} truth {truth})",
            plan.est_rows
        );
    }

    #[test]
    fn empty_training_rejected() {
        let data = CorrData::generate(100, 10, 0.0, 1);
        assert!(LearnedCard::train(&data, &[], 1).is_err());
    }
}
