//! Learning-based database monitoring (E11, E12a).
//!
//! **Health monitor / root-cause diagnosis** (Ma et al.'s iSQUAD, VLDB'20):
//! "intermittent slow queries with similar key performance indicators have
//! the same root causes. They first extract slow SQLs from the failure
//! records, cluster them with KPI states, and ask DBAs to assign root
//! causes for each cluster. Next, for an incoming slow SQL, they match it
//! to a cluster based on similarity of KPI states."
//! We implement that pipeline over a synthetic five-KPI state (cpu,
//! buffer hit rate, disk reads, lock waits, p95 latency), with a threshold-rule baseline, plus the unmatched-anomaly path
//! (new cluster → ask the DBA) and P-Store-style *proactive* detection via
//! forecasting on the arrival trace.
//!
//! **Activity monitor** (Grushka-Cohen et al.): picking which database
//! activities to record under a budget is a multi-armed bandit; reward is
//! the risk score captured.

use std::collections::HashMap;

use rand::prelude::*;
use rand::rngs::StdRng;

use aimdb_common::synth::gaussian;
use aimdb_common::{AimError, Result};
use aimdb_engine::trace::{QueryTrace, Span};
use aimdb_ml::bandit::{Bandit, BanditPolicy};
use aimdb_ml::cluster::KMeans;
use aimdb_ml::forecast::{Forecaster, SeasonalNaive};

/// Root causes injected into the simulated incident history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RootCause {
    CpuSpike,
    MemoryPressure,
    LockContention,
    SlowDisk,
}

impl RootCause {
    pub const ALL: [RootCause; 4] = [
        RootCause::CpuSpike,
        RootCause::MemoryPressure,
        RootCause::LockContention,
        RootCause::SlowDisk,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            RootCause::CpuSpike => "cpu-spike",
            RootCause::MemoryPressure => "memory-pressure",
            RootCause::LockContention => "lock-contention",
            RootCause::SlowDisk => "slow-disk",
        }
    }

    /// KPI signature of the incident class:
    /// [cpu, buffer_hit_rate, disk_reads, lock_waits, latency_p95].
    fn signature(&self) -> [f64; 5] {
        match self {
            RootCause::CpuSpike => [0.95, 0.9, 0.2, 0.1, 0.7],
            RootCause::MemoryPressure => [0.5, 0.25, 0.85, 0.15, 0.75],
            RootCause::LockContention => [0.3, 0.9, 0.15, 0.9, 0.85],
            RootCause::SlowDisk => [0.35, 0.85, 0.95, 0.2, 0.9],
        }
    }
}

/// One recorded slow-query incident: KPI vector (+ hidden true cause).
#[derive(Debug, Clone)]
pub struct Incident {
    pub kpis: Vec<f64>,
    pub true_cause: RootCause,
}

/// Generate an incident history with per-class KPI noise.
pub fn generate_incidents(n: usize, noise: f64, seed: u64) -> Vec<Incident> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let cause = RootCause::ALL[i % RootCause::ALL.len()];
            let kpis = cause
                .signature()
                .iter()
                .map(|&s| (s + noise * gaussian(&mut rng)).clamp(0.0, 1.0))
                .collect();
            Incident {
                kpis,
                true_cause: cause,
            }
        })
        .collect()
}

/// Baseline: hand-written threshold rules, checked in fixed order — the
/// kind of runbook a DBA writes. Deliberately brittle under noise because
/// the first matching rule wins.
pub fn rule_based_diagnosis(kpis: &[f64]) -> RootCause {
    if kpis[0] > 0.8 {
        RootCause::CpuSpike
    } else if kpis[1] < 0.4 {
        RootCause::MemoryPressure
    } else if kpis[3] > 0.6 {
        RootCause::LockContention
    } else {
        RootCause::SlowDisk
    }
}

/// Aggregate view over a window of completed query traces — the stream
/// the engine's tracer publishes. Phase fractions tell a monitor *where*
/// latency is going (optimizer-bound vs executor-bound workloads look
/// completely different here at identical mean latency).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceProfile {
    pub queries: usize,
    /// Fraction of total traced wall time spent in each lifecycle phase.
    pub parse_frac: f64,
    pub optimize_frac: f64,
    pub execute_frac: f64,
    pub mean_rows: f64,
    pub mean_cost: f64,
    /// Buffer miss rate across traced executions (misses / accesses).
    pub buffer_miss_rate: f64,
    /// Mean utilization of morsel workers across traced parallel
    /// executions: Σ worker-span time / (workers × execute window),
    /// summed over traces that ran parallel pipelines. 0 when the
    /// window held no parallel queries; near 1 when workers stayed
    /// busy wall-to-wall; low values flag skew — morsels starving all
    /// but one worker looks exactly like a low ratio here.
    pub worker_busy_ratio: f64,
}

impl TraceProfile {
    /// Fixed feature vector for monitors that consume the trace stream.
    pub fn features(&self) -> Vec<f64> {
        vec![
            self.queries as f64,
            self.parse_frac,
            self.optimize_frac,
            self.execute_frac,
            self.mean_rows,
            self.mean_cost,
            self.buffer_miss_rate,
            self.worker_busy_ratio,
        ]
    }
}

/// Summarize a window of query traces (accepts `&[Arc<QueryTrace>]`
/// straight from `Database::recent_traces`).
pub fn summarize_traces<T: AsRef<QueryTrace>>(traces: &[T]) -> TraceProfile {
    if traces.is_empty() {
        return TraceProfile::default();
    }
    let mut total_ns = 0u64;
    let mut phase_ns = [0u64; 3];
    let mut rows = 0u64;
    let mut cost = 0.0;
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut worker_busy_ns = 0u64;
    let mut worker_window_ns = 0u64;
    for t in traces {
        let t = t.as_ref();
        total_ns += t.duration_ns();
        for (i, phase) in ["parse", "optimize", "execute"].iter().enumerate() {
            if let Some(s) = t.span(phase) {
                phase_ns[i] += s.duration_ns();
            }
        }
        rows += t.total_rows();
        cost += t.total_cost();
        for s in &t.spans {
            hits += s.buffer_hits;
            misses += s.buffer_misses;
        }
        // Parallel pipelines leave one "worker-N" child span per morsel
        // worker; utilization is their combined time over the execute
        // window they ran inside (workers × window = perfect scaling).
        let workers = t
            .spans
            .iter()
            .filter(|s| s.name.starts_with("worker-"))
            .count() as u64;
        if workers > 0 {
            worker_busy_ns += t
                .spans
                .iter()
                .filter(|s| s.name.starts_with("worker-"))
                .map(Span::duration_ns)
                .sum::<u64>();
            let window = t.span("execute").map_or(t.duration_ns(), Span::duration_ns);
            worker_window_ns += workers * window;
        }
    }
    let n = traces.len() as f64;
    let frac = |ns: u64| {
        if total_ns > 0 {
            ns as f64 / total_ns as f64
        } else {
            0.0
        }
    };
    let accesses = hits + misses;
    TraceProfile {
        queries: traces.len(),
        parse_frac: frac(phase_ns[0]),
        optimize_frac: frac(phase_ns[1]),
        execute_frac: frac(phase_ns[2]),
        mean_rows: rows as f64 / n,
        mean_cost: cost / n,
        buffer_miss_rate: if accesses > 0 {
            misses as f64 / accesses as f64
        } else {
            0.0
        },
        worker_busy_ratio: if worker_window_ns > 0 {
            (worker_busy_ns as f64 / worker_window_ns as f64).min(1.0)
        } else {
            0.0
        },
    }
}

/// The iSQUAD-style diagnoser: cluster historical incidents, label each
/// cluster by its majority cause (the "ask the DBA once per cluster"
/// step), then classify new incidents by nearest cluster — unless they're
/// farther than `novelty_threshold`, which triggers the new-cluster path.
pub struct KpiDiagnoser {
    kmeans: KMeans,
    cluster_cause: Vec<RootCause>,
    pub novelty_threshold: f64,
}

/// Diagnosis outcome for one incoming incident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Diagnosis {
    Known(RootCause),
    /// No cluster is close enough — escalate to the DBA, seed a cluster.
    Novel,
}

impl KpiDiagnoser {
    pub fn train(history: &[Incident], k: usize, seed: u64) -> Result<Self> {
        if history.is_empty() {
            return Err(AimError::InvalidInput("no incident history".into()));
        }
        let points: Vec<Vec<f64>> = history.iter().map(|i| i.kpis.clone()).collect();
        let kmeans = KMeans::fit(&points, k, 100, seed)?;
        // majority cause per cluster
        let mut votes: Vec<HashMap<RootCause, usize>> = vec![HashMap::new(); k];
        for (inc, &c) in history.iter().zip(&kmeans.assignments) {
            *votes[c].entry(inc.true_cause).or_default() += 1;
        }
        let cluster_cause = votes
            .into_iter()
            .map(|v| {
                v.into_iter()
                    .max_by_key(|&(_, n)| n)
                    .map(|(c, _)| c)
                    .unwrap_or(RootCause::CpuSpike)
            })
            .collect();
        // novelty threshold: generous multiple of the typical in-cluster
        // distance
        let mean_dist: f64 = points
            .iter()
            .map(|p| kmeans.distance_to_nearest(p))
            .sum::<f64>()
            / points.len() as f64;
        Ok(KpiDiagnoser {
            kmeans,
            cluster_cause,
            novelty_threshold: mean_dist * 4.0,
        })
    }

    pub fn diagnose(&self, kpis: &[f64]) -> Diagnosis {
        if self.kmeans.distance_to_nearest(kpis) > self.novelty_threshold {
            return Diagnosis::Novel;
        }
        Diagnosis::Known(self.cluster_cause[self.kmeans.assign(kpis)])
    }

    /// Diagnostic accuracy over labeled incidents (Novel counts as wrong).
    pub fn accuracy(&self, incidents: &[Incident]) -> f64 {
        let correct = incidents
            .iter()
            .filter(|i| self.diagnose(&i.kpis) == Diagnosis::Known(i.true_cause))
            .count();
        correct as f64 / incidents.len().max(1) as f64
    }
}

/// Accuracy of the rule baseline on labeled incidents.
pub fn rule_accuracy(incidents: &[Incident]) -> f64 {
    let correct = incidents
        .iter()
        .filter(|i| rule_based_diagnosis(&i.kpis) == i.true_cause)
        .count();
    correct as f64 / incidents.len().max(1) as f64
}

/// Proactive monitoring (Taft et al.'s P-Store idea): forecast the
/// arrival trace one step ahead; alert when the *forecast* crosses the
/// capacity, before the load actually arrives. Returns
/// (steps of advance warning summed, false alarms).
pub fn proactive_alerts(trace: &[f64], capacity: f64, period: usize) -> (usize, usize) {
    let mut f = SeasonalNaive::new(period);
    let mut early = 0usize;
    let mut false_alarms = 0usize;
    for (t, &y) in trace.iter().enumerate() {
        if t > period {
            let predicted = f.forecast();
            if predicted > capacity {
                // alert fired before observing y
                if y > capacity {
                    early += 1;
                } else {
                    false_alarms += 1;
                }
            }
        }
        f.observe(y);
    }
    (early, false_alarms)
}

// ---------------------------------------------------------------------
// Activity monitoring as a multi-armed bandit (E12a)
// ---------------------------------------------------------------------

/// An activity class with a hidden mean risk score in [0,1].
#[derive(Debug, Clone)]
pub struct ActivityClass {
    pub name: String,
    pub mean_risk: f64,
}

/// The monitoring episode: at each step every class emits one activity;
/// the monitor can record `budget` of them; reward is the realized risk
/// of recorded activities (risk captured).
pub struct ActivityStream {
    pub classes: Vec<ActivityClass>,
    rng: StdRng,
}

impl ActivityStream {
    pub fn new(classes: Vec<ActivityClass>, seed: u64) -> Self {
        ActivityStream {
            classes,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Typical enterprise mix: a few risky classes among mostly benign.
    pub fn typical(seed: u64) -> Self {
        let classes = vec![
            ("select-read", 0.02),
            ("batch-etl", 0.05),
            ("schema-change", 0.55),
            ("priv-escalation", 0.8),
            ("account-create", 0.45),
            ("backup", 0.03),
            ("adhoc-export", 0.6),
            ("login", 0.08),
        ]
        .into_iter()
        .map(|(n, r)| ActivityClass {
            name: n.into(),
            mean_risk: r,
        })
        .collect();
        ActivityStream::new(classes, seed)
    }

    fn realized_risk(&mut self, class: usize) -> f64 {
        let m = self.classes[class].mean_risk;
        (m + 0.15 * gaussian(&mut self.rng)).clamp(0.0, 1.0)
    }

    /// Run a recording policy for `steps`; the policy picks `budget`
    /// class indices per step and learns from their realized risks.
    /// Returns total risk captured.
    pub fn run(
        &mut self,
        steps: usize,
        budget: usize,
        mut policy: impl FnMut(&mut Self, usize) -> Vec<usize>,
    ) -> f64 {
        let mut captured = 0.0;
        for step in 0..steps {
            let picks = policy(self, step);
            for &c in picks.iter().take(budget) {
                captured += self.realized_risk(c);
            }
        }
        captured
    }
}

/// Baseline: record uniformly at random under the budget.
pub fn monitor_random(stream: &mut ActivityStream, steps: usize, budget: usize, seed: u64) -> f64 {
    let n = stream.classes.len();
    let mut rng = StdRng::seed_from_u64(seed);
    stream.run(steps, budget, move |_, _| {
        aimdb_common::synth::sample_indices(n, budget, &mut rng)
    })
}

/// Learned: Thompson-sampling bandit over activity classes (the MAB
/// formulation of Grushka-Cohen et al.); pulls the `budget` arms with the
/// highest sampled posteriors and updates on realized risk.
pub fn monitor_bandit(stream: &mut ActivityStream, steps: usize, budget: usize, seed: u64) -> f64 {
    let n = stream.classes.len();
    let mut bandit = Bandit::new(n, BanditPolicy::Thompson, seed);
    let mut captured = 0.0;
    for _ in 0..steps {
        // select `budget` distinct arms by repeated sampling; bounded
        // attempts (concentrated posteriors make a repeated argmax likely),
        // then fill with the best remaining arms by posterior mean
        let mut picks = Vec::with_capacity(budget);
        let mut attempts = 0;
        while picks.len() < budget.min(n) && attempts < 16 * n {
            attempts += 1;
            let a = bandit.select();
            if !picks.contains(&a) {
                picks.push(a);
            }
        }
        if picks.len() < budget.min(n) {
            let mut rest: Vec<usize> = (0..n).filter(|i| !picks.contains(i)).collect();
            rest.sort_by(|&a, &b| bandit.mean(b).total_cmp(&bandit.mean(a)));
            picks.extend(rest.into_iter().take(budget.min(n) - picks.len()));
        }
        for &c in &picks {
            let r = stream.realized_risk(c);
            captured += r;
            bandit.update(c, r);
        }
    }
    captured
}

/// Oracle: always record the top-`budget` classes by true mean risk.
pub fn monitor_oracle(stream: &mut ActivityStream, steps: usize, budget: usize) -> f64 {
    let mut order: Vec<usize> = (0..stream.classes.len()).collect();
    order.sort_by(|&a, &b| {
        stream.classes[b]
            .mean_risk
            .total_cmp(&stream.classes[a].mean_risk)
    });
    let top: Vec<usize> = order.into_iter().take(budget).collect();
    stream.run(steps, budget, move |_, _| top.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimdb_common::synth::seasonal_trace;

    #[test]
    fn summarize_traces_profiles_the_stream() {
        use aimdb_engine::Database;
        assert_eq!(
            summarize_traces::<std::sync::Arc<QueryTrace>>(&[]).queries,
            0
        );
        let db = Database::new();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        let tuples: Vec<String> = (0..200).map(|i| format!("({i})")).collect();
        db.execute(&format!("INSERT INTO t VALUES {}", tuples.join(",")))
            .unwrap();
        // exec_parallelism defaults to 0 = all cores: pin it so this window is serial
        db.execute("SET exec_parallelism = 1").unwrap();
        for _ in 0..4 {
            db.execute("SELECT COUNT(*) FROM t WHERE a < 100").unwrap();
        }
        let traces = db.recent_traces();
        assert!(!traces.is_empty());
        let p = summarize_traces(&traces);
        assert_eq!(p.queries, traces.len());
        let fracs = p.parse_frac + p.optimize_frac + p.execute_frac;
        assert!(
            (0.0..=1.0 + 1e-9).contains(&fracs),
            "phase fractions {fracs}"
        );
        assert!(p.mean_cost > 0.0);
        // serial window: no worker spans, so no utilization signal
        assert_eq!(p.worker_busy_ratio, 0.0);
        assert_eq!(p.features().len(), 8);

        // parallel window: morsel workers leave "worker-N" child spans,
        // and the profile turns them into a bounded utilization signal
        db.execute("SET exec_parallelism = 2").unwrap();
        for _ in 0..4 {
            db.execute("SELECT COUNT(*) FROM t WHERE a < 100").unwrap();
        }
        let p = summarize_traces(&db.recent_traces());
        assert!(
            p.worker_busy_ratio > 0.0 && p.worker_busy_ratio <= 1.0,
            "worker_busy_ratio {}",
            p.worker_busy_ratio
        );
    }

    #[test]
    fn diagnoser_beats_rules_under_noise() {
        let history = generate_incidents(400, 0.15, 1);
        let test = generate_incidents(200, 0.15, 2);
        let diag = KpiDiagnoser::train(&history, 4, 7).unwrap();
        let learned = diag.accuracy(&test);
        let rules = rule_accuracy(&test);
        assert!(
            learned > rules,
            "clustered diagnosis {learned} vs rules {rules}"
        );
        assert!(learned > 0.85, "learned accuracy {learned}");
    }

    #[test]
    fn rules_fine_when_clean() {
        // sanity: with no noise the runbook rules are competitive
        let clean = generate_incidents(100, 0.0, 3);
        assert!(rule_accuracy(&clean) > 0.95);
    }

    #[test]
    fn novel_incident_escalates() {
        let history = generate_incidents(200, 0.1, 4);
        let diag = KpiDiagnoser::train(&history, 4, 7).unwrap();
        // an alien KPI vector far outside the incident manifold
        let alien = vec![10.0, -5.0, 10.0, 10.0, -3.0];
        assert_eq!(diag.diagnose(&alien), Diagnosis::Novel);
        // a normal one is classified
        let normal = &history[0];
        assert!(matches!(diag.diagnose(&normal.kpis), Diagnosis::Known(_)));
    }

    #[test]
    fn proactive_forecasting_warns_before_overload() {
        // daily pattern approaching capacity at peak hours
        let trace = seasonal_trace(24 * 10, 24, 80.0, 30.0, 0.02, 1.0, None, 5);
        let (early, false_alarms) = proactive_alerts(&trace, 100.0, 24);
        assert!(early > 5, "early warnings {early}");
        assert!(
            false_alarms < early,
            "false alarms {false_alarms} vs early {early}"
        );
    }

    #[test]
    fn bandit_captures_more_risk_than_random() {
        let steps = 400;
        let budget = 2;
        let random = monitor_random(&mut ActivityStream::typical(1), steps, budget, 9);
        let bandit = monitor_bandit(&mut ActivityStream::typical(1), steps, budget, 9);
        let oracle = monitor_oracle(&mut ActivityStream::typical(1), steps, budget);
        assert!(bandit > random * 1.5, "bandit {bandit} vs random {random}");
        assert!(
            bandit <= oracle * 1.02,
            "bandit {bandit} vs oracle {oracle}"
        );
        assert!(bandit > oracle * 0.85, "bandit should approach oracle");
    }

    #[test]
    fn empty_history_rejected() {
        assert!(KpiDiagnoser::train(&[], 3, 1).is_err());
    }
}
