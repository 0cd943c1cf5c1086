//! The declarative language model (AISQL runtime).
//!
//! "SQL can be extended to support AI models" — [`ModelRuntime`]
//! implements the engine's [`ModelHook`] so that:
//!
//! ```sql
//! CREATE MODEL stay KIND LINEAR ON patients (age, severity) LABEL days;
//! PREDICT stay GIVEN (63, 2.5);
//! SELECT name FROM patients WHERE PREDICT(stay, age, severity) > 3;
//! ```
//!
//! all work inside the database. Training reads the table through the
//! catalog, dispatches on the model kind, and registers the result in the
//! versioned [`ModelRegistry`]. Inference does not go through the
//! registry row by row: the hook's only inference method is
//! [`ModelHook::bind`], which the planner calls once per model a SELECT,
//! UPDATE or DELETE predicts with, for a snapshot of the latest version —
//! the only time the registry lock is taken — and the executor runs that
//! snapshot's batch kernel, so one statement predicts with one version.
//! `PREDICT … GIVEN` binds once too and predicts a batch of one row.

use std::sync::Arc;

use parking_lot::Mutex;

use aimdb_common::{AimError, LockRank, Result, Value};
use aimdb_engine::{Database, ModelHook};
use aimdb_ml::bayes::GaussianNb;
use aimdb_ml::cluster::KMeans;
use aimdb_ml::data::Dataset;
use aimdb_ml::linear::{GdParams, LinearRegression, LogisticRegression};
use aimdb_ml::metrics::{accuracy, mse};
use aimdb_ml::tree::{DecisionTree, TreeParams, TreeTask};
use aimdb_sql::ast::ModelKind;
use aimdb_sql::expr::BoundModel;

use crate::registry::{params_to_meta, ModelMeta, ModelRegistry, TrainedModel};

/// The in-database model runtime. Install with
/// [`Database::set_model_hook`].
pub struct ModelRuntime {
    registry: Mutex<ModelRegistry>,
}

impl Default for ModelRuntime {
    fn default() -> Self {
        ModelRuntime::new()
    }
}

impl ModelRuntime {
    pub fn new() -> Self {
        ModelRuntime {
            registry: Mutex::with_rank(ModelRegistry::default(), LockRank::ModelRegistry),
        }
    }

    /// Install a fresh runtime into a database and return a handle to it.
    pub fn install(db: &Database) -> Arc<ModelRuntime> {
        let rt = Arc::new(ModelRuntime::new());
        db.set_model_hook(Arc::clone(&rt) as Arc<dyn ModelHook>);
        rt
    }

    /// Access registry metadata (list/search/export).
    pub fn with_registry<R>(&self, f: impl FnOnce(&ModelRegistry) -> R) -> R {
        f(&self.registry.lock())
    }

    fn hyper(params: &[(String, Value)], key: &str, default: f64) -> f64 {
        params
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(key))
            .and_then(|(_, v)| v.as_f64().ok())
            .unwrap_or(default)
    }

    /// Extract the training matrix from a table.
    fn extract(
        db: &Database,
        table: &str,
        features: &[String],
        label: Option<&str>,
    ) -> Result<(Vec<Vec<f64>>, Vec<f64>)> {
        let t = db.catalog.table(table)?;
        let fidx: Vec<usize> = features
            .iter()
            .map(|f| t.schema.index_of(f))
            .collect::<Result<_>>()?;
        let lidx = match label {
            Some(l) => Some(t.schema.index_of(l)?),
            None => None,
        };
        let mut x = Vec::new();
        let mut y = Vec::new();
        for (_, row) in t.scan_visible(None)? {
            // skip rows with NULLs in any used column
            let feats: Result<Vec<f64>> = fidx.iter().map(|&i| row.get(i).as_f64()).collect();
            let Ok(feats) = feats else { continue };
            match lidx {
                Some(li) => {
                    let Ok(lv) = row.get(li).as_f64() else {
                        continue;
                    };
                    x.push(feats);
                    y.push(lv);
                }
                None => {
                    x.push(feats);
                    y.push(0.0);
                }
            }
        }
        if x.is_empty() {
            return Err(AimError::InvalidInput(format!(
                "no trainable rows in {table} (NULLs or empty table)"
            )));
        }
        Ok((x, y))
    }
}

impl ModelHook for ModelRuntime {
    fn create_model(
        &self,
        db: &Database,
        name: &str,
        kind: ModelKind,
        table: &str,
        features: &[String],
        label: Option<&str>,
        params: &[(String, Value)],
    ) -> Result<String> {
        if kind != ModelKind::KMeans && label.is_none() {
            return Err(AimError::Model(format!(
                "model kind {kind:?} requires a LABEL clause"
            )));
        }
        let (x, y) = Self::extract(db, table, features, label)?;
        let n = x.len();
        let seed = Self::hyper(params, "seed", 7.0) as u64;
        let epochs = Self::hyper(params, "epochs", 200.0) as usize;
        let lr = Self::hyper(params, "lr", 0.05);
        let gd = GdParams {
            epochs,
            lr,
            seed,
            ..Default::default()
        };

        let (model, metric, metric_name): (TrainedModel, f64, &str) = match kind {
            ModelKind::Linear => {
                let ds = Dataset::new(x.clone(), y.clone())?;
                let m = LinearRegression::fit(&ds, gd)?;
                let metric = mse(&m.predict(&x), &y);
                (TrainedModel::Linear(m), metric, "mse")
            }
            ModelKind::Logistic => {
                let ds = Dataset::new(x.clone(), y.clone())?;
                let m = LogisticRegression::fit(&ds, gd)?;
                let metric = accuracy(&m.predict(&x), &y);
                (TrainedModel::Logistic(m), metric, "accuracy")
            }
            ModelKind::Tree => {
                let ds = Dataset::new(x.clone(), y.clone())?;
                let m = DecisionTree::fit(
                    &ds,
                    TreeParams {
                        max_depth: Self::hyper(params, "max_depth", 10.0) as usize,
                        task: TreeTask::Classification,
                        seed,
                        ..Default::default()
                    },
                )?;
                let metric = accuracy(&m.predict(&x), &y);
                (TrainedModel::Tree(m), metric, "accuracy")
            }
            ModelKind::NaiveBayes => {
                let ds = Dataset::new(x.clone(), y.clone())?;
                let m = GaussianNb::fit(&ds)?;
                let metric = accuracy(&m.predict(&x), &y);
                (TrainedModel::NaiveBayes(m), metric, "accuracy")
            }
            ModelKind::KMeans => {
                let k = Self::hyper(params, "k", 3.0) as usize;
                let m = KMeans::fit(&x, k, 100, seed)?;
                let metric = m.inertia;
                (TrainedModel::KMeans(m), metric, "inertia")
            }
        };

        let meta = ModelMeta {
            name: name.to_string(),
            version: 0,
            kind: model.kind_name().to_string(),
            table: table.to_string(),
            features: features.to_vec(),
            label: label.map(str::to_string),
            params: params_to_meta(params),
            train_metric: metric,
            metric_name: metric_name.to_string(),
            created_at: 0,
        };
        let version = self.registry.lock().register(meta, model);
        Ok(format!(
            "trained model {name} v{version} ({}) on {n} rows, {metric_name}={metric:.4}",
            kind_label(kind)
        ))
    }

    fn drop_model(&self, name: &str) -> Result<()> {
        self.registry.lock().drop_model(name).map(|_| ())
    }

    fn bind(&self, name: &str, arity: usize) -> Result<Arc<dyn BoundModel>> {
        let version = self.registry.lock().snapshot(name)?;
        let features = &version.meta.features;
        if arity != features.len() {
            return Err(AimError::Model(format!(
                "model {name} expects {} inputs ({}), got {arity}",
                features.len(),
                features.join(", "),
            )));
        }
        Ok(version)
    }
}

fn kind_label(kind: ModelKind) -> &'static str {
    match kind {
        ModelKind::Linear => "linear regression",
        ModelKind::Logistic => "logistic regression",
        ModelKind::Tree => "decision tree",
        ModelKind::NaiveBayes => "gaussian naive bayes",
        ModelKind::KMeans => "k-means",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimdb_engine::QueryResult;

    /// Patients table from the tutorial's hybrid-inference example.
    fn patients_db() -> Database {
        let db = Database::new();
        db.execute(
            "CREATE TABLE patients (id INT, name TEXT, age INT, severity FLOAT, days FLOAT)",
        )
        .unwrap();
        let tuples: Vec<String> = (0..500)
            .map(|i| {
                let age = 20 + (i * 7) % 60;
                let sev = (i % 10) as f64 / 2.0;
                // ground truth: days = 0.05*age + 0.8*severity
                let days = 0.05 * age as f64 + 0.8 * sev;
                format!("({i}, 'p{i}', {age}, {sev}, {days})")
            })
            .collect();
        db.execute(&format!("INSERT INTO patients VALUES {}", tuples.join(",")))
            .unwrap();
        db
    }

    #[test]
    fn create_model_and_predict_via_sql() {
        let db = patients_db();
        ModelRuntime::install(&db);
        let r = db
            .execute("CREATE MODEL stay KIND LINEAR ON patients (age, severity) LABEL days WITH (epochs = 300)")
            .unwrap();
        let QueryResult::Text(desc) = r else { panic!() };
        assert!(desc.contains("stay v1"), "{desc}");
        // PREDICT statement
        let r = db.execute("PREDICT stay GIVEN (40, 2.0)").unwrap();
        let v = r.scalar().unwrap().as_f64().unwrap();
        let expect = 0.05 * 40.0 + 0.8 * 2.0;
        assert!(
            (v - expect).abs() < 0.3,
            "predicted {v}, expected ≈{expect}"
        );
    }

    #[test]
    fn predict_inside_queries_hybrid() {
        let db = patients_db();
        ModelRuntime::install(&db);
        db.execute("CREATE MODEL stay KIND LINEAR ON patients (age, severity) LABEL days")
            .unwrap();
        // the tutorial's example: patients whose predicted stay > 3 days
        let r = db
            .execute("SELECT COUNT(*) FROM patients WHERE PREDICT(stay, age, severity) > 3")
            .unwrap();
        let learned_count = r.scalar().unwrap().as_i64().unwrap();
        let r = db
            .execute("SELECT COUNT(*) FROM patients WHERE days > 3")
            .unwrap();
        let true_count = r.scalar().unwrap().as_i64().unwrap();
        let diff = (learned_count - true_count).abs();
        assert!(
            diff * 10 <= true_count,
            "prediction-filtered count {learned_count} vs truth {true_count}"
        );
    }

    #[test]
    fn versions_accumulate_and_drop_works() {
        let db = patients_db();
        let rt = ModelRuntime::install(&db);
        db.execute("CREATE MODEL m KIND LINEAR ON patients (age) LABEL days")
            .unwrap();
        db.execute("CREATE MODEL m KIND LINEAR ON patients (age) LABEL days WITH (epochs = 50)")
            .unwrap();
        rt.with_registry(|r| {
            assert_eq!(r.len(), 2);
            assert_eq!(r.latest("m").unwrap().0.version, 2);
        });
        db.execute("DROP MODEL m").unwrap();
        assert!(db.execute("PREDICT m GIVEN (30)").is_err());
    }

    /// One statement, one model version: a re-train that lands after the
    /// statement bound its model — here forced between planning and
    /// running, and raced for real by a second thread — must not leak into
    /// it. Every answer is exactly v1's or exactly v2's, never a blend of
    /// morsels predicted by different versions.
    #[test]
    fn retrain_never_splits_a_statement_across_versions() {
        use aimdb_sql::parser::parse_one;
        use aimdb_sql::Statement;
        use std::sync::Barrier;

        let db = Database::new();
        ModelRuntime::install(&db);
        db.execute("CREATE TABLE t (x INT, up FLOAT, down FLOAT)")
            .unwrap();
        // enough pages that two workers each take several morsels
        for chunk in (0..6000).collect::<Vec<i64>>().chunks(500) {
            let tuples: Vec<String> = chunk
                .iter()
                .map(|x| format!("({x}, {}, {})", 2 * x, 1000 - 2 * x))
                .collect();
            db.execute(&format!("INSERT INTO t VALUES {}", tuples.join(",")))
                .unwrap();
        }
        let _ = parking_lot::witness::take_violations();
        let train = |label: &str| {
            db.execute(&format!(
                "CREATE MODEL m KIND LINEAR ON t (x) LABEL {label} WITH (epochs = 3)"
            ))
            .unwrap();
        };
        let sql = "SELECT COUNT(*) FROM t WHERE PREDICT(m, x) > 600";
        let count = |r: QueryResult| r.scalar().unwrap().as_i64().unwrap();
        let Statement::Select(sel) = parse_one(sql).unwrap() else {
            panic!("not a select")
        };

        train("up");
        let rising = count(db.execute(sql).unwrap());
        train("down");
        let falling = count(db.execute(sql).unwrap());
        assert!(
            rising > 3000 && falling < 3000 && falling > 0,
            "{rising} {falling}"
        );

        for workers in [1, 2, 4] {
            db.execute(&format!("SET exec_parallelism = {workers}"))
                .unwrap();
            // bound to the falling model, re-trained before the scan starts
            let plan = db.plan(&sel).unwrap();
            train("up");
            assert_eq!(count(db.run_plan(&plan).unwrap()), falling);
            assert_eq!(count(db.execute(sql).unwrap()), rising);
            train("down");

            // and raced: scans on this thread, re-trains on another
            let start = Barrier::new(2);
            std::thread::scope(|s| {
                s.spawn(|| {
                    start.wait();
                    for i in 0..12 {
                        train(if i % 2 == 0 { "up" } else { "down" });
                    }
                });
                start.wait();
                for _ in 0..40 {
                    let got = count(db.execute(sql).unwrap());
                    assert!(
                        got == rising || got == falling,
                        "workers={workers}: {got} is neither {rising} nor {falling}"
                    );
                }
            });
        }
        if parking_lot::witness::enabled() {
            let v = parking_lot::witness::take_violations();
            assert!(v.is_empty(), "lock-order violations: {v:?}");
        }
    }

    #[test]
    fn classifier_and_clustering_kinds() {
        let db = patients_db();
        ModelRuntime::install(&db);
        // binary label: long stay?
        db.execute("CREATE TABLE flags (age INT, sev FLOAT, long INT)")
            .unwrap();
        let tuples: Vec<String> = (0..300)
            .map(|i| {
                let age = 20 + i % 60;
                let sev = (i % 10) as f64 / 2.0;
                let long = if 0.05 * age as f64 + 0.8 * sev > 3.0 {
                    1
                } else {
                    0
                };
                format!("({age}, {sev}, {long})")
            })
            .collect();
        db.execute(&format!("INSERT INTO flags VALUES {}", tuples.join(",")))
            .unwrap();
        for kind in ["LOGISTIC", "TREE", "NB"] {
            db.execute(&format!(
                "CREATE MODEL c_{kind} KIND {kind} ON flags (age, sev) LABEL long"
            ))
            .unwrap();
            let hi = db
                .execute(&format!("PREDICT c_{kind} GIVEN (75, 4.5)"))
                .unwrap()
                .scalar()
                .unwrap()
                .as_f64()
                .unwrap();
            let lo = db
                .execute(&format!("PREDICT c_{kind} GIVEN (20, 0.0)"))
                .unwrap()
                .scalar()
                .unwrap()
                .as_f64()
                .unwrap();
            assert_eq!(hi, 1.0, "{kind} high-risk");
            assert_eq!(lo, 0.0, "{kind} low-risk");
        }
        // unsupervised: no LABEL needed
        db.execute("CREATE MODEL seg KIND KMEANS ON patients (age, severity) WITH (k = 4)")
            .unwrap();
        let c = db
            .execute("PREDICT seg GIVEN (40, 2.0)")
            .unwrap()
            .scalar()
            .unwrap()
            .as_f64()
            .unwrap();
        assert!((0.0..4.0).contains(&c));
    }

    #[test]
    fn errors_are_informative() {
        let db = patients_db();
        ModelRuntime::install(&db);
        // supervised kind without LABEL
        assert!(db
            .execute("CREATE MODEL x KIND LINEAR ON patients (age)")
            .is_err());
        // missing table / column
        assert!(db
            .execute("CREATE MODEL x KIND LINEAR ON missing (a) LABEL b")
            .is_err());
        assert!(db
            .execute("CREATE MODEL x KIND LINEAR ON patients (nope) LABEL days")
            .is_err());
        // wrong arity at predict time
        db.execute("CREATE MODEL x KIND LINEAR ON patients (age, severity) LABEL days")
            .unwrap();
        assert!(db.execute("PREDICT x GIVEN (1)").is_err());
        // unknown model
        assert!(db.execute("PREDICT nope GIVEN (1)").is_err());
    }
}
