//! `hybrid_predict`: the DB4AI half of the paper in the live path.
//!
//! A 30 000-row `patients` table, a linear model `stay` and a decision
//! tree `risk` trained by `CREATE MODEL` during set-up, and three query
//! shapes that call `PREDICT` row by row from the executor's
//! scalar-function path — the tutorial's "patients staying longer than
//! τ days" hybrid query and two variants.
//!
//! Oracle: at warm-up each client fetches one full
//! `SELECT id, PREDICT(stay, age, severity)` projection; every
//! `predict_filter` count must equal the count derived from it. The
//! other two shapes must return the same answer every time the same
//! parameter recurs.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use aimdb_common::Value;
use aimdb_db4ai::ModelRuntime;
use aimdb_engine::Database;
use aimdb_server::Session;
use rand::{Rng, SeedableRng, StdRng};

use crate::stats::median;
use crate::workload::{cell_i64, ClientState, Conn, LoadInfo, Loader, OpDone, Req, Workload};

const PATIENTS: i64 = 30_000;
/// The projection is fetched in id ranges so each reply stays well under
/// the 1 MiB frame cap.
const FETCH_CHUNK: i64 = 10_000;

const DDL: &[&str] = &[
    "CREATE TABLE patients (id INT, age INT, severity FLOAT, days FLOAT, risk INT)",
    "CREATE INDEX patients_id_idx ON patients (id)",
];

const MODELS: &[&str] = &[
    "CREATE MODEL stay KIND LINEAR ON patients (age, severity) LABEL days WITH (epochs = 20)",
    "CREATE MODEL risk KIND TREE ON patients (age, severity) LABEL risk WITH (max_depth = 6)",
];

/// Filter/raw-scan pairs (and point predictions) the extra probe times.
const PROBE_PAIRS: usize = 12;

const CLASSES: &[&str] = &["predict_filter", "predict_agg", "predict_class"];

pub struct HybridPredict {
    seed: u64,
    rows: Arc<Vec<Vec<Value>>>,
}

impl HybridPredict {
    pub fn new(seed: u64) -> HybridPredict {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = (0..PATIENTS)
            .map(|id| {
                let age = rng.gen_range(18i64..90);
                // severity in steps of 0.5 keeps its SQL literal exact
                let severity = rng.gen_range(0i64..11) as f64 / 2.0;
                let noise: f64 = rng.gen_range(-0.5f64..0.5);
                let days = 0.05 * age as f64 + 0.8 * severity + noise;
                let risk = i64::from(age > 60 && severity > 2.0 || severity > 4.0);
                vec![
                    Value::Int(id),
                    Value::Int(age),
                    Value::Float(severity),
                    Value::Float(days),
                    Value::Int(risk),
                ]
            })
            .collect();
        HybridPredict {
            seed,
            rows: Arc::new(rows),
        }
    }
}

impl Workload for HybridPredict {
    fn name(&self) -> &'static str {
        "hybrid_predict"
    }
    fn classes(&self) -> &'static [&'static str] {
        CLASSES
    }
    fn read_only(&self) -> bool {
        true
    }
    fn load(&self, db: &Database) -> Result<LoadInfo, String> {
        ModelRuntime::install(db);
        let mut loader = Loader::new(db, 4000);
        loader.ddl(DDL)?;
        loader.insert("patients", self.rows.as_ref().clone())?;
        db.execute("ANALYZE").map_err(|e| format!("analyze: {e}"))?;
        let t0 = Instant::now();
        loader.ddl(MODELS)?;
        Ok(LoadInfo {
            user_bytes: loader.user_bytes,
            train_ms: t0.elapsed().as_secs_f64() * 1e3,
        })
    }
    /// `PREDICT`'s cost per row — the filter shape against the same scan
    /// on a stored column — and the cost of one point prediction.
    fn extra_probe(&self, db: &Database) -> Result<Vec<(&'static str, f64)>, String> {
        let mut session = Session::new(0);
        let mut time = |sql: String| -> Result<f64, String> {
            let t0 = Instant::now();
            session
                .dispatch(db, &sql)
                .map_err(|e| format!("hybrid_predict probe: {sql}: {e}"))?;
            Ok(t0.elapsed().as_nanos() as f64)
        };
        let mut per_row = Vec::new();
        let mut point = Vec::new();
        for i in 0..PROBE_PAIRS {
            let tau = 2.0 + i as f64 * 0.25;
            let with_model = time(filter_sql(tau))?;
            let raw = time(raw_filter_sql(tau))?;
            per_row.push((with_model - raw) / PATIENTS as f64);
            point.push(
                time(format!(
                    "PREDICT stay GIVEN ({}, {})",
                    30 + i,
                    i as f64 / 2.0
                ))? / 1e3,
            );
        }
        Ok(vec![
            ("db4ai.predict.ns_per_row", median(&per_row).unwrap_or(0.0)),
            ("db4ai.predict.point_us", median(&point).unwrap_or(0.0)),
        ])
    }
    fn client(&self, client: usize) -> Box<dyn ClientState> {
        Box::new(PredictClient {
            rng: StdRng::seed_from_u64(self.seed ^ (0xD84A1 + client as u64 * 0x9E37_79B9)),
            stays: Vec::new(),
            seen: HashMap::new(),
        })
    }
}

/// SQL text of the `predict_filter` shape and of the same scan on a raw
/// column (the probe's baseline for `db4ai.predict.ns_per_row`).
fn filter_sql(tau: f64) -> String {
    format!("SELECT COUNT(*) FROM patients WHERE PREDICT(stay, age, severity) > {tau}")
}
fn raw_filter_sql(tau: f64) -> String {
    format!("SELECT COUNT(*) FROM patients WHERE days > {tau}")
}

struct PredictClient {
    rng: StdRng,
    /// `PREDICT(stay, …)` per patient, fetched once at warm-up.
    stays: Vec<f64>,
    /// Answers already seen for `predict_agg` / `predict_class`, by SQL.
    seen: HashMap<String, Value>,
}

impl PredictClient {
    /// Run a one-cell query; on recurrence the cell must not change.
    fn stable(&mut self, conn: &mut dyn Conn, class: usize, sql: String) -> Result<OpDone, String> {
        let result = match conn.stmt(&Req::Query(sql.clone())) {
            Ok(r) => r,
            Err(_) => return Ok(OpDone { class, ok: false }),
        };
        let cell = result
            .scalar()
            .map_err(|e| format!("hybrid_predict: {sql}: {e}"))?
            .clone();
        if let Some(before) = self.seen.get(&sql) {
            if *before != cell {
                return Err(format!(
                    "hybrid_predict: {sql} answered {cell:?}, earlier {before:?}"
                ));
            }
        } else {
            self.seen.insert(sql, cell);
        }
        Ok(OpDone { class, ok: true })
    }
}

impl ClientState for PredictClient {
    fn warm(&mut self, conn: &mut dyn Conn) -> Result<(), String> {
        self.stays = vec![f64::NAN; PATIENTS as usize];
        for lo in (0..PATIENTS).step_by(FETCH_CHUNK as usize) {
            let sql = format!(
                "SELECT id, PREDICT(stay, age, severity) FROM patients \
                 WHERE id >= {lo} AND id < {}",
                lo + FETCH_CHUNK
            );
            let result = conn
                .stmt(&Req::Query(sql))
                .map_err(|e| format!("hybrid_predict: projection fetch failed: {e:?}"))?;
            for row in result.rows() {
                let id = cell_i64(row.get(0)).ok_or("hybrid_predict: projection id not an int")?;
                let stay = row
                    .get(1)
                    .as_f64()
                    .map_err(|e| format!("hybrid_predict: projection value: {e}"))?;
                self.stays[id as usize] = stay;
            }
        }
        if self.stays.iter().any(|s| s.is_nan()) {
            return Err("hybrid_predict: projection is missing patients".into());
        }
        Ok(())
    }

    fn next_op(&mut self, conn: &mut dyn Conn) -> Result<OpDone, String> {
        let pick = self.rng.gen_range(0u32..100);
        if pick < 60 {
            // two decimals: the literal round-trips exactly
            let tau = self.rng.gen_range(150i64..650) as f64 / 100.0;
            let result = match conn.stmt(&Req::Query(filter_sql(tau))) {
                Ok(r) => r,
                Err(_) => {
                    return Ok(OpDone {
                        class: 0,
                        ok: false,
                    })
                }
            };
            let got = result.scalar().ok().and_then(cell_i64);
            let want = self.stays.iter().filter(|s| **s > tau).count() as i64;
            if got != Some(want) {
                return Err(format!(
                    "hybrid_predict: {got:?} patients predicted to stay over {tau}, \
                     the projection says {want}"
                ));
            }
            Ok(OpDone { class: 0, ok: true })
        } else if pick < 90 {
            let a = self.rng.gen_range(18i64..80);
            self.stable(
                conn,
                1,
                format!(
                    "SELECT AVG(PREDICT(stay, age, severity)) FROM patients \
                     WHERE age >= {a} AND age < {}",
                    a + 10
                ),
            )
        } else {
            let s = self.rng.gen_range(0i64..9) as f64 / 2.0;
            self.stable(
                conn,
                2,
                format!(
                    "SELECT COUNT(*) FROM patients \
                     WHERE PREDICT(risk, age, severity) = 1 AND severity > {s}"
                ),
            )
        }
    }
}
