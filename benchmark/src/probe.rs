//! The probe pass: one thread replays a seeded sample of the workload's
//! statement stream in-process, through each layer's public functions,
//! timing every call.
//!
//! For a statement the server would run
//! `protocol::decode_* → AdmissionGate::admit_statement →
//! Session::dispatch → protocol::encode_result`, and inside dispatch
//! `Database::execute` runs `parse_one`, `fingerprint`/`normalize`,
//! `Database::plan` and `Database::run_plan`. The probe calls each of
//! those itself. Reads are idempotent, so a read statement is executed
//! once through the server path and then once per piece; a span's
//! `parent` therefore means "is part of", and the pieces' intervals lie
//! after their parent's rather than inside it.
//!
//! Writes cannot be re-run piecewise. On a write workload the probe
//! alternates whole ops between the server path (dispatch timed whole)
//! and the engine path (`begin_txn` · `execute_in` · `commit_txn` ·
//! `rollback_txn` timed whole, statement text still parsed and
//! fingerprinted separately).

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aimdb_common::{AimError, Value, WallClock};
use aimdb_engine::{fingerprint, normalize, Database, QueryResult, TxnHandle};
use aimdb_server::admission::{AdmissionGate, AdmissionLimits};
use aimdb_server::session::bind_params;
use aimdb_server::{protocol, Session};
use aimdb_sql::ast::Statement;
use aimdb_sql::parser::parse_one;

use crate::spans::{Recorder, SpanId, NO_SPAN};
use crate::workload::{ClientState, Conn, PreparedSql, Req, StmtError, Workload};

/// Statements after which the pass stops (or its time budget, whichever
/// comes first).
const MAX_STMTS: usize = 2000;
/// Aborted write transactions run to time `ROLLBACK`.
const ABORTED_OPS: usize = 40;
/// SELECTs re-dispatched with `query_tracing` on and off.
const TRACING_SAMPLE: usize = 400;
const SPAN_CAP: usize = 64 * 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// Server path, then every piece (read-only workloads).
    Full,
    Server,
    Engine,
}

/// One timed call: the probe op it belongs to and its nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub op: u32,
    pub ns: i64,
}

/// Nanosecond samples per layer, one entry per call. The layers of the
/// round-trip ledger keep each sample's op, so they can be summarised
/// per op class (a mix of classes is multi-modal; one class is not).
#[derive(Debug, Default)]
pub struct Samples {
    /// Class index of each probe op (`usize::MAX` for the aborted ops).
    pub op_class: Vec<usize>,
    /// `protocol::decode_*` + `protocol::encode_result` per statement.
    pub codec: Vec<Sample>,
    pub admit: Vec<Sample>,
    pub dispatch: Vec<Sample>,
    /// decode + admit + dispatch + encode per statement — what
    /// `server.transport_us` subtracts from the live round trip.
    pub server_path: Vec<Sample>,
    pub session_self: Vec<Sample>,
    pub parse: Vec<Sample>,
    pub fingerprint: Vec<Sample>,
    pub plan: Vec<Sample>,
    pub run_plan: Vec<Sample>,
    /// `Database::execute` minus its timed pieces, per statement; may be
    /// negative where the pieces' noise exceeds it.
    pub db_self: Vec<Sample>,
    pub result_bytes: Vec<u64>,
    pub txn_begin: Vec<u64>,
    pub txn_write_stmt: Vec<u64>,
    pub txn_commit: Vec<u64>,
    pub txn_rollback: Vec<u64>,
    /// Relative cost of `query_tracing = 1` over `= 0`, per statement.
    pub tracing_cost: Vec<f64>,
}

pub struct ProbeOut {
    pub samples: Samples,
    pub recorder: Recorder,
    pub ops: usize,
}

struct Probe<'a> {
    db: &'a Database,
    session: Session,
    gate: AdmissionGate,
    prepared: &'static [PreparedSql],
    rec: Recorder,
    path: Path,
    txn: Option<TxnHandle>,
    op_id: u64,
    op_span: SpanId,
    stmts: usize,
    selects: Vec<String>,
    samples: Samples,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as u64)
}

impl Probe<'_> {
    fn span<T>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> (T, u64) {
        self.rec.time(name, parent, self.op_id, f)
    }

    /// A sample of the current op.
    fn sample(&self, ns: u64) -> Sample {
        Sample {
            op: self.samples.op_class.len() as u32,
            ns: ns as i64,
        }
    }

    fn sql_of(&self, req: &Req) -> Result<String, AimError> {
        match req {
            Req::Query(sql) => Ok(sql.clone()),
            Req::Execute { name, params } => bind_params(self.template(name)?, params),
        }
    }

    fn template(&self, name: &str) -> Result<&'static str, AimError> {
        self.prepared
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.sql)
            .ok_or_else(|| AimError::NotFound(format!("prepared statement {name}")))
    }

    /// What the connection handler does with one frame.
    fn server_path(&mut self, req: &Req, stmt: SpanId) -> Result<QueryResult, AimError> {
        let db = self.db;
        let (decoded, decode_ns) = match req {
            Req::Query(sql) => {
                let payload = sql.as_bytes().to_vec();
                self.span("protocol.decode", stmt, || {
                    std::str::from_utf8(&payload).map(|s| (None, s.to_string()))
                })
            }
            Req::Execute { name, params } => {
                let payload = protocol::encode_execute(name, params);
                self.span("protocol.decode", stmt, || {
                    Ok(protocol::decode_execute(&payload)
                        .map(|(name, params)| (Some(params), name))
                        .expect("a frame this program encoded decodes"))
                })
            }
        };
        let (params, text) = decoded.expect("SQL text is UTF-8");

        let admit = self.rec.open("admission.admit", stmt, self.op_id);
        let t0 = Instant::now();
        let permit = self.gate.admit_statement();
        let admit_ns = t0.elapsed().as_nanos() as u64;
        self.rec.close(admit);
        assert!(permit.is_some(), "an idle gate admits");

        let id = self.rec.open("session.dispatch", stmt, self.op_id);
        let t0 = Instant::now();
        let outcome = match &params {
            None => self.session.dispatch(db, &text),
            Some(params) => self.session.execute_prepared(db, &text, params),
        };
        let dispatch_ns = t0.elapsed().as_nanos() as u64;
        self.rec.close(id);
        drop(permit);

        let mut encode_ns = 0;
        if let Ok(result) = &outcome {
            let (bytes, ns) =
                self.span("protocol.encode", stmt, || protocol::encode_result(result));
            encode_ns = ns;
            self.samples.result_bytes.push(bytes.len() as u64);
        }
        let samples = [
            self.sample(decode_ns + encode_ns),
            self.sample(admit_ns),
            self.sample(dispatch_ns),
            self.sample(decode_ns + admit_ns + dispatch_ns + encode_ns),
        ];
        self.samples.codec.push(samples[0]);
        self.samples.admit.push(samples[1]);
        self.samples.dispatch.push(samples[2]);
        self.samples.server_path.push(samples[3]);

        // what dispatch adds around the engine call, timed directly
        let (_, mut self_ns) = self.span("session.self", stmt, || black_box(normalize(&text)));
        if let Req::Execute { name, params } = req {
            let template = self.template(name)?;
            let (_, ns) = timed(|| black_box(bind_params(template, params)));
            self_ns += ns;
        }
        let sample = self.sample(self_ns);
        self.samples.session_self.push(sample);
        outcome
    }

    /// Parse and fingerprint the text; returns the parsed statement.
    fn text_pieces(&mut self, sql: &str, parent: SpanId) -> (Option<Statement>, u64) {
        let (parsed, parse_ns) = self.span("sql.parse", parent, || parse_one(sql));
        // `Database::execute` fingerprints on entry and normalizes again
        // on exit for the statement store
        let (_, fp_ns) = self.span("engine.fingerprint", parent, || {
            black_box(fingerprint(sql));
            black_box(normalize(sql));
        });
        let samples = [self.sample(parse_ns), self.sample(fp_ns)];
        self.samples.parse.push(samples[0]);
        self.samples.fingerprint.push(samples[1]);
        (parsed.ok(), parse_ns + fp_ns)
    }

    /// Plan and run a SELECT on its own; returns the time both took.
    fn select_pieces(&mut self, stmt: &Statement, parent: SpanId) -> u64 {
        let Statement::Select(sel) = stmt else {
            return 0;
        };
        let db = self.db;
        let (plan, plan_ns) = self.span("engine.plan", parent, || db.plan(sel));
        let sample = self.sample(plan_ns);
        self.samples.plan.push(sample);
        let Ok(plan) = plan else {
            return plan_ns;
        };
        let (_, run_ns) = self.span("engine.run_plan", parent, || black_box(db.run_plan(&plan)));
        let sample = self.sample(run_ns);
        self.samples.run_plan.push(sample);
        plan_ns + run_ns
    }

    /// `Database::execute` whole, then each piece of it.
    fn execute_pieces(&mut self, sql: &str, stmt: SpanId) -> Result<QueryResult, AimError> {
        let db = self.db;
        let id = self.rec.open("engine.execute", stmt, self.op_id);
        let (outcome, execute_ns) = timed(|| db.execute(sql));
        self.rec.close(id);
        let (parsed, mut pieces_ns) = self.text_pieces(sql, id);
        if let Some(parsed) = &parsed {
            pieces_ns += self.select_pieces(parsed, id);
        }
        let mut sample = self.sample(execute_ns);
        sample.ns -= pieces_ns as i64;
        self.samples.db_self.push(sample);
        outcome
    }

    /// The engine's transaction API, called as the session calls it.
    fn engine_path(&mut self, sql: &str, stmt: SpanId) -> Result<QueryResult, AimError> {
        let db = self.db;
        let text = |s: &str| Ok(QueryResult::Text(s.into()));
        match (normalize(sql).as_str(), self.txn) {
            ("begin", None) => {
                let (h, ns) = self.span("engine.txn.begin", stmt, || db.begin_txn());
                self.samples.txn_begin.push(ns);
                self.txn = Some(h?);
                text("BEGIN")
            }
            ("commit", Some(h)) => {
                self.txn = None;
                let (r, ns) = self.span("engine.txn.commit", stmt, || db.commit_txn(&h));
                self.samples.txn_commit.push(ns);
                r?;
                text("COMMIT")
            }
            ("rollback", Some(h)) => {
                self.txn = None;
                let (r, ns) = self.span("engine.txn.rollback", stmt, || db.rollback_txn(&h));
                self.samples.txn_rollback.push(ns);
                r?;
                text("ROLLBACK")
            }
            (_, Some(h)) => {
                let id = self.rec.open("engine.txn.stmt", stmt, self.op_id);
                let (outcome, ns) = timed(|| db.execute_in(&h, sql));
                self.rec.close(id);
                let (parsed, _) = self.text_pieces(sql, id);
                match parsed {
                    // a read inside the transaction is planned and run
                    // again outside it, on the committed state
                    Some(s @ Statement::Select(_)) => {
                        self.select_pieces(&s, id);
                    }
                    Some(_) => self.samples.txn_write_stmt.push(ns),
                    None => {}
                }
                outcome
            }
            (_, None) => {
                // an autocommit read: warmed like the read-only path
                let _ = black_box(db.execute(sql));
                self.execute_pieces(sql, stmt)
            }
        }
    }

    /// Re-dispatch sampled SELECTs with the `query_tracing` knob on and
    /// off, alternating which goes first.
    fn tracing_cost(&mut self) -> Result<(), String> {
        let set = |db: &Database, on: i64| {
            db.knobs
                .set("query_tracing", &Value::Int(on))
                .map_err(|e| format!("set query_tracing: {e}"))
        };
        let original = self
            .db
            .knobs
            .get("query_tracing")
            .map_err(|e| format!("get query_tracing: {e}"))?;
        let selects = std::mem::take(&mut self.selects);
        for (i, sql) in selects.iter().enumerate() {
            let mut ns = [0u64; 2];
            for on in [i % 2, 1 - i % 2] {
                set(self.db, on as i64)?;
                let (r, t) = timed(|| self.session.dispatch(self.db, sql));
                r.map_err(|e| format!("tracing probe: {sql}: {e}"))?;
                ns[on] = t;
            }
            if ns[0] > 0 {
                self.samples
                    .tracing_cost
                    .push((ns[1] as f64 - ns[0] as f64) / ns[0] as f64);
            }
        }
        set(self.db, original)?;
        Ok(())
    }
}

impl Conn for Probe<'_> {
    fn stmt(&mut self, req: &Req) -> Result<QueryResult, StmtError> {
        self.stmts += 1;
        let stmt = self.rec.open("stmt", self.op_span, self.op_id);
        let outcome = (|| {
            let sql = self.sql_of(req)?;
            if self.selects.len() < TRACING_SAMPLE && sql.starts_with("SELECT") {
                self.selects.push(sql.clone());
            }
            match self.path {
                Path::Server => self.server_path(req, stmt),
                Path::Engine => self.engine_path(&sql, stmt),
                Path::Full => {
                    // every timed call below re-runs this statement, so
                    // run it once untimed first: otherwise the server
                    // path alone would pay for the cold data
                    let _ = black_box(self.db.execute(&sql));
                    let outcome = self.server_path(req, stmt);
                    self.execute_pieces(&sql, stmt)?;
                    outcome
                }
            }
        })();
        self.rec.close(stmt);
        outcome.map_err(StmtError::Db)
    }

    fn retry(&mut self) {}
}

/// Run the probe pass against a quiesced database (no client is
/// connected), on a generator stream distinct from the two wire clients'.
pub fn run(
    db: &Arc<Database>,
    w: &dyn Workload,
    limits: AdmissionLimits,
    epoch: Instant,
    budget: Duration,
) -> Result<ProbeOut, String> {
    let mut probe = Probe {
        db,
        session: Session::new(0),
        gate: AdmissionGate::new(limits, Arc::new(WallClock::new())),
        prepared: w.prepared(),
        rec: Recorder::new("probe", epoch, SPAN_CAP),
        path: Path::Server,
        txn: None,
        op_id: 0,
        op_span: NO_SPAN,
        stmts: 0,
        selects: Vec::new(),
        samples: Samples::default(),
    };
    for p in w.prepared() {
        probe
            .session
            .prepare(p.name, p.sql)
            .map_err(|e| format!("probe prepare {}: {e}", p.name))?;
    }
    let mut state: Box<dyn ClientState> = w.client(crate::driver::CLIENTS);
    // the oracle's warm-up fetch is not part of the sample: the recorder
    // is still off, and what it sampled is dropped
    state.warm(&mut probe)?;
    probe.samples = Samples::default();
    probe.selects.clear();
    probe.stmts = 0;
    probe.rec.on = true;

    let deadline = Instant::now() + budget;
    let mut ops = 0;
    while probe.stmts < MAX_STMTS && Instant::now() < deadline {
        probe.path = match (w.read_only(), ops % 2) {
            (true, _) => Path::Full,
            (false, 0) => Path::Server,
            (false, _) => Path::Engine,
        };
        probe.op_id += 1;
        probe.op_span = probe.rec.open("op", NO_SPAN, probe.op_id);
        let done = state.next_op(&mut probe)?;
        probe.rec.close(probe.op_span);
        probe.rec.rename(probe.op_span, w.classes()[done.class]);
        if !done.ok {
            return Err(format!(
                "probe: op {ops} ({}) failed with no concurrency",
                w.classes()[done.class]
            ));
        }
        probe.samples.op_class.push(done.class);
        ops += 1;
    }
    if !w.read_only() {
        probe.path = Path::Engine;
        for _ in 0..ABORTED_OPS {
            probe.op_id += 1;
            probe.op_span = probe.rec.open("op", NO_SPAN, probe.op_id);
            state.aborted_op(&mut probe)?;
            probe.rec.close(probe.op_span);
            probe.rec.rename(probe.op_span, "aborted_op");
            probe.samples.op_class.push(usize::MAX);
        }
    }
    probe.tracing_cost()?;
    Ok(ProbeOut {
        samples: probe.samples,
        recorder: probe.rec,
        ops,
    })
}
