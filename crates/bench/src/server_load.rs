//! Open-loop load generator for the TCP serving layer and the
//! `BENCH_server.json` emission behind it.
//!
//! Three phases, each against a freshly seeded database:
//!
//! - **Conformance** — a seeded statement stream (point reads,
//!   aggregates, multi-statement payment transactions, session `SET`s
//!   and prepared statements) runs once over the wire and once through
//!   an in-process [`aimdb_server::Session`] on an identically-seeded
//!   database. Every wire reply must be **byte-identical** to the
//!   locally encoded result, and every engine error must map to the
//!   same category.
//! - **Sustain** — N concurrent connections (≥1000 in full mode) are
//!   held open simultaneously (checked against the server's own session
//!   gate) while each drives a Zipfian TPC-C payment/read mix over the
//!   wire. Client-side latencies feed a log-linear histogram; the
//!   TPC-C invariants are re-checked afterwards.
//! - **Overload** — the same offered load runs twice: once against an
//!   effectively unbounded gate (the collapse baseline) and once
//!   against a 2-slot gate with a 1 ms queue, both set through the
//!   knobs. The gated run must shed (reject rate > 0) while its p99
//!   stays bounded.
//!
//! Schema (`schema_version` 2):
//!
//! ```text
//! {
//!   "schema_version": 2, "suite": "server", "mode": "smoke"|"full", "seed": N,
//!   "conformance": {"statements": N, "prepared": N, "errors_matched": N,
//!                   "byte_identical": true},
//!   "sustain": {"connections": N, "peak_sessions": N, "committed": N,
//!               "aborted": N, "conflicts": N, "sheds": N,
//!               "txns_per_sec": f, "p50_ms": f, "p95_ms": f, "p99_ms": f,
//!               "invariant_checks": N},
//!   "overload": {"offered": N, "reject_rate": f,
//!                "baseline": {"ok": N, "shed": N, "p50_ms": f, "p99_ms": f},
//!                "gated": {"ok": N, "shed": N, "p50_ms": f, "p99_ms": f}}
//! }
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, PoisonError};

use aimdb_common::json::Json;
use aimdb_common::{Clock, Value, WallClock};
use aimdb_engine::Database;
use aimdb_server::{protocol, Client, Outcome, Server, ServerConfig, Session};
use aimdb_trace::MetricsRegistry;
use rand::{Rng, SeedableRng, StdRng};

use crate::tpcc::{self, TpccScale, Zipf, ORDER_STRIDE};

/// Histogram names in the phase-local registries (milliseconds — the
/// log-linear histogram underflows below 1.0, see [`tpcc::TXN_LATENCY`]).
const SUSTAIN_LATENCY: &str = "server_sustain_txn_latency_ms";
const OVERLOAD_LATENCY: &str = "server_overload_stmt_latency_ms";

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Load-generator shape: `smoke` keeps CI fast, `full` holds ≥1000
/// concurrent connections (the PR's acceptance floor).
#[derive(Debug, Clone)]
pub struct LoadConfig {
    pub smoke: bool,
    pub seed: u64,
    /// Concurrent connections in the sustain phase.
    pub connections: usize,
    /// Wire transactions per connection in the sustain phase.
    pub txns_per_conn: usize,
    pub zipf_theta: f64,
}

impl LoadConfig {
    pub fn smoke(seed: u64) -> LoadConfig {
        LoadConfig {
            smoke: true,
            seed,
            connections: 64,
            txns_per_conn: 6,
            zipf_theta: 0.4,
        }
    }

    pub fn full(seed: u64) -> LoadConfig {
        LoadConfig {
            smoke: false,
            seed,
            connections: 1000,
            txns_per_conn: 8,
            zipf_theta: 0.4,
        }
    }
}

// ------------------------------------------------------------ conformance

#[derive(Debug, Clone)]
pub struct ConformanceStats {
    pub statements: u64,
    pub prepared: u64,
    pub errors_matched: u64,
}

/// One statement of the seeded conformance stream.
enum Step {
    Sql(String),
    Prepared { sql: String, params: Vec<Value> },
}

/// Seeded statement stream over the TPC-C smoke schema: reads,
/// aggregates, payment transactions, knob SET/SHOW and deliberate
/// errors, all deterministic in `seed`.
fn conformance_stream(scale: &TpccScale, seed: u64, n: usize) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DE_CAFE);
    let mut steps = Vec::with_capacity(n * 2);
    for _ in 0..n {
        let dk = rng.gen_range(0..scale.districts());
        let w = dk / scale.districts_per_wh;
        let ck = scale.c_key(dk, rng.gen_range(0..scale.customers_per_district));
        match rng.gen_range(0u32..100) {
            0..=29 => steps.push(Step::Sql(format!(
                "SELECT d_next_o_id, d_ytd FROM district WHERE d_key = {dk}"
            ))),
            30..=44 => steps.push(Step::Sql(format!(
                "SELECT COUNT(*), SUM(ol_amount) FROM order_line \
                 WHERE ol_o_key >= {} AND ol_o_key < {}",
                dk * ORDER_STRIDE,
                (dk + 1) * ORDER_STRIDE
            ))),
            45..=59 => {
                // a full payment transaction, statement by statement
                let amount = rng.gen_range(1i64..5000);
                steps.push(Step::Sql("BEGIN".into()));
                steps.push(Step::Sql(format!(
                    "UPDATE warehouse SET w_ytd = w_ytd + {amount} WHERE w_id = {w}"
                )));
                steps.push(Step::Sql(format!(
                    "UPDATE district SET d_ytd = d_ytd + {amount} WHERE d_key = {dk}"
                )));
                steps.push(Step::Sql(format!(
                    "UPDATE customer SET c_balance = c_balance - {amount}, \
                     c_ytd_payment = c_ytd_payment + {amount}, \
                     c_payment_cnt = c_payment_cnt + 1 WHERE c_key = {ck}"
                )));
                steps.push(Step::Sql(
                    if rng.gen_range(0u32..10) == 0 {
                        "ROLLBACK"
                    } else {
                        "COMMIT"
                    }
                    .into(),
                ));
            }
            60..=69 => steps.push(Step::Prepared {
                sql: "SELECT c_balance, c_payment_cnt FROM customer WHERE c_key = ?".into(),
                params: vec![Value::Int(ck)],
            }),
            70..=79 => steps.push(Step::Prepared {
                sql: "SELECT COUNT(*) FROM stock WHERE s_w = ? AND s_quantity < ?".into(),
                params: vec![Value::Int(w), Value::Int(rng.gen_range(10i64..80))],
            }),
            80..=89 => {
                let v = rng.gen_range(64i64..8192);
                steps.push(Step::Sql(format!("SET work_mem_kb = {v}")));
                steps.push(Step::Sql("SHOW work_mem_kb".into()));
            }
            _ => steps.push(Step::Sql(format!(
                "SELECT nope FROM missing_table WHERE x = {dk}"
            ))),
        }
    }
    steps
}

/// Run the stream over the wire and through an in-process session on an
/// identically-seeded database; fail on the first byte or error-category
/// divergence.
pub fn conformance(seed: u64, statements: usize) -> Result<ConformanceStats, String> {
    let scale = TpccScale::smoke();
    let wire_db = Database::new();
    tpcc::load(&wire_db, &scale, seed).map_err(|e| format!("conformance load (wire): {e}"))?;
    let local_db = Database::new();
    tpcc::load(&local_db, &scale, seed).map_err(|e| format!("conformance load (local): {e}"))?;

    let wire_db = Arc::new(wire_db);
    let server = Server::start(Arc::clone(&wire_db), ServerConfig::default())
        .map_err(|e| format!("conformance server start: {e}"))?;
    let mut client =
        Client::connect(server.local_addr()).map_err(|e| format!("conformance connect: {e}"))?;
    let mut local = Session::new(1);

    let mut stats = ConformanceStats {
        statements: 0,
        prepared: 0,
        errors_matched: 0,
    };
    let mut next_name = 0u64;
    for step in conformance_stream(&scale, seed, statements) {
        stats.statements += 1;
        let (wire, local_res, what) = match step {
            Step::Sql(sql) => {
                let wire = client.query(&sql).map_err(|e| (sql.clone(), e));
                (wire, local.dispatch(&local_db, &sql), sql)
            }
            Step::Prepared { sql, params } => {
                stats.prepared += 1;
                let name = format!("p{next_name}");
                next_name += 1;
                client
                    .parse(&name, &sql)
                    .map_err(|e| format!("parse {name}: {e}"))?;
                local
                    .prepare(&name, &sql)
                    .map_err(|e| format!("local prepare {name}: {e}"))?;
                let wire = client.execute(&name, &params).map_err(|e| (sql.clone(), e));
                (wire, local.execute_prepared(&local_db, &name, &params), sql)
            }
        };
        match (wire, local_res) {
            (Ok(Outcome::Ok(_, wire_bytes)), Ok(local_r)) => {
                let local_bytes = protocol::encode_result(&local_r);
                if wire_bytes != local_bytes {
                    return Err(format!(
                        "conformance: wire bytes diverged from in-process on `{what}` \
                         ({} vs {} bytes)",
                        wire_bytes.len(),
                        local_bytes.len()
                    ));
                }
            }
            (Ok(Outcome::Shed(r)), _) => {
                return Err(format!("conformance: unexpected shed on `{what}`: {r}"));
            }
            (Err((sql, we)), Err(le)) => {
                if we.category() != le.category() {
                    return Err(format!(
                        "conformance: error category diverged on `{sql}`: \
                         wire {} vs local {}",
                        we.category(),
                        le.category()
                    ));
                }
                stats.errors_matched += 1;
            }
            (Ok(_), Err(le)) => {
                return Err(format!("conformance: only local errored on `{what}`: {le}"));
            }
            (Err((sql, we)), Ok(_)) => {
                return Err(format!("conformance: only wire errored on `{sql}`: {we}"));
            }
        }
    }
    client
        .close()
        .map_err(|e| format!("conformance close: {e}"))?;
    server
        .shutdown()
        .map_err(|e| format!("conformance shutdown: {e}"))?;
    Ok(stats)
}

// ---------------------------------------------------------------- sustain

#[derive(Debug, Clone)]
pub struct SustainStats {
    pub connections: usize,
    /// Sessions the server's own gate saw open at the synchronization
    /// point — must equal `connections`.
    pub peak_sessions: u64,
    pub committed: u64,
    pub aborted: u64,
    pub conflicts: u64,
    pub sheds: u64,
    pub txns_per_sec: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    pub invariant_checks: u64,
}

/// One wire payment with client-side retry; returns
/// `(committed, conflicts)` or an error string for non-retryable faults.
/// Also reused by `macro_bench`'s server crash life, where a
/// non-retryable error is the expected signal that the scripted storage
/// crash fired under the server.
pub fn wire_payment(
    c: &mut Client,
    scale: &TpccScale,
    rng: &mut StdRng,
    zipf: &Zipf,
    max_retries: usize,
) -> Result<(bool, u64), String> {
    let dk = zipf.sample(rng) as i64;
    let w = dk / scale.districts_per_wh;
    let ck = scale.c_key(dk, rng.gen_range(0..scale.customers_per_district));
    let amount = rng.gen_range(1i64..5000);
    let mut conflicts = 0u64;
    for _ in 0..=max_retries {
        let mut attempt = || -> Result<(), aimdb_common::AimError> {
            c.query_ok("BEGIN")?;
            c.query_ok(&format!(
                "UPDATE warehouse SET w_ytd = w_ytd + {amount} WHERE w_id = {w}"
            ))?;
            c.query_ok(&format!(
                "UPDATE district SET d_ytd = d_ytd + {amount} WHERE d_key = {dk}"
            ))?;
            c.query_ok(&format!(
                "UPDATE customer SET c_balance = c_balance - {amount}, \
                 c_ytd_payment = c_ytd_payment + {amount}, \
                 c_payment_cnt = c_payment_cnt + 1 WHERE c_key = {ck}"
            ))?;
            c.query_ok("COMMIT")?;
            Ok(())
        };
        match attempt() {
            Ok(()) => return Ok((true, conflicts)),
            Err(e) if e.is_retryable() => {
                conflicts += 1;
                // the failed statement aborted the txn server-side; clear
                // any session state before retrying
                let _ = c.query("ROLLBACK");
            }
            Err(e) => return Err(format!("payment: {e}")),
        }
    }
    Ok((false, conflicts))
}

/// Hold `cfg.connections` sessions open simultaneously and drive the
/// Zipfian payment/read mix through all of them.
pub fn sustain(cfg: &LoadConfig) -> Result<SustainStats, String> {
    let scale = if cfg.smoke {
        TpccScale::smoke()
    } else {
        TpccScale::standard(2)
    };
    let db = Database::new();
    tpcc::load(&db, &scale, cfg.seed).map_err(|e| format!("sustain load: {e}"))?;
    let conns = cfg.connections;
    db.knobs
        .set("max_connections", &Value::Int((conns + 16) as i64))
        .map_err(|e| format!("sustain knob: {e}"))?;
    db.knobs
        .set("admission_max_statements", &Value::Int(2048))
        .map_err(|e| format!("sustain knob: {e}"))?;
    db.knobs
        .set("admission_queue_timeout_ms", &Value::Int(10_000))
        .map_err(|e| format!("sustain knob: {e}"))?;

    let db = Arc::new(db);
    let server = Server::start(Arc::clone(&db), ServerConfig::default())
        .map_err(|e| format!("sustain server start: {e}"))?;
    let addr = server.local_addr();

    let registry = MetricsRegistry::new();
    let clock = WallClock::new();
    // two rendezvous: all connections open → main samples the session
    // gate → everyone starts the measured mix together
    let connected = Arc::new(Barrier::new(conns + 1));
    let start = Arc::new(Barrier::new(conns + 1));
    let committed = AtomicU64::new(0);
    let aborted = AtomicU64::new(0);
    let conflicts = AtomicU64::new(0);
    let sheds = AtomicU64::new(0);
    let peak = AtomicU64::new(0);
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());

    let mut t0 = 0.0f64;
    std::thread::scope(|s| {
        for t in 0..conns {
            let connected_w = Arc::clone(&connected);
            let start_w = Arc::clone(&start);
            let scale = &scale;
            let registry = &registry;
            let clock = &clock;
            let committed = &committed;
            let aborted = &aborted;
            let conflicts = &conflicts;
            let sheds = &sheds;
            let errors = &errors;
            // ~1000 client threads in full mode: a small stack keeps the
            // load generator itself cheap
            let builder = std::thread::Builder::new()
                .name(format!("load-{t}"))
                .stack_size(256 * 1024);
            let spawned = builder.spawn_scoped(s, move || {
                let mut c = match Client::connect(addr) {
                    Ok(c) => c,
                    Err(e) => {
                        lock(errors).push(format!("conn {t}: connect: {e}"));
                        connected_w.wait();
                        start_w.wait();
                        return;
                    }
                };
                connected_w.wait();
                start_w.wait();
                let mut rng = StdRng::seed_from_u64(cfg.seed ^ (0x5EED + t as u64 * 0x9E3779B9));
                let zipf = Zipf::new(scale.districts() as usize, cfg.zipf_theta);
                for _ in 0..cfg.txns_per_conn {
                    let begin = clock.now_secs();
                    let run = if rng.gen_range(0u32..100) < 35 {
                        wire_payment(&mut c, scale, &mut rng, &zipf, 4)
                    } else {
                        // OrderStatus/StockLevel-style single-statement reads
                        let dk = zipf.sample(&mut rng) as i64;
                        let sql = if rng.gen_range(0u32..2) == 0 {
                            format!("SELECT MAX(o_id) FROM orders WHERE o_d_key = {dk}")
                        } else {
                            format!(
                                "SELECT COUNT(*) FROM stock WHERE s_w = {} AND s_quantity < {}",
                                dk / scale.districts_per_wh,
                                rng.gen_range(10i64..80)
                            )
                        };
                        match c.query(&sql) {
                            Ok(Outcome::Ok(..)) => Ok((true, 0)),
                            Ok(Outcome::Shed(_)) => {
                                // ordering: Relaxed — statistics counter
                                sheds.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                            Err(e) => Err(format!("read: {e}")),
                        }
                    };
                    match run {
                        Ok((ok, c_retries)) => {
                            // ordering: Relaxed — statistics counters
                            conflicts.fetch_add(c_retries, Ordering::Relaxed);
                            if ok {
                                registry.observe(SUSTAIN_LATENCY, (clock.now_secs() - begin) * 1e3);
                                // ordering: Relaxed — statistics counter
                                committed.fetch_add(1, Ordering::Relaxed);
                            } else {
                                // ordering: Relaxed — statistics counter
                                aborted.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(e) => {
                            lock(errors).push(format!("conn {t}: {e}"));
                            return;
                        }
                    }
                }
                let _ = c.close();
            });
            if let Err(e) = spawned {
                lock(errors).push(format!("conn {t}: spawn: {e}"));
                connected.wait();
                start.wait();
            }
        }
        connected.wait();
        // every worker holds its connection open right now: the server's
        // own admission gate must agree
        // ordering: Relaxed — published to the main thread by scope join
        peak.store(
            server.admission_stats().sessions_open as u64,
            Ordering::Relaxed,
        );
        t0 = clock.now_secs();
        start.wait();
    });
    let elapsed = (clock.now_secs() - t0).max(1e-9);

    let errs = errors.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some(e) = errs.into_iter().next() {
        return Err(format!("sustain: {e}"));
    }
    tpcc::check_invariants(&db, &scale).map_err(|e| format!("sustain invariants: {e}"))?;
    server
        .shutdown()
        .map_err(|e| format!("sustain shutdown: {e}"))?;

    let committed = committed.into_inner();
    Ok(SustainStats {
        connections: conns,
        peak_sessions: peak.into_inner(),
        committed,
        aborted: aborted.into_inner(),
        conflicts: conflicts.into_inner(),
        sheds: sheds.into_inner(),
        txns_per_sec: committed as f64 / elapsed,
        p50_ms: registry.quantile(SUSTAIN_LATENCY, 0.5),
        p95_ms: registry.quantile(SUSTAIN_LATENCY, 0.95),
        p99_ms: registry.quantile(SUSTAIN_LATENCY, 0.99),
        invariant_checks: 1,
    })
}

// ---------------------------------------------------------------- overload

/// One measured overload round (baseline or gated).
#[derive(Debug, Clone)]
pub struct OverloadRun {
    pub ok: u64,
    pub shed: u64,
    pub p50_ms: f64,
    pub p99_ms: f64,
}

#[derive(Debug, Clone)]
pub struct OverloadStats {
    /// Statements offered per round (identical for both rounds).
    pub offered: u64,
    /// Unbounded gate: the collapse baseline.
    pub baseline: OverloadRun,
    /// 2-slot gate with a 1 ms queue: must shed with bounded p99.
    pub gated: OverloadRun,
    pub reject_rate: f64,
}

/// Drive `workers × per_worker` identical heavy aggregates through a
/// fresh server over `db`, verifying every successful answer against
/// `expected`; the gate is whatever the knobs on `db` say.
fn overload_round(
    db: &Arc<Database>,
    workers: usize,
    per_worker: usize,
    sql: &str,
    expected: &Value,
) -> Result<OverloadRun, String> {
    let server = Server::start(Arc::clone(db), ServerConfig::default())
        .map_err(|e| format!("overload server start: {e}"))?;
    let addr = server.local_addr();
    let registry = MetricsRegistry::new();
    let clock = WallClock::new();
    let ok = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());

    std::thread::scope(|s| {
        for t in 0..workers {
            let registry = &registry;
            let clock = &clock;
            let ok = &ok;
            let shed = &shed;
            let errors = &errors;
            s.spawn(move || {
                let mut c = match Client::connect(addr) {
                    Ok(c) => c,
                    Err(e) => {
                        lock(errors).push(format!("worker {t}: connect: {e}"));
                        return;
                    }
                };
                for _ in 0..per_worker {
                    let begin = clock.now_secs();
                    match c.query(sql) {
                        Ok(Outcome::Ok(r, _)) => {
                            if r.rows().first().map(|row| &row.values()[0]) != Some(expected) {
                                lock(errors).push(format!("worker {t}: wrong answer under load"));
                                return;
                            }
                            registry.observe(OVERLOAD_LATENCY, (clock.now_secs() - begin) * 1e3);
                            // ordering: Relaxed — statistics counter
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(Outcome::Shed(_)) => {
                            // ordering: Relaxed — statistics counter
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            lock(errors).push(format!("worker {t}: {e}"));
                            return;
                        }
                    }
                }
                let _ = c.close();
            });
        }
    });
    let errs = errors.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some(e) = errs.into_iter().next() {
        return Err(format!("overload: {e}"));
    }
    server
        .shutdown()
        .map_err(|e| format!("overload shutdown: {e}"))?;
    Ok(OverloadRun {
        ok: ok.into_inner(),
        shed: shed.into_inner(),
        p50_ms: registry.quantile(OVERLOAD_LATENCY, 0.5),
        p99_ms: registry.quantile(OVERLOAD_LATENCY, 0.99),
    })
}

/// Same offered load against an unbounded gate (collapse baseline) and
/// a 2-slot gate; the gated run must shed.
pub fn overload(cfg: &LoadConfig) -> Result<OverloadStats, String> {
    let rows: i64 = if cfg.smoke { 5_000 } else { 40_000 };
    let db = Database::new();
    db.execute("CREATE TABLE big (a INT, b INT)")
        .map_err(|e| format!("overload ddl: {e}"))?;
    let batch: Vec<Vec<Value>> = (0..rows)
        .map(|i| vec![Value::Int(i), Value::Int(i * 7 % 1000)])
        .collect();
    db.insert_rows("big", batch)
        .map_err(|e| format!("overload seed: {e}"))?;
    let sql = "SELECT SUM(b) FROM big WHERE a >= 0";
    let expected = db
        .execute(sql)
        .map_err(|e| format!("overload expected: {e}"))?
        .rows()[0]
        .values()[0]
        .clone();
    let workers = if cfg.smoke { 8 } else { 24 };
    let per_worker = if cfg.smoke { 10 } else { 40 };
    db.knobs
        .set("max_connections", &Value::Int((workers + 8) as i64))
        .map_err(|e| format!("overload knob: {e}"))?;

    // Round 1 — effectively unbounded gate: the baseline.
    db.knobs
        .set("admission_max_statements", &Value::Int(4096))
        .map_err(|e| format!("overload knob: {e}"))?;
    let db = Arc::new(db);
    let baseline = overload_round(&db, workers, per_worker, sql, &expected)?;

    // Round 2 — 2-slot gate, 1 ms queue: must shed while keeping the
    // successes' tail bounded.
    db.knobs
        .set("admission_max_statements", &Value::Int(2))
        .map_err(|e| format!("overload knob: {e}"))?;
    db.knobs
        .set("admission_queue_timeout_ms", &Value::Int(1))
        .map_err(|e| format!("overload knob: {e}"))?;
    let gated = overload_round(&db, workers, per_worker, sql, &expected)?;

    if gated.shed == 0 {
        return Err("overload: the tiny gate never shed a statement".into());
    }
    if gated.ok == 0 {
        return Err("overload: the gate starved every statement".into());
    }
    let offered = (workers * per_worker) as u64;
    Ok(OverloadStats {
        offered,
        reject_rate: gated.shed as f64 / (gated.ok + gated.shed) as f64,
        baseline,
        gated,
    })
}

// ----------------------------------------------------------------- report

/// The whole `BENCH_server.json` payload.
#[derive(Debug, Clone)]
pub struct ServerLoadReport {
    pub mode: &'static str,
    pub seed: u64,
    pub conformance: ConformanceStats,
    pub sustain: SustainStats,
    pub overload: OverloadStats,
}

impl ServerLoadReport {
    pub fn to_json(&self) -> Json {
        let run = |r: &OverloadRun| {
            Json::obj(vec![
                ("ok", Json::Num(r.ok as f64)),
                ("shed", Json::Num(r.shed as f64)),
                ("p50_ms", Json::Num(round3(r.p50_ms))),
                ("p99_ms", Json::Num(round3(r.p99_ms))),
            ])
        };
        Json::obj(vec![
            ("schema_version", Json::Num(2.0)),
            ("suite", Json::Str("server".into())),
            ("mode", Json::Str(self.mode.into())),
            ("seed", Json::Num(self.seed as f64)),
            (
                "conformance",
                Json::obj(vec![
                    ("statements", Json::Num(self.conformance.statements as f64)),
                    ("prepared", Json::Num(self.conformance.prepared as f64)),
                    (
                        "errors_matched",
                        Json::Num(self.conformance.errors_matched as f64),
                    ),
                    ("byte_identical", Json::Bool(true)),
                ]),
            ),
            (
                "sustain",
                Json::obj(vec![
                    ("connections", Json::Num(self.sustain.connections as f64)),
                    (
                        "peak_sessions",
                        Json::Num(self.sustain.peak_sessions as f64),
                    ),
                    ("committed", Json::Num(self.sustain.committed as f64)),
                    ("aborted", Json::Num(self.sustain.aborted as f64)),
                    ("conflicts", Json::Num(self.sustain.conflicts as f64)),
                    ("sheds", Json::Num(self.sustain.sheds as f64)),
                    ("txns_per_sec", Json::Num(round3(self.sustain.txns_per_sec))),
                    ("p50_ms", Json::Num(round3(self.sustain.p50_ms))),
                    ("p95_ms", Json::Num(round3(self.sustain.p95_ms))),
                    ("p99_ms", Json::Num(round3(self.sustain.p99_ms))),
                    (
                        "invariant_checks",
                        Json::Num(self.sustain.invariant_checks as f64),
                    ),
                ]),
            ),
            (
                "overload",
                Json::obj(vec![
                    ("offered", Json::Num(self.overload.offered as f64)),
                    ("baseline", run(&self.overload.baseline)),
                    ("gated", run(&self.overload.gated)),
                    ("reject_rate", Json::Num(round3(self.overload.reject_rate))),
                ]),
            ),
        ])
    }

    pub fn write(&self, path: &str) -> Result<(), String> {
        let text = self.to_json().to_string_pretty() + "\n";
        std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))
    }
}

fn round3(v: f64) -> f64 {
    if v.is_finite() {
        (v * 1e3).round() / 1e3
    } else {
        0.0
    }
}
