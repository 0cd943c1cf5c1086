//! TPC-style macro benchmark: seeded OLTP + analytics through the full
//! stack, with mid-run crash→recover lives and a standing perf
//! trajectory (`BENCH_macro.json`).
//!
//! **OLTP phase** — per writer-thread count (1/2/4/8): bulk-load the
//! TPC-C-like database through a [`FaultInjector`], then run crash
//! lives: arm a scripted mid-run crash (with a torn WAL tail and a
//! transient I/O error), drive the transaction mix until the store
//! dies, recover from the surviving disk, and verify the TPC-C
//! consistency invariants on the recovered state. After the lives, a
//! clean measured run on the raw disk records throughput, p50/p95/p99
//! latency (log-linear histograms), fsyncs/commit and abort rate.
//!
//! **Analytics phase** — load the star schema, ANALYZE, and run the
//! 12-query family at 1/2/4/8 workers; results must be identical across
//! worker counts and the per-query times join the trajectory.
//!
//! ```text
//! macro_bench                # full run (~20+ crash lives, standard scale)
//! macro_bench --smoke        # CI gate: tiny scale, 1 crash life
//! macro_bench --seed S --sf N --lives L --theta T --out PATH
//! ```
//!
//! Exits nonzero on any invariant violation, cross-worker result
//! mismatch, or (full mode) if the scripted crashes stopped firing.

use std::sync::Arc;

use aimdb_bench::macro_report::{MacroReport, OltpRun, ServerLife};
use aimdb_bench::server_load::wire_payment;
use aimdb_bench::{tpcc, tpch};
use aimdb_common::wait;
use aimdb_engine::Database;
use aimdb_server::{Client, Server, ServerConfig};
use aimdb_storage::{Disk, FaultInjector, FaultPlan, PageStore, TornMode};
use aimdb_trace::{FlightKind, MetricsRegistry};
use rand::{Rng, SeedableRng, StdRng};

/// Post-mortem flight-recorder snapshot, written by the injector crash
/// hook at the instant each scripted crash fires (CI uploads it).
const FLIGHT_DUMP: &str = "BENCH_macro_flight.json";

/// Same post-mortem for the server crash life: the storage dies under a
/// live TCP server while wire clients are mid-transaction.
const SERVER_FLIGHT_DUMP: &str = "BENCH_macro_server_flight.json";

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct Args {
    smoke: bool,
    seed: u64,
    sf: i64,
    /// Crash lives per writer-thread count (full mode).
    lives: u64,
    zipf_theta: f64,
    /// Group-commit window (µs) for the OLTP phase — sweep it to see
    /// the wait-class mix shift between `wal_fsync` (leader) and
    /// `group_commit_follower` (followers parked in the window).
    gcw_us: i64,
    out: String,
}

fn usage() -> ! {
    eprintln!(
        "macro_bench [--smoke] [--seed S] [--sf N] [--lives L] [--theta T] [--gcw US] [--out PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut out = Args {
        smoke: false,
        seed: 42,
        sf: 1,
        lives: 5,
        zipf_theta: 0.8,
        gcw_us: 150,
        out: "BENCH_macro.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => out.smoke = true,
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => out.seed = n,
                None => usage(),
            },
            "--sf" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => out.sf = n,
                None => usage(),
            },
            "--lives" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => out.lives = n,
                None => usage(),
            },
            "--theta" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => out.zipf_theta = n,
                None => usage(),
            },
            "--gcw" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => out.gcw_us = n,
                None => usage(),
            },
            "--out" => match args.next() {
                Some(p) => out.out = p,
                None => usage(),
            },
            _ => usage(),
        }
    }
    out
}

fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1);
}

/// One crash life: arm the injector, run the mix until the store dies
/// (or the budget runs out), recover from the surviving disk through a
/// fresh unarmed injector, and verify the consistency invariants on the
/// recovered state. Returns the new database + injector and whether the
/// scripted crash actually fired.
#[allow(clippy::too_many_arguments)]
fn crash_life(
    db: Database,
    inj: Arc<FaultInjector>,
    disk: &Arc<Disk>,
    scale: &tpcc::TpccScale,
    cfg: &tpcc::OltpConfig,
    registry: &MetricsRegistry,
    rng: &mut StdRng,
) -> (Database, Arc<FaultInjector>, bool) {
    let torn = match rng.gen_range(0u32..3) {
        0 => TornMode::DropAll,
        1 => TornMode::Prefix,
        _ => TornMode::CorruptLast,
    };
    // Group commit merges many commits per store-level append, so the
    // crash point must sit well inside the life's expected op count
    // (~one append per commit batch) or it never fires.
    let budget = (cfg.threads * cfg.txns_per_thread) as u64;
    let crash_at = rng.gen_range(10u64..(budget / 3).max(20));
    let transient = rng.gen_range(3u64..crash_at.max(4));
    inj.arm(
        FaultPlan::crash_after(crash_at)
            .with_torn_tail(torn)
            .with_io_error_at(vec![transient]),
    );
    // Every crash life ships a post-mortem: the hook runs at the exact
    // store operation where the scripted crash fires, while the dying
    // database's flight recorder still holds the final events.
    let flight = db.flight_recorder();
    inj.set_crash_hook(move || {
        flight.record(FlightKind::FaultInjected, 0, 0, 0);
        let dump = flight.dump_json("fault_injector_crash").to_string_pretty();
        let _ = std::fs::write(FLIGHT_DUMP, dump + "\n");
    });
    let stats = match tpcc::run_mix(&db, scale, cfg, Some(&inj), registry) {
        Ok(s) => s,
        Err(e) => fail(&format!("crash-life mix: {e}")),
    };
    drop(db);
    // Recovery reopens the surviving raw disk through a fresh, unarmed
    // injector so the next life can arm its own crash.
    let inj2 = Arc::new(FaultInjector::new(Arc::clone(disk), FaultPlan::default()));
    let store: Arc<dyn PageStore> = inj2.clone();
    let (rdb, _report) = match Database::recover(store) {
        Ok(x) => x,
        Err(e) => fail(&format!("recovery after crash life: {e}")),
    };
    if let Err(e) = tpcc::check_invariants(&rdb, scale) {
        fail(&format!("invariants violated on recovered state: {e}"));
    }
    (rdb, inj2, stats.crashed)
}

fn oltp_phase(args: &Args) -> (tpcc::TpccScale, Vec<OltpRun>) {
    let scale = if args.smoke {
        tpcc::TpccScale::smoke()
    } else {
        tpcc::TpccScale::standard(args.sf)
    };
    println!(
        "macro_bench: OLTP phase — ~{} rows, zipf theta {}, threads {THREAD_COUNTS:?}",
        scale.approx_rows(),
        args.zipf_theta
    );
    let mut runs = Vec::new();
    for tc in THREAD_COUNTS {
        // Smoke keeps CI fast: crash lives only at 2 threads (1 life);
        // every thread count still gets a measured clean run + oracle.
        let lives = if args.smoke {
            if tc == 2 {
                1
            } else {
                0
            }
        } else {
            args.lives
        };
        let crash_txns = if args.smoke { 60 } else { 400 };
        let measured_txns = if args.smoke { 30 } else { 250 };

        let disk = Arc::new(Disk::new());
        let mut inj = Arc::new(FaultInjector::new(Arc::clone(&disk), FaultPlan::default()));
        let store: Arc<dyn PageStore> = inj.clone();
        let mut db = Database::with_store(store);
        if let Err(e) = tpcc::load(&db, &scale, args.seed) {
            fail(&format!("tpcc load: {e}"));
        }
        if let Err(e) = db.execute(&format!("SET group_commit_window = {}", args.gcw_us)) {
            fail(&format!("set group_commit_window: {e}"));
        }
        if let Err(e) = db.checkpoint_now() {
            fail(&format!("post-load checkpoint: {e}"));
        }
        if let Err(e) = tpcc::check_invariants(&db, &scale) {
            fail(&format!("invariants violated after load: {e}"));
        }

        let mut rng = StdRng::seed_from_u64(args.seed ^ (tc as u64).wrapping_mul(0x5851_F42D));
        let crash_registry = MetricsRegistry::new();
        let crash_cfg = tpcc::OltpConfig {
            threads: tc,
            txns_per_thread: crash_txns,
            zipf_theta: args.zipf_theta,
            seed: args.seed.wrapping_mul(31).wrapping_add(tc as u64),
            max_retries: 4,
        };
        let mut crashes = 0u64;
        let mut checks = 0u64;
        for life in 0..lives {
            let cfg = tpcc::OltpConfig {
                seed: crash_cfg.seed.wrapping_add(life * 0x9E37),
                ..crash_cfg.clone()
            };
            let (db2, inj2, crashed) =
                crash_life(db, inj, &disk, &scale, &cfg, &crash_registry, &mut rng);
            db = db2;
            inj = inj2;
            checks += 1;
            if crashed {
                crashes += 1;
                // the crash hook must have left a parseable post-mortem
                match std::fs::read_to_string(FLIGHT_DUMP) {
                    Ok(text) => {
                        if let Err(e) = aimdb_common::json::Json::parse(&text) {
                            fail(&format!("flight dump unparseable: {e}"));
                        }
                    }
                    Err(e) => fail(&format!("crash fired but no flight dump: {e}")),
                }
            }
        }
        if lives > 0 && crashes < lives.div_ceil(2) {
            fail(&format!(
                "{tc} threads: only {crashes}/{lives} armed lives crashed — crash-point budget drifted"
            ));
        }

        // Measured clean run on the raw disk (no injector in the path).
        drop(db);
        drop(inj);
        let (mdb, _report) = match Database::recover(Arc::clone(&disk) as Arc<dyn PageStore>) {
            Ok(x) => x,
            Err(e) => fail(&format!("{tc} threads: pre-measure recovery: {e}")),
        };
        if let Err(e) = mdb.execute(&format!("SET group_commit_window = {}", args.gcw_us)) {
            fail(&format!("set group_commit_window: {e}"));
        }
        let registry = MetricsRegistry::new();
        let waits0 = wait::global_totals();
        let fsyncs0 = mdb.wal_flush_count();
        let measured_cfg = tpcc::OltpConfig {
            threads: tc,
            txns_per_thread: measured_txns,
            zipf_theta: args.zipf_theta,
            seed: args.seed.wrapping_mul(77).wrapping_add(tc as u64),
            max_retries: 4,
        };
        let stats = match tpcc::run_mix(&mdb, &scale, &measured_cfg, None, &registry) {
            Ok(s) => s,
            Err(e) => fail(&format!("{tc} threads: measured mix: {e}")),
        };
        if let Err(e) = tpcc::check_invariants(&mdb, &scale) {
            fail(&format!("{tc} threads: invariants after measured run: {e}"));
        }
        checks += 1;
        let fsyncs = mdb.wal_flush_count() - fsyncs0;
        let attempts = stats.committed + stats.aborted;
        let waits = wait::global_totals().delta_since(&waits0);
        let wait_profile: Vec<(String, u64, u64)> = waits
            .entries()
            .into_iter()
            .map(|(class, ns, events)| (class.to_string(), ns, events))
            .collect();
        let run = OltpRun {
            threads: tc,
            committed: stats.committed,
            aborted: stats.aborted,
            conflicts: stats.conflicts,
            txns_per_sec: stats.committed as f64 / stats.elapsed_secs.max(1e-9),
            p50_ms: stats.p50_ms,
            p95_ms: stats.p95_ms,
            p99_ms: stats.p99_ms,
            fsyncs_per_commit: fsyncs as f64 / (stats.committed as f64).max(1.0),
            abort_rate: stats.aborted as f64 / (attempts as f64).max(1.0),
            crash_lives: crashes,
            invariant_checks: checks,
            wait_profile,
        };
        println!(
            "  {tc} writer(s): {:7.0} txn/s | p50 {:.2}ms p95 {:.2}ms p99 {:.2}ms | \
             {:.2} fsyncs/commit | abort {:.3} | {crashes} crash lives, {checks} oracle checks",
            run.txns_per_sec,
            run.p50_ms,
            run.p95_ms,
            run.p99_ms,
            run.fsyncs_per_commit,
            run.abort_rate
        );
        if !run.wait_profile.is_empty() {
            let parts: Vec<String> = run
                .wait_profile
                .iter()
                .map(|(class, ns, events)| format!("{class} {:.1}ms/{events}", *ns as f64 / 1e6))
                .collect();
            println!("      waits: {}", parts.join(" | "));
        }
        runs.push(run);
    }
    (scale, runs)
}

fn analytics_phase(args: &Args) -> (tpch::TpchScale, Vec<tpch::QueryTiming>) {
    let scale = if args.smoke {
        tpch::TpchScale::smoke()
    } else {
        tpch::TpchScale::standard(args.sf)
    };
    println!(
        "macro_bench: analytics phase — ~{} rows, workers {WORKER_COUNTS:?}",
        scale.approx_rows()
    );
    let db = Database::new();
    if let Err(e) = tpch::load(&db, &scale, args.seed.wrapping_add(1)) {
        fail(&format!("tpch load: {e}"));
    }
    let reps = if args.smoke { 1 } else { 3 };
    let timings = match tpch::run_analytics(&db, &WORKER_COUNTS, reps) {
        Ok(t) => t,
        Err(e) => fail(&format!("analytics: {e}")),
    };
    for t in &timings {
        let per_w: Vec<String> = t
            .secs
            .iter()
            .map(|(w, s)| format!("{w}w {:.1}ms", s * 1e3))
            .collect();
        println!(
            "  {:<22} {:>6} rows | {}",
            t.name,
            t.rows,
            per_w.join(" | ")
        );
    }
    (scale, timings)
}

/// Drive wire payment transactions through `server` at `addr` until the
/// scripted storage crash kills the statements (or the budget runs out).
/// Returns committed wire transactions.
fn drive_wire_mix(
    addr: std::net::SocketAddr,
    scale: &tpcc::TpccScale,
    seed: u64,
    threads: usize,
    txns_per_thread: usize,
    theta: f64,
) -> u64 {
    let committed = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..threads {
            let committed = &committed;
            s.spawn(move || {
                let mut c = match Client::connect(addr) {
                    Ok(c) => c,
                    Err(_) => return, // server already draining
                };
                let mut rng = StdRng::seed_from_u64(seed ^ (0xD1E + t as u64 * 0x9E3779B9));
                let zipf = tpcc::Zipf::new(scale.districts() as usize, theta);
                for _ in 0..txns_per_thread {
                    match wire_payment(&mut c, scale, &mut rng, &zipf, 4) {
                        Ok((true, _)) => {
                            // ordering: Relaxed — statistics counter
                            committed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                        Ok((false, _)) => {}
                        // a non-retryable error is the crash (or drain)
                        // signal: the connection is done either way
                        Err(_) => return,
                    }
                }
                let _ = c.close();
            });
        }
    });
    committed.into_inner()
}

/// The server crash life (PR 10 satellite): kill the storage under a
/// live TCP server mid-load, verify the flight-recorder post-mortem,
/// recover, verify the TPC-C invariants, restart the server on the
/// recovered database, replay wire load, and re-check the oracle.
fn server_phase(args: &Args) -> ServerLife {
    let scale = tpcc::TpccScale::smoke();
    println!("macro_bench: server crash life — wire payments until the storage dies");
    let disk = Arc::new(Disk::new());
    let inj = Arc::new(FaultInjector::new(Arc::clone(&disk), FaultPlan::default()));
    let db = Database::with_store(inj.clone() as Arc<dyn PageStore>);
    if let Err(e) = tpcc::load(&db, &scale, args.seed.wrapping_add(7)) {
        fail(&format!("server life load: {e}"));
    }
    if let Err(e) = db.checkpoint_now() {
        fail(&format!("server life checkpoint: {e}"));
    }

    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5E17);
    let threads = 2usize;
    let txns_per_thread = if args.smoke { 80 } else { 300 };
    let budget = (threads * txns_per_thread) as u64;
    let crash_at = rng.gen_range(10u64..(budget / 3).max(20));
    inj.arm(FaultPlan::crash_after(crash_at).with_torn_tail(TornMode::Prefix));
    let flight = db.flight_recorder();
    inj.set_crash_hook(move || {
        flight.record(FlightKind::FaultInjected, 0, 0, 0);
        let dump = flight.dump_json("server_crash_life").to_string_pretty();
        let _ = std::fs::write(SERVER_FLIGHT_DUMP, dump + "\n");
    });

    let db = Arc::new(db);
    let server = match Server::start(Arc::clone(&db), ServerConfig::default()) {
        Ok(s) => s,
        Err(e) => fail(&format!("server life start: {e}")),
    };
    let committed_before = drive_wire_mix(
        server.local_addr(),
        &scale,
        args.seed,
        threads,
        txns_per_thread,
        args.zipf_theta,
    );
    let crashed = inj.crashed();
    if !crashed {
        fail("server life: the scripted crash never fired under wire load");
    }
    // the dying server must still drain and join cleanly
    if let Err(e) = server.shutdown() {
        fail(&format!("server life shutdown after crash: {e}"));
    }
    drop(db);
    match std::fs::read_to_string(SERVER_FLIGHT_DUMP) {
        Ok(text) => {
            if let Err(e) = aimdb_common::json::Json::parse(&text) {
                fail(&format!("server flight dump unparseable: {e}"));
            }
        }
        Err(e) => fail(&format!("crash fired but no server flight dump: {e}")),
    }

    // Recover from the surviving disk and verify the oracle.
    let inj2 = Arc::new(FaultInjector::new(Arc::clone(&disk), FaultPlan::default()));
    let (rdb, _report) = match Database::recover(inj2 as Arc<dyn PageStore>) {
        Ok(x) => x,
        Err(e) => fail(&format!("server life recovery: {e}")),
    };
    if let Err(e) = tpcc::check_invariants(&rdb, &scale) {
        fail(&format!(
            "server life: invariants violated after recovery: {e}"
        ));
    }
    let mut checks = 1u64;

    // Restart the server on the recovered database and replay.
    let rdb = Arc::new(rdb);
    let server = match Server::start(Arc::clone(&rdb), ServerConfig::default()) {
        Ok(s) => s,
        Err(e) => fail(&format!("server life restart: {e}")),
    };
    let replay_txns = if args.smoke { 20 } else { 60 };
    let replayed = drive_wire_mix(
        server.local_addr(),
        &scale,
        args.seed.wrapping_add(99),
        threads,
        replay_txns,
        args.zipf_theta,
    );
    if replayed == 0 {
        fail("server life: nothing committed through the restarted server");
    }
    if let Err(e) = server.shutdown() {
        fail(&format!("server life final shutdown: {e}"));
    }
    if let Err(e) = tpcc::check_invariants(&rdb, &scale) {
        fail(&format!(
            "server life: invariants violated after replay: {e}"
        ));
    }
    checks += 1;
    println!(
        "  crash fired at store op {crash_at} | {committed_before} wire txns before, \
         {replayed} replayed after restart | {checks} oracle checks"
    );
    ServerLife {
        crashed,
        invariant_checks: checks,
        committed_before,
        replayed,
    }
}

fn main() {
    let args = parse_args();
    let (oltp_scale, oltp_runs) = oltp_phase(&args);
    let (tpch_scale, analytics) = analytics_phase(&args);
    let server_life = server_phase(&args);

    let report = MacroReport {
        mode: if args.smoke { "smoke" } else { "full" },
        seed: args.seed,
        oltp_scale_rows: oltp_scale.approx_rows(),
        zipf_theta: args.zipf_theta,
        oltp_runs,
        analytics_scale_rows: tpch_scale.approx_rows(),
        workers: WORKER_COUNTS.to_vec(),
        analytics,
        server_life,
    };
    if let Err(e) = report.write(&args.out) {
        fail(&e);
    }
    println!("macro_bench: wrote {}", args.out);

    // Debug builds accumulate the lock-order witness across both phases;
    // any hierarchy violation fails the benchmark.
    if parking_lot::witness::enabled() {
        let violations = parking_lot::witness::take_violations();
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("FAIL: {v}");
            }
            std::process::exit(1);
        }
        println!("  lock-order witness: 0 violations");
    }
    println!("macro_bench: PASS");
}
