//! aimdb's standing benchmark: four closed-loop workloads driven over
//! loopback TCP, end-to-end metrics from an untraced run, a per-layer
//! ledger from a traced run plus an in-process probe, and oracles that
//! check every answer. See README.md beside this package.
//!
//! One run, as the harness calls it:
//!
//! ```text
//! aimdb-benchmark --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! prints one JSON object as the last line of stdout. Without
//! `--workload` it runs the whole suite in fresh processes
//! (`[--smoke] [--seed N] [--repeat K] [--only W]`) and writes
//! `out/report.json`.

mod driver;
mod predict;
mod probe;
mod report;
mod spans;
mod ssb;
mod stats;
mod store;
mod suite;
mod tpcc;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aimdb_engine::Database;
use aimdb_storage::{Disk, PageStore, PAGE_SIZE};

use driver::{Live, Timing, CLIENTS};
use workload::{ClientState, Workload};

pub const WORKLOADS: [&str; 4] = ["point_read", "oltp_mix", "olap_ssb", "hybrid_predict"];
/// Cold set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Where the suite's report and the trace files go.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn make_workload(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "point_read" => Box::new(tpcc::PointRead::new(seed)),
        "oltp_mix" => Box::new(tpcc::OltpMix::new(seed)),
        "olap_ssb" => Box::new(ssb::OlapSsb::new(seed)),
        "hybrid_predict" => Box::new(predict::HybridPredict::new(seed)),
        other => return Err(format!("unknown workload {other}; one of {WORKLOADS:?}")),
    })
}

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
    pub repeat: usize,
    pub only: Option<String>,
    /// Print `olap_ssb`'s result hashes for `--seed` in golden-file
    /// format and exit.
    pub golden: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 1,
        only: None,
        golden: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--only" => args.only = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s.is_nan() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => args.trace = value()? != "0",
            "--repeat" => args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--smoke" => args.smoke = true,
            "--golden" => args.golden = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// `VmHWM` of this process, in MiB.
fn rss_peak_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM not found in /proc/self/status".to_string())
}

/// Fresh generator states, warmed over their connections.
fn warm_clients(w: &dyn Workload, live: &mut Live) -> Result<Vec<Box<dyn ClientState>>, String> {
    let mut states: Vec<Box<dyn ClientState>> = (0..CLIENTS).map(|i| w.client(i)).collect();
    for (state, conn) in states.iter_mut().zip(live.conns.iter_mut()) {
        state.warm(conn)?;
    }
    Ok(states)
}

/// Durability: restart from the flushed log alone — a fresh disk that
/// holds only the old one's durable log bytes — and re-run the oracle.
/// Returns the recovery time in milliseconds.
fn recover_and_check(w: &dyn Workload, disk: &Disk) -> Result<f64, String> {
    let fresh = Arc::new(Disk::new());
    fresh
        .wal_append(&disk.wal_bytes().map_err(|e| format!("read log: {e}"))?)
        .map_err(|e| format!("copy log: {e}"))?;
    let t0 = Instant::now();
    let (recovered, report) =
        Database::recover(fresh as Arc<dyn PageStore>).map_err(|e| format!("recover: {e}"))?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    w.check(&recovered)
        .map_err(|e| format!("after recovery ({report:?}): {e}"))?;
    Ok(ms)
}

/// Untraced run: the only source of end-to-end numbers.
fn timed_run(w: &dyn Workload, seconds: f64, epoch: Instant) -> Result<String, String> {
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let (live, secs) = driver::set_up(w, false, epoch)?;
        setups.push(secs);
        kept = Some(live);
    }
    let mut live = kept.expect("SETUPS > 0");
    let mut states = warm_clients(w, &mut live)?;
    let timing = Timing::timed(seconds);
    let data = driver::run(&mut live, w, &mut states, &timing)?;
    for conn in live.conns.drain(..) {
        conn.close();
    }
    let Live {
        db, disk, server, ..
    } = live;
    server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    w.check(&db)?;
    if !w.read_only() {
        recover_and_check(w, &disk)?;
    }
    let e2e = report::end_to_end(&data, timing.slice.as_secs_f64(), &setups, rss_peak_mb()?)?;
    for note in &e2e.notes {
        eprintln!("# {note}");
    }
    Ok(report::result_line(
        report::END_TO_END,
        &e2e.values,
        e2e.attempted,
        e2e.failed,
    ))
}

/// Traced run: spans, counters, probe pass, checkpoint and recovery
/// timings. End-to-end metrics are never taken from it.
fn traced_run(w: &dyn Workload, seed: u64, seconds: f64, epoch: Instant) -> Result<String, String> {
    let (mut live, _) = driver::set_up(w, true, epoch)?;
    let mut states = warm_clients(w, &mut live)?;
    let timing = Timing::traced(seconds);
    let data = driver::run(&mut live, w, &mut states, &timing)?;
    let recorders: Vec<_> = live.conns.drain(..).map(driver::WireConn::close).collect();
    w.check(&live.db)?;

    let budget = Duration::from_secs_f64(seconds / 6.0);
    let probed = probe::run(&live.db, w, live.server.admission_limits(), epoch, budget)?;
    w.check(&live.db)?;
    let extra = w.extra_probe(&live.db)?;

    let t0 = Instant::now();
    live.db
        .checkpoint_now()
        .map_err(|e| format!("checkpoint: {e}"))?;
    let checkpoint_ms = t0.elapsed().as_secs_f64() * 1e3;
    let user_bytes = live.load.user_bytes + w.grown_bytes(&live.db)?;
    let space_amp = (live.disk.num_pages() * PAGE_SIZE) as f64 / user_bytes as f64;
    let tuner = live.server.tuner_stats();
    let limit_final = live.server.admission_limits().max_statements;
    let Live {
        disk, server, load, ..
    } = live;
    server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    let recover_ms = if w.read_only() {
        0.0
    } else {
        recover_and_check(w, &disk)?
    };

    let mut all: Vec<&spans::Recorder> = recorders.iter().collect();
    all.push(&probed.recorder);
    let path = out_dir().join(format!("{}.trace.json", w.name()));
    spans::write_trace(&path, w.name(), seed, w.classes(), &all)
        .map_err(|e| format!("write {}: {e}", path.display()))?;

    let extras = report::TracedExtras {
        recorders: &recorders,
        classes: w.classes(),
        traced: &timing.traced,
        probe: &probed.samples,
        checkpoint_ms,
        recover_ms,
        space_amp,
        tuner_actuations: tuner.shrinks + tuner.grows,
        limit_final,
        train_ms: load.train_ms,
        extra,
    };
    let values = report::per_layer(&data, timing.slice.as_secs_f64(), &extras);
    let attempted: u64 = data.clients.iter().flatten().map(|s| s.ok + s.failed).sum();
    let failed: u64 = data.clients.iter().flatten().map(|s| s.failed).sum();
    eprintln!(
        "# probe: {} ops; trace: {} spans in {}",
        probed.ops,
        all.iter().map(|r| r.spans().len()).sum::<usize>(),
        path.display()
    );
    Ok(report::result_line(
        report::PER_LAYER,
        &values,
        attempted.max(1),
        failed,
    ))
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match &args.workload {
        _ if args.golden => {
            print!("{}", ssb::OlapSsb::new(args.seed).golden_lines()?);
            Ok(())
        }
        Some(name) => {
            let epoch = Instant::now();
            let w = make_workload(name, args.seed)?;
            let seconds = args.seconds.unwrap_or(suite::FULL_SECONDS);
            let line = if args.trace {
                traced_run(w.as_ref(), args.seed, seconds, epoch)?
            } else {
                timed_run(w.as_ref(), seconds, epoch)?
            };
            println!("{line}");
            Ok(())
        }
        None => suite::run(&args),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("aimdb-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
