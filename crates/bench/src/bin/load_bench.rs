//! Open-loop load generator for the serving layer (`BENCH_server.json`).
//!
//! Three phases over the TCP front end ([`aimdb_server`]):
//!
//! 1. **Conformance** — a seeded statement stream must produce
//!    byte-identical result payloads over the wire and through an
//!    in-process session on an identically-seeded database.
//! 2. **Sustain** — N concurrent connections (1000 full / 64 smoke) held
//!    open simultaneously drive a Zipfian TPC-C payment/read mix;
//!    client-side p50/p95/p99 and txn/s land in the report and the
//!    TPC-C invariants are re-checked afterwards.
//! 3. **Overload** — the same offered load against an unbounded gate
//!    (baseline) and a 2-slot gate with a 1 ms queue, both set through
//!    the knobs; the gated run must shed (reject rate > 0) while its p99
//!    stays bounded.
//!
//! ```text
//! load_bench                 # full run (1000 concurrent connections)
//! load_bench --smoke         # CI gate: 64 connections, small scale
//! load_bench --seed S --conns N --out PATH
//! ```
//!
//! Exits nonzero on any conformance divergence, worker failure,
//! invariant violation, missed connection floor, or a gate that never
//! sheds.

use aimdb_bench::server_load::{self, LoadConfig, ServerLoadReport};

struct Args {
    smoke: bool,
    seed: u64,
    conns: Option<usize>,
    out: String,
}

fn usage() -> ! {
    eprintln!("load_bench [--smoke] [--seed S] [--conns N] [--out PATH]");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut out = Args {
        smoke: false,
        seed: 42,
        conns: None,
        out: "BENCH_server.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => out.smoke = true,
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => out.seed = n,
                None => usage(),
            },
            "--conns" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => out.conns = Some(n),
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

fn main() {
    let args = parse_args();
    let mut cfg = if args.smoke {
        LoadConfig::smoke(args.seed)
    } else {
        LoadConfig::full(args.seed)
    };
    if let Some(n) = args.conns {
        cfg.connections = n;
    }

    let statements = if cfg.smoke { 120 } else { 600 };
    println!("load_bench: conformance — {statements} seeded statements, wire vs in-process");
    let conformance = match server_load::conformance(cfg.seed, statements) {
        Ok(s) => s,
        Err(e) => fail(&e),
    };
    println!(
        "  {} statements byte-identical ({} prepared, {} errors matched)",
        conformance.statements, conformance.prepared, conformance.errors_matched
    );

    println!(
        "load_bench: sustain — {} concurrent connections × {} txns",
        cfg.connections, cfg.txns_per_conn
    );
    let sustain = match server_load::sustain(&cfg) {
        Ok(s) => s,
        Err(e) => fail(&e),
    };
    if sustain.peak_sessions != cfg.connections as u64 {
        fail(&format!(
            "sustain: only {}/{} sessions were open simultaneously",
            sustain.peak_sessions, cfg.connections
        ));
    }
    println!(
        "  {} sessions held open | {:7.0} txn/s | p50 {:.2}ms p95 {:.2}ms p99 {:.2}ms | \
         {} committed, {} aborted, {} conflicts, {} sheds",
        sustain.peak_sessions,
        sustain.txns_per_sec,
        sustain.p50_ms,
        sustain.p95_ms,
        sustain.p99_ms,
        sustain.committed,
        sustain.aborted,
        sustain.conflicts,
        sustain.sheds
    );

    println!("load_bench: overload — unbounded baseline vs 2-slot gate");
    let overload = match server_load::overload(&cfg) {
        Ok(s) => s,
        Err(e) => fail(&e),
    };
    println!(
        "  baseline: {} ok, p99 {:.2}ms | gated: {} ok, {} shed (reject rate {:.3}), \
         p99 {:.2}ms",
        overload.baseline.ok,
        overload.baseline.p99_ms,
        overload.gated.ok,
        overload.gated.shed,
        overload.reject_rate,
        overload.gated.p99_ms
    );

    let report = ServerLoadReport {
        mode: if cfg.smoke { "smoke" } else { "full" },
        seed: cfg.seed,
        conformance,
        sustain,
        overload,
    };
    if let Err(e) = report.write(&args.out) {
        fail(&e);
    }
    println!("load_bench: wrote {}", args.out);

    // Debug builds accumulate the lock-order witness across all three
    // phases; any hierarchy violation fails the run.
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
    println!("load_bench: PASS");
}
