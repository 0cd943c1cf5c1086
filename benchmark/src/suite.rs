//! Suite mode: every workload, untraced then traced, each in a fresh
//! process; prints every metric as `workload name value unit`, writes
//! `out/report.json`, and with `--repeat K` holds the benchmark to its
//! own bounds.

use std::process::{Command, Stdio};

use aimdb_common::json::Json;

use crate::report::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{within_bound, worse_by};
use crate::{out_dir, Args, WORKLOADS};

/// Measured seconds per run: five 4.8 s slices (`run_seconds` in
/// BENCHMARK.json).
pub const FULL_SECONDS: f64 = 24.0;
/// `--smoke`: five 0.5 s slices, the whole suite in about 40 s.
const SMOKE_SECONDS: f64 = 2.5;

struct RunResult {
    attempted: u64,
    failed: u64,
    /// In catalogue order.
    metrics: Vec<(String, f64, String)>,
}

/// One workload in one set: its untraced and its traced run.
struct Cell {
    workload: &'static str,
    end_to_end: RunResult,
    per_layer: RunResult,
}

fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}",
            u8::from(trace),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{workload}: no output"))?;
    let parse = || -> aimdb_common::Result<RunResult> {
        let json = Json::parse(line)?;
        let Json::Obj(metrics) = json.field("metrics")? else {
            return Err(aimdb_common::AimError::InvalidInput(
                "metrics is not an object".into(),
            ));
        };
        let defs = if trace { PER_LAYER } else { END_TO_END };
        // the JSON object sorts its keys; the report keeps catalogue
        // order and appends anything the catalogue does not name, so a
        // stray metric is seen rather than dropped
        let mut names: Vec<&str> = defs.iter().map(|d| d.name).collect();
        names.extend(
            metrics
                .keys()
                .map(String::as_str)
                .filter(|k| !defs.iter().any(|d| d.name == *k)),
        );
        let mut out = Vec::new();
        for name in names {
            if let Some(m) = metrics.get(name) {
                out.push((
                    name.to_string(),
                    m.field("value")?.as_f64()?,
                    m.field("unit")?.as_str()?.to_string(),
                ));
            }
        }
        Ok(RunResult {
            attempted: json.field("attempted")?.as_u64()?,
            failed: json.field("failed")?.as_u64()?,
            metrics: out,
        })
    };
    parse().map_err(|e| format!("{workload}: unreadable result line ({e}): {line}"))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn result_json(r: &RunResult) -> Json {
    Json::obj(vec![
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        (
            "metrics",
            Json::Obj(
                r.metrics
                    .iter()
                    .map(|(name, value, unit)| {
                        (
                            name.clone(),
                            Json::obj(vec![
                                ("value", Json::Num(*value)),
                                ("unit", Json::Str(unit.clone())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Compare set `k` with set 0 cell by cell, both ways: two runs of the
/// same code must sit within the bound a later change is held to.
fn repeat_check(sets: &[Vec<Cell>]) -> (Vec<Json>, bool) {
    let mut rows = Vec::new();
    let mut all_inside = true;
    let def_of = |name: &str| -> Option<&MetricDef> { END_TO_END.iter().find(|d| d.name == name) };
    for (k, set) in sets.iter().enumerate().skip(1) {
        for (base, new) in sets[0].iter().zip(set) {
            for ((name, a, _), (_, b, _)) in
                base.end_to_end.metrics.iter().zip(&new.end_to_end.metrics)
            {
                let Some(def) = def_of(name) else { continue };
                let diff = worse_by(*a, *b, def.better).max(worse_by(*b, *a, def.better));
                let inside = within_bound(*a, *b, def.better, def.bound)
                    && within_bound(*b, *a, def.better, def.bound);
                all_inside &= inside;
                println!(
                    "repeat set 1 vs {} {} {name}: {a:.4} vs {b:.4}, differ by {:.1}% of bound {:.0}% {}",
                    k + 1,
                    base.workload,
                    diff * 100.0,
                    def.bound * 100.0,
                    if inside { "ok" } else { "OUTSIDE" }
                );
                rows.push(Json::obj(vec![
                    ("workload", Json::Str(base.workload.into())),
                    ("metric", Json::Str(name.clone())),
                    ("set", Json::Num((k + 1) as f64)),
                    ("difference", Json::Num(diff)),
                    ("bound", Json::Num(def.bound)),
                    ("inside", Json::Bool(inside)),
                ]));
            }
        }
    }
    (rows, all_inside)
}

pub fn run(args: &Args) -> Result<(), String> {
    let seconds = match (args.smoke, args.seconds) {
        (true, _) => SMOKE_SECONDS,
        (false, Some(s)) => s,
        (false, None) => FULL_SECONDS,
    };
    let names: Vec<&'static str> = match &args.only {
        Some(only) => vec![*WORKLOADS
            .iter()
            .find(|w| **w == only.as_str())
            .ok_or(format!("--only {only}: one of {WORKLOADS:?}"))?],
        None => WORKLOADS.to_vec(),
    };
    let mut sets: Vec<Vec<Cell>> = Vec::new();
    for _ in 0..args.repeat.max(1) {
        let mut set = Vec::new();
        for workload in &names {
            let end_to_end = run_child(workload, args.seed, seconds, false)?;
            let per_layer = run_child(workload, args.seed, seconds, true)?;
            for (name, value, unit) in end_to_end.metrics.iter().chain(&per_layer.metrics) {
                println!("{workload} {name} {value} {unit}");
            }
            println!(
                "{workload} ops attempted {} failed {}",
                end_to_end.attempted, end_to_end.failed
            );
            set.push(Cell {
                workload,
                end_to_end,
                per_layer,
            });
        }
        sets.push(set);
    }
    let (repeat_rows, all_inside) = repeat_check(&sets);

    let host = Json::obj(vec![
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        (
            "commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ]);
    let sets_json = Json::Arr(
        sets.iter()
            .map(|set| {
                Json::Obj(
                    set.iter()
                        .map(|cell| {
                            (
                                cell.workload.to_string(),
                                Json::obj(vec![
                                    ("end_to_end", result_json(&cell.end_to_end)),
                                    ("per_layer", result_json(&cell.per_layer)),
                                ]),
                            )
                        })
                        .collect(),
                )
            })
            .collect(),
    );
    // written by hand at the top level so the keys keep this order and
    // the summary ends with the claim
    let report = format!(
        "{{\"host\": {}, \"seed\": {}, \"run_seconds\": {seconds}, \"clients\": {}, \
         \"loop\": \"closed\", \"slices\": {}, \"sets\": {}, \"repeat_check\": {}, \"claim\": null}}\n",
        host.to_string_compact(),
        args.seed,
        crate::driver::CLIENTS,
        crate::driver::SLICES,
        sets_json.to_string_pretty(),
        Json::Arr(repeat_rows).to_string_compact(),
    );
    let path = out_dir().join("report.json");
    std::fs::create_dir_all(out_dir())
        .map_err(|e| format!("create {}: {e}", out_dir().display()))?;
    std::fs::write(&path, report).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("report written to {}", path.display());
    if all_inside {
        Ok(())
    } else {
        Err("two sets of the same code differ by more than the benchmark's own bounds".into())
    }
}
