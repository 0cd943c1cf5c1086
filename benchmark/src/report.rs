//! The metric catalogue and how each number is derived from a run.
//!
//! `BENCHMARK.json` at the repo root lists the same names and units;
//! `tests/smoke.rs` fails when the two drift apart.

use std::collections::HashMap;

use aimdb_common::WaitClass;

use crate::driver::{ClientSlice, Counters, RunData};
use crate::probe::{Sample, Samples};
use crate::spans::{Recorder, NO_SPAN};
use crate::stats::{
    geomean, median, median_of_slices, percentile, percentile_any, self_time_ns, Better,
    SliceSummary,
};

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the database would see. Same names on every workload;
/// an op is one transaction in `oltp_mix`, one statement elsewhere.
pub const END_TO_END: &[MetricDef] = &[
    e2e("ops_per_s", "ops/s", Higher, 0.25),
    e2e("lat_med_ms", "ms", Lower, 0.25),
    e2e("lat_p95_ms", "ms", Lower, 0.25),
    e2e("lat_p99_ms", "ms", Lower, 0.25),
    e2e("ok_ratio", "ratio", Higher, 0.02),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("rss_peak_mb", "MiB", Lower, 0.25),
];

/// One layer each (layer = module); README.md says which end-to-end
/// metric on which workload each should move.
pub const PER_LAYER: &[MetricDef] = &[
    layer("server.client.roundtrip_us", "us", Lower),
    layer("server.client.self_us", "us", Lower),
    layer("server.client.stmts_per_op", "1/op", Lower),
    layer("server.client.steady_ratio", "ratio", Higher),
    layer("server.client.trace_overhead", "ratio", Lower),
    layer("server.client.unattributed_us", "us", Lower),
    layer("server.transport_us", "us", Lower),
    layer("server.protocol.codec_us", "us", Lower),
    layer("server.protocol.result_bytes", "bytes", Lower),
    layer("server.admission.admit_ns", "ns", Lower),
    layer("server.admission.shed", "count", Lower),
    layer("server.session.dispatch_us", "us", Lower),
    layer("server.session.self_us", "us", Lower),
    layer("sql.parser.parse_us", "us", Lower),
    layer("engine.fingerprint.us", "us", Lower),
    layer("engine.optimizer.plan_us", "us", Lower),
    layer("engine.exec.run_plan_us", "us", Lower),
    layer("engine.exec.rows_in_per_row_out", "ratio", Lower),
    layer("engine.exec.ns_per_row", "ns/row", Lower),
    layer("engine.exec.op.seq_scan.share", "ratio", Lower),
    layer("engine.exec.op.index_scan.share", "ratio", Lower),
    layer("engine.exec.op.filter.share", "ratio", Lower),
    layer("engine.exec.op.hash_join.share", "ratio", Lower),
    layer("engine.exec.op.aggregate.share", "ratio", Lower),
    layer("engine.exec.op.sort.share", "ratio", Lower),
    layer("engine.exec.op.exchange.share", "ratio", Lower),
    layer("engine.db.self_us", "us", Lower),
    layer("engine.txn.begin_us", "us", Lower),
    layer("engine.txn.write_stmt_us", "us", Lower),
    layer("engine.txn.commit_us", "us", Lower),
    layer("engine.txn.rollback_us", "us", Lower),
    layer("engine.txn.conflicts_per_commit", "ratio", Lower),
    layer("engine.txn.wasted_stmt_ratio", "ratio", Lower),
    layer("engine.checkpoint.ms", "ms", Lower),
    layer("engine.recover.ms", "ms", Lower),
    layer("storage.wal.fsyncs_per_commit", "ratio", Lower),
    layer("storage.wal.bytes_per_commit", "bytes", Lower),
    layer(
        "storage.wal.resident_records_per_kcommit",
        "1/kcommit",
        Lower,
    ),
    layer("storage.disk.page_reads_per_op", "1/op", Lower),
    layer("storage.disk.page_writes_per_op", "1/op", Lower),
    layer("storage.disk.pages_per_kcommit", "1/kcommit", Lower),
    layer("storage.disk.busy_share", "ratio", Lower),
    layer("storage.space_amp", "ratio", Lower),
    layer("storage.buffer.hit_ratio", "ratio", Higher),
    layer("storage.buffer.evictions_per_op", "1/op", Lower),
    layer("common.wait.lock_acquire.us_per_op", "us/op", Lower),
    layer("common.wait.wal_fsync.us_per_op", "us/op", Lower),
    layer(
        "common.wait.group_commit_follower.us_per_op",
        "us/op",
        Lower,
    ),
    layer("common.wait.buffer_miss.us_per_op", "us/op", Lower),
    layer("common.wait.write_conflict_retry.us_per_op", "us/op", Lower),
    layer("common.wait.morsel_starvation.us_per_op", "us/op", Lower),
    layer("common.wait.snapshot_register.us_per_op", "us/op", Lower),
    layer("trace.query_tracing_cost", "ratio", Lower),
    layer("ai4db.admission.actuations", "count", Lower),
    layer("ai4db.admission.limit_final", "count", Higher),
    layer("db4ai.train_ms", "ms", Lower),
    layer("db4ai.predict.ns_per_row", "ns/row", Lower),
    layer("db4ai.predict.point_us", "us", Lower),
];

/// Operator kinds that get an `engine.exec.op.<kind>.share` metric.
const OP_KINDS: &[&str] = &[
    "seq_scan",
    "index_scan",
    "filter",
    "hash_join",
    "aggregate",
    "sort",
    "exchange",
];

/// Named values in catalogue order.
pub type Values = Vec<(&'static str, f64)>;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// All clients' latencies of one slice, by class and pooled, sorted.
fn merged(clients: &[Vec<ClientSlice>], slice: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let classes = clients[0][slice].lat_ns.len();
    let mut by_class: Vec<Vec<f64>> = vec![Vec::new(); classes];
    for c in clients {
        for (class, lat) in c[slice].lat_ns.iter().enumerate() {
            by_class[class].extend(lat.iter().map(|&ns| ms(ns)));
        }
    }
    let mut all: Vec<f64> = by_class.iter().flatten().copied().collect();
    all.sort_by(f64::total_cmp);
    for v in &mut by_class {
        v.sort_by(f64::total_cmp);
    }
    (by_class, all)
}

/// Successful ops per second of one slice.
fn slice_rate(clients: &[Vec<ClientSlice>], slice: usize, slice_secs: f64) -> f64 {
    clients.iter().map(|c| c[slice].ok).sum::<u64>() as f64 / slice_secs
}

fn slice_attempted(clients: &[Vec<ClientSlice>], slice: usize) -> u64 {
    clients.iter().map(|c| c[slice].ok + c[slice].failed).sum()
}

/// A tail percentile: median over slices where every slice holds ten
/// samples beyond it; otherwise taken once over the pooled slices, and
/// the second field says whether even the pool fell short of that rule.
fn tail(
    per_slice: &[Vec<f64>],
    p: f64,
) -> Result<(f64, Option<SliceSummary>, &'static str), String> {
    let by_slice: Vec<Option<f64>> = per_slice.iter().map(|s| percentile(s, p)).collect();
    if let Some(s) = median_of_slices(&by_slice) {
        return Ok((s.median, Some(s), "median of slices"));
    }
    let mut pooled: Vec<f64> = per_slice.iter().flatten().copied().collect();
    pooled.sort_by(f64::total_cmp);
    if let Some(v) = percentile(&pooled, p) {
        return Ok((v, None, "pooled slices"));
    }
    percentile_any(&pooled, p)
        .map(|v| (v, None, "pooled slices, fewer than 10 samples beyond"))
        .ok_or_else(|| "no op completed in the measured window".to_string())
}

pub struct EndToEnd {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    /// Report lines beyond the values: min/max across slices, sample
    /// counts, how each tail percentile was supported.
    pub notes: Vec<String>,
}

pub fn end_to_end(
    data: &RunData,
    slice_secs: f64,
    setups_s: &[f64],
    rss_peak_mb: f64,
) -> Result<EndToEnd, String> {
    let clients = &data.clients;
    let mut rates = Vec::new();
    let mut lat_med = Vec::new();
    let mut pooled = Vec::new();
    let slices = clients[0].len();
    for i in 0..slices {
        rates.push(Some(slice_rate(clients, i, slice_secs)));
        let (by_class, all) = merged(clients, i);
        let class_medians: Vec<f64> = by_class
            .iter()
            .filter_map(|v| percentile_any(v, 50.0))
            .collect();
        lat_med.push(geomean(&class_medians));
        pooled.push(all);
    }
    let rate = median_of_slices(&rates).ok_or("no slices")?;
    let lat_med = median_of_slices(&lat_med).ok_or("a slice completed no op")?;
    let (p95, p95_slices, p95_how) = tail(&pooled, 95.0)?;
    let (p99, p99_slices, p99_how) = tail(&pooled, 99.0)?;
    let attempted: u64 = (0..slices).map(|i| slice_attempted(clients, i)).sum();
    let ok: u64 = clients.iter().flatten().map(|s| s.ok).sum();
    let setup_s = median(setups_s).ok_or("no set-up ran")?;

    let spread = |s: &SliceSummary| format!("min {:.4} max {:.4} across slices", s.min, s.max);
    let samples_per_slice = pooled.iter().map(Vec::len).min().unwrap_or(0);
    let mut notes = vec![
        format!("ops_per_s: {}", spread(&rate)),
        format!("lat_med_ms: {}", spread(&lat_med)),
        format!(
            "lat_p95_ms: {p95_how}{}",
            p95_slices
                .map(|s| format!(", {}", spread(&s)))
                .unwrap_or_default()
        ),
        format!(
            "lat_p99_ms: {p99_how}{}",
            p99_slices
                .map(|s| format!(", {}", spread(&s)))
                .unwrap_or_default()
        ),
        format!("samples: {attempted} ops, at least {samples_per_slice} per slice"),
    ];
    notes.push(format!(
        "ops_per_s by slice: {:?}",
        rates.iter().flatten().collect::<Vec<_>>()
    ));
    notes.push(format!("setup_s: {setups_s:?}"));

    Ok(EndToEnd {
        values: vec![
            ("ops_per_s", rate.median),
            ("lat_med_ms", lat_med.median),
            ("lat_p95_ms", p95),
            ("lat_p99_ms", p99),
            ("ok_ratio", ratio(ok as f64, attempted as f64)),
            ("setup_s", setup_s),
            ("rss_peak_mb", rss_peak_mb),
        ],
        attempted,
        failed: attempted - ok,
        notes,
    })
}

/// Everything the traced run measured outside [`RunData`].
pub struct TracedExtras<'a> {
    pub recorders: &'a [Recorder],
    pub classes: &'static [&'static str],
    pub traced: &'a [bool],
    pub probe: &'a Samples,
    pub checkpoint_ms: f64,
    pub recover_ms: f64,
    pub space_amp: f64,
    pub tuner_actuations: u64,
    pub limit_final: usize,
    pub train_ms: f64,
    /// Workload-specific probe results, already named.
    pub extra: Values,
}

fn med_us(ns: &[u64]) -> f64 {
    let v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    median(&v).unwrap_or(0.0)
}

/// Sum of a counter pair's delta over the traced slices.
fn traced_sum(data: &RunData, traced: &[bool], f: impl Fn(&Counters, &Counters) -> f64) -> f64 {
    data.counters
        .iter()
        .zip(traced)
        .filter(|(_, t)| **t)
        .map(|((a, b), _)| f(a, b))
        .sum()
}

pub fn per_layer(data: &RunData, slice_secs: f64, x: &TracedExtras<'_>) -> Values {
    let clients = &data.clients;
    let slices = x.traced.len();
    let traced_idx: Vec<usize> = (0..slices).filter(|&i| x.traced[i]).collect();
    let timed_idx: Vec<usize> = (0..slices).filter(|&i| !x.traced[i]).collect();
    // first and last fifth of the window, for the drift over the run
    let fifth = (slices / 5).max(1);
    let head: Vec<usize> = (0..fifth).collect();
    let tail: Vec<usize> = (slices - fifth..slices).collect();
    let mean_rate = |idx: &[usize]| {
        ratio(
            idx.iter()
                .map(|&i| slice_rate(clients, i, slice_secs))
                .sum(),
            idx.len() as f64,
        )
    };
    let sum = |f: &dyn Fn(&Counters, &Counters) -> f64| traced_sum(data, x.traced, f);

    // ---- client side, from the live spans
    let ops: f64 = traced_idx
        .iter()
        .map(|&i| slice_attempted(clients, i) as f64)
        .sum();
    let tally = |f: &dyn Fn(&ClientSlice) -> u64| -> f64 {
        traced_idx
            .iter()
            .flat_map(|&i| clients.iter().map(move |c| &c[i]))
            .map(|s| f(s) as f64)
            .sum()
    };
    let stmts = tally(&|s| s.tally.stmts);
    let mut rt_by_class: HashMap<&str, Vec<u64>> = HashMap::new();
    // an attempt's self time — the attempt minus its statements — is the
    // benchmark's own work: generating the op and checking its answers
    let mut attempt_self_ns = 0u64;
    let mut traced_ops = 0u64;
    for rec in x.recorders {
        let spans = rec.spans();
        let mut class_of_op: HashMap<u64, &str> = HashMap::new();
        let mut stmts_of: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
        for s in spans {
            if s.parent == NO_SPAN {
                class_of_op.insert(s.op_id, s.name);
            } else if s.name == "stmt" {
                stmts_of
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        traced_ops += class_of_op.len() as u64;
        for (i, s) in spans.iter().enumerate() {
            match s.name {
                "attempt" => {
                    let stmts = stmts_of.get(&(i as u32)).map_or(&[][..], Vec::as_slice);
                    attempt_self_ns += self_time_ns(s.start_ns, s.end_ns, stmts);
                }
                "client.roundtrip" => {
                    if let Some(class) = class_of_op.get(&s.op_id) {
                        rt_by_class.entry(class).or_default().push(s.dur_ns());
                    }
                }
                _ => {}
            }
        }
    }
    // A mix of op classes is multi-modal, and medians of a mix do not
    // add up. Every layer of the round-trip ledger is therefore a median
    // per class, averaged with the live statement count of each class.
    let weights: Vec<f64> = x
        .classes
        .iter()
        .map(|name| rt_by_class.get(name).map_or(0.0, |v| v.len() as f64))
        .collect();
    let weighted = |per_class: &dyn Fn(usize) -> Option<f64>| -> f64 {
        let (mut total, mut weight) = (0.0, 0.0);
        for (class, w) in weights.iter().enumerate() {
            if let Some(v) = per_class(class).filter(|_| *w > 0.0) {
                total += v * w;
                weight += w;
            }
        }
        ratio(total, weight)
    };
    let p = x.probe;
    let class_us = |samples: &[Sample], class: usize| -> Option<f64> {
        let v: Vec<f64> = samples
            .iter()
            .filter(|s| p.op_class.get(s.op as usize) == Some(&class))
            .map(|s| s.ns as f64 / 1e3)
            .collect();
        median(&v)
    };
    let layer_us = |samples: &[Sample]| weighted(&|class| class_us(samples, class));
    let live_us = |class: usize| rt_by_class.get(x.classes[class]).map(|v| med_us(v));
    let roundtrip_us = weighted(&live_us);
    let transport_us = weighted(&|class| Some(live_us(class)? - class_us(&p.server_path, class)?));

    // ---- in-process layers, from the probe
    let codec_us = layer_us(&p.codec);
    let admit_ns = layer_us(&p.admit) * 1e3;
    let session_self_us = layer_us(&p.session_self);
    let parse_us = layer_us(&p.parse);
    let fingerprint_us = layer_us(&p.fingerprint);
    let plan_us = layer_us(&p.plan);
    let run_plan_us = layer_us(&p.run_plan);
    let db_self_us = layer_us(&p.db_self).max(0.0);
    let ledger = transport_us
        + codec_us
        + admit_ns / 1e3
        + session_self_us
        + parse_us
        + fingerprint_us
        + plan_us
        + run_plan_us
        + db_self_us;

    // ---- executor, from the operator table's deltas over traced slices
    let op_delta = |pick: &dyn Fn(&str, usize, usize) -> bool, rows: bool| -> f64 {
        sum(&|a, b| {
            let before: HashMap<_, _> = a.operators.iter().map(|(k, v)| (*k, *v)).collect();
            b.operators
                .iter()
                .filter(|((name, node, worker), _)| pick(name, *node, *worker))
                .map(|(k, v)| {
                    let prev = before.get(k).copied().unwrap_or_default();
                    if rows {
                        (v.rows - prev.rows) as f64
                    } else {
                        (v.ns - prev.ns) as f64
                    }
                })
                .sum()
        })
    };
    let scan_rows = op_delta(&|n, _, _| n == "seq_scan" || n == "index_scan", true);
    // node 0 on the main thread is the plan root: its (inclusive) time is
    // the wall time of the plan's execution
    let root_ns = op_delta(&|_, node, worker| node == 0 && worker == 0, false);
    let rows_out = sum(&|a, b| (b.rows_emitted - a.rows_emitted) as f64);

    let commits = sum(&|a, b| (b.commits - a.commits) as f64);
    let wait_us_per_op = |class: WaitClass| {
        ratio(
            sum(&|a, b| b.waits.delta_since(&a.waits).get(class).0 as f64) / 1e3,
            ops,
        )
    };
    let conflicts = sum(&|a, b| {
        b.waits
            .delta_since(&a.waits)
            .get(WaitClass::WriteConflictRetry)
            .1 as f64
    });
    let hits = sum(&|a, b| (b.buffer.hits - a.buffer.hits) as f64);
    let misses = sum(&|a, b| (b.buffer.misses - a.buffer.misses) as f64);
    let store = |f: &dyn Fn(&crate::store::StoreCounts) -> u64| {
        sum(&|a, b| f(&b.store.delta_since(&a.store)) as f64)
    };

    let mut v: Values = vec![
        ("server.client.roundtrip_us", roundtrip_us),
        (
            "server.client.self_us",
            ratio(attempt_self_ns as f64 / 1e3, traced_ops as f64),
        ),
        ("server.client.stmts_per_op", ratio(stmts, ops)),
        (
            "server.client.steady_ratio",
            ratio(mean_rate(&tail), mean_rate(&head)),
        ),
        (
            "server.client.trace_overhead",
            1.0 - ratio(mean_rate(&traced_idx), mean_rate(&timed_idx)),
        ),
        ("server.client.unattributed_us", roundtrip_us - ledger),
        ("server.transport_us", transport_us),
        ("server.protocol.codec_us", codec_us),
        (
            "server.protocol.result_bytes",
            median(&p.result_bytes.iter().map(|&b| b as f64).collect::<Vec<_>>()).unwrap_or(0.0),
        ),
        ("server.admission.admit_ns", admit_ns),
        (
            "server.admission.shed",
            sum(&|a, b| (b.admission.rejected - a.admission.rejected) as f64),
        ),
        ("server.session.dispatch_us", layer_us(&p.dispatch)),
        ("server.session.self_us", session_self_us),
        ("sql.parser.parse_us", parse_us),
        ("engine.fingerprint.us", fingerprint_us),
        ("engine.optimizer.plan_us", plan_us),
        ("engine.exec.run_plan_us", run_plan_us),
        (
            "engine.exec.rows_in_per_row_out",
            ratio(scan_rows, rows_out),
        ),
        ("engine.exec.ns_per_row", ratio(root_ns, scan_rows)),
    ];
    for (def, kind) in PER_LAYER
        .iter()
        .filter(|d| d.name.starts_with("engine.exec.op."))
        .zip(OP_KINDS)
    {
        let kind_ns = op_delta(&|n, _, _| n == *kind, false);
        v.push((def.name, ratio(kind_ns, root_ns)));
    }
    v.extend([
        ("engine.db.self_us", db_self_us),
        ("engine.txn.begin_us", med_us(&p.txn_begin)),
        ("engine.txn.write_stmt_us", med_us(&p.txn_write_stmt)),
        ("engine.txn.commit_us", med_us(&p.txn_commit)),
        ("engine.txn.rollback_us", med_us(&p.txn_rollback)),
        ("engine.txn.conflicts_per_commit", ratio(conflicts, commits)),
        (
            "engine.txn.wasted_stmt_ratio",
            ratio(tally(&|s| s.tally.wasted_stmts), stmts),
        ),
        ("engine.checkpoint.ms", x.checkpoint_ms),
        ("engine.recover.ms", x.recover_ms),
        (
            "storage.wal.fsyncs_per_commit",
            ratio(sum(&|a, b| (b.wal_flushes - a.wal_flushes) as f64), commits),
        ),
        (
            "storage.wal.bytes_per_commit",
            ratio(store(&|s| s.wal_bytes), commits),
        ),
        (
            "storage.wal.resident_records_per_kcommit",
            ratio(
                sum(&|a, b| b.wal_records as f64 - a.wal_records as f64) * 1e3,
                commits,
            ),
        ),
        (
            "storage.disk.page_reads_per_op",
            ratio(store(&|s| s.page_reads), ops),
        ),
        (
            "storage.disk.page_writes_per_op",
            ratio(store(&|s| s.page_writes), ops),
        ),
        (
            "storage.disk.pages_per_kcommit",
            ratio(store(&|s| s.allocations) * 1e3, commits),
        ),
        (
            "storage.disk.busy_share",
            ratio(
                store(&|s| s.busy_ns) / 1e9,
                slice_secs * traced_idx.len() as f64,
            ),
        ),
        ("storage.space_amp", x.space_amp),
        ("storage.buffer.hit_ratio", ratio(hits, hits + misses)),
        (
            "storage.buffer.evictions_per_op",
            ratio(
                sum(&|a, b| (b.buffer.evictions - a.buffer.evictions) as f64),
                ops,
            ),
        ),
    ]);
    for (def, class) in PER_LAYER
        .iter()
        .filter(|d| d.name.starts_with("common.wait."))
        .zip(WaitClass::ALL)
    {
        v.push((def.name, wait_us_per_op(class)));
    }
    v.extend([
        (
            "trace.query_tracing_cost",
            median(&p.tracing_cost).unwrap_or(0.0),
        ),
        ("ai4db.admission.actuations", x.tuner_actuations as f64),
        ("ai4db.admission.limit_final", x.limit_final as f64),
        ("db4ai.train_ms", x.train_ms),
    ]);
    for name in ["db4ai.predict.ns_per_row", "db4ai.predict.point_us"] {
        let value = x.extra.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
        v.push((name, value.unwrap_or(0.0)));
    }
    v
}

/// The one line the driver reads: exactly `correct`, `attempted`,
/// `failed`, `metrics`. Values keep all their digits.
pub fn result_line(defs: &[MetricDef], values: &Values, attempted: u64, failed: u64) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let value = values
                .iter()
                .find(|(n, _)| *n == d.name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("metric {} was not computed", d.name));
            assert!(value.is_finite(), "metric {} is not finite", d.name);
            // an empty float sum is -0.0; print it as 0.0
            let value = value + 0.0;
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.bound <= 0.25);
        }
        assert_eq!(
            PER_LAYER
                .iter()
                .filter(|d| d.name.starts_with("engine.exec.op."))
                .count(),
            OP_KINDS.len()
        );
        assert_eq!(
            PER_LAYER
                .iter()
                .filter(|d| d.name.starts_with("common.wait."))
                .count(),
            WaitClass::ALL.len()
        );
    }

    /// `BENCHMARK.json` is what the harness reads; the catalogue is what
    /// the program prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        use aimdb_common::json::Json;
        let contract =
            Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let listed = |key: &str, with_bound: bool| -> Vec<(String, String, String, Option<f64>)> {
            contract
                .field(key)
                .and_then(Json::as_arr)
                .expect("a list")
                .iter()
                .map(|m| {
                    let text = |k: &str| m.field(k).and_then(Json::as_str).expect(k).to_string();
                    let bound =
                        with_bound.then(|| m.field("bound").and_then(Json::as_f64).expect("bound"));
                    (text("name"), text("unit"), text("better"), bound)
                })
                .collect()
        };
        let catalogue = |defs: &[MetricDef], with_bound: bool| -> Vec<_> {
            defs.iter()
                .map(|d| {
                    let better = match d.better {
                        Higher => "higher",
                        Lower => "lower",
                    };
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        better.to_string(),
                        with_bound.then_some(d.bound),
                    )
                })
                .collect()
        };
        assert_eq!(listed("end_to_end", true), catalogue(END_TO_END, true));
        assert_eq!(listed("per_layer", false), catalogue(PER_LAYER, false));
        let workloads: Vec<String> = contract
            .field("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.field("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
        assert_eq!(
            contract
                .field("run_seconds")
                .and_then(Json::as_f64)
                .expect("run_seconds"),
            crate::suite::FULL_SECONDS
        );
    }

    #[test]
    fn tail_falls_back_to_the_pool_and_says_so() {
        let thin: Vec<Vec<f64>> = (0..5).map(|_| (1..=150).map(f64::from).collect()).collect();
        // 150 per slice cannot carry p95 (needs 200); 750 pooled can
        let (v, slices, how) = tail(&thin, 95.0).expect("samples");
        assert!(slices.is_none());
        assert_eq!(how, "pooled slices");
        assert_eq!(v, 143.0);
        // p99 of 750 has 7 beyond: reported, flagged
        let (_, _, how) = tail(&thin, 99.0).expect("samples");
        assert!(how.contains("fewer than 10"));
        let thick: Vec<Vec<f64>> = (0..5)
            .map(|_| (1..=1000).map(f64::from).collect())
            .collect();
        let (v, slices, how) = tail(&thick, 99.0).expect("samples");
        assert_eq!((v, how), (990.0, "median of slices"));
        assert!(slices.is_some());
    }
}
