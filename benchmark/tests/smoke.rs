//! Runs the whole suite in `--smoke` mode and holds its report to
//! `BENCHMARK.json`: every workload and metric named there is reported,
//! and nothing is reported that is not named there.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use aimdb_common::json::Json;

fn names(list: &Json) -> BTreeSet<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|entry| {
            entry
                .field("name")
                .and_then(Json::as_str)
                .expect("every entry has a name")
                .to_string()
        })
        .collect()
}

fn reported(cell: &Json, block: &str) -> BTreeSet<String> {
    let run = cell.field(block).expect("block present");
    assert_eq!(
        run.field("failed").and_then(Json::as_u64).expect("failed"),
        0,
        "{block}: an op failed in the smoke run"
    );
    match run.field("metrics").expect("metrics present") {
        Json::Obj(metrics) => metrics.keys().cloned().collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

#[test]
fn smoke_report_carries_exactly_the_names_in_benchmark_json() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let status = Command::new(env!("CARGO_BIN_EXE_aimdb-benchmark"))
        .arg("--smoke")
        .status()
        .expect("the benchmark binary starts");
    assert!(status.success(), "--smoke failed: {status}");

    let read = |path: &Path| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        Json::parse(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
    };
    let contract = read(&dir.join("../BENCHMARK.json"));
    let report = read(&dir.join("out/report.json"));

    let workloads = names(contract.field("workloads").expect("workloads"));
    let end_to_end = names(contract.field("end_to_end").expect("end_to_end"));
    let per_layer = names(contract.field("per_layer").expect("per_layer"));

    let sets = report.field("sets").and_then(Json::as_arr).expect("sets");
    assert_eq!(sets.len(), 1);
    let Json::Obj(cells) = &sets[0] else {
        panic!("a set is an object keyed by workload");
    };
    assert_eq!(
        cells.keys().cloned().collect::<BTreeSet<_>>(),
        workloads,
        "workloads reported vs BENCHMARK.json"
    );
    for (workload, cell) in cells {
        assert_eq!(
            reported(cell, "end_to_end"),
            end_to_end,
            "{workload}: end-to-end metrics reported vs BENCHMARK.json"
        );
        assert_eq!(
            reported(cell, "per_layer"),
            per_layer,
            "{workload}: per-layer metrics reported vs BENCHMARK.json"
        );
        assert!(
            dir.join(format!("out/{workload}.trace.json")).is_file(),
            "{workload}: trace file written"
        );
    }
    assert!(report.field("claim").expect("claim").is_null());
}
