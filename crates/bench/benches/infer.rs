//! E16 timing: the hybrid `PREDICT` query through SQL — per-row UDF (row
//! executor) vs batch kernel (vectorized executor) over 30k patients —
//! and the hybrid pushdown vs predict-all plan.

use criterion::{criterion_group, criterion_main, Criterion};

use aimdb_bench::{e16_patients, E16_PREDICT_SQL, E16_STORED_SQL};
use aimdb_db4ai::hybrid::{derive_pushdown, naive_plan, pushdown_plan, FeatureBounds};
use aimdb_ml::linear::LinearRegression;

fn bench_infer(c: &mut Criterion) {
    let db = e16_patients(30_000).expect("patients");
    let mut group = c.benchmark_group("e16_inference");
    for (executor, knob) in [("per_row_udf", 0), ("batch_kernel", 1)] {
        db.execute(&format!("SET vectorized_exec = {knob}"))
            .expect("knob");
        for (what, sql) in [
            ("predict", E16_PREDICT_SQL),
            ("stored_column", E16_STORED_SQL),
        ] {
            group.bench_function(&format!("{executor}/{what}"), |b| {
                b.iter(|| db.execute(sql).expect("query"))
            });
        }
    }

    let patients: Vec<Vec<f64>> = (0..100_000)
        .map(|i| vec![20.0 + (i * 7 % 60) as f64, (i % 10) as f64 / 2.0])
        .collect();
    let lin = LinearRegression::from_weights(vec![0.05, 0.8], 0.0);
    let bounds = FeatureBounds::from_matrix(&patients).expect("bounds");
    let pd = derive_pushdown(&lin, &bounds, 6.5, 0).expect("pushdown");
    group.bench_function("hybrid/predict_all", |b| {
        b.iter(|| naive_plan(&patients, &lin, 6.5).qualifying.len())
    });
    group.bench_function("hybrid/pushdown", |b| {
        b.iter(|| pushdown_plan(&patients, &lin, 6.5, &pd).qualifying.len())
    });
    group.finish();
}

criterion_group!(benches, bench_infer);
criterion_main!(benches);
