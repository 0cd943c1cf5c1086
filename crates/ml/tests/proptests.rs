//! Property tests over the ML substrate's invariants.

use proptest::prelude::*;

use aimdb_common::{ColVec, Lane};
use aimdb_ml::bayes::GaussianNb;
use aimdb_ml::cluster::KMeans;
use aimdb_ml::data::Dataset;
use aimdb_ml::forecast::{solve, ArModel, Ewma, Forecaster, Holt, LastValue};
use aimdb_ml::linear::{GdParams, LinearRegression, LogisticRegression};
use aimdb_ml::metrics::{percentile, q_error};
use aimdb_ml::tree::{DecisionTree, TreeParams, TreeTask};

/// A feature column of `n` rows in one of the executor's three numeric
/// column types, cycling through `vals`.
fn lane(ty: usize, vals: &[f64], n: usize) -> ColVec {
    let at = |i: usize| vals[i % vals.len()] + (i / vals.len()) as f64 * 0.37;
    match ty {
        0 => ColVec::Int(Lane::from_vals(
            (0..n).map(|i| at(i).round() as i64).collect(),
        )),
        1 => ColVec::Float(Lane::from_vals((0..n).map(at).collect())),
        _ => ColVec::Bool(Lane::from_vals((0..n).map(|i| at(i) > 0.0).collect())),
    }
}

/// `predict_batch` over the lanes of `cols` must equal `predict_one` on
/// each row, bit for bit.
fn assert_batch_is_rowwise(
    what: &str,
    cols: &[ColVec],
    predict_one: impl Fn(&[f64]) -> f64,
    predict_batch: impl Fn(&[&[f64]], &mut [f64]),
) -> Result<(), String> {
    let lanes: Vec<_> = cols
        .iter()
        .map(|c| c.f64_lane().expect("numeric lane"))
        .collect();
    let lanes: Vec<&[f64]> = lanes.iter().map(|l| &l[..]).collect();
    let n = cols[0].len();
    let mut out = vec![f64::NAN; n];
    predict_batch(&lanes, &mut out);
    for (i, got) in out.iter().enumerate() {
        let row: Vec<f64> = lanes.iter().map(|l| l[i]).collect();
        let want = predict_one(&row);
        prop_assert!(
            got.to_bits() == want.to_bits(),
            "{what} row {i} of {n}: batch {got} vs one {want}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn predict_batch_is_predict_one_bit_for_bit(
        pts in prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 8..40),
        w0 in -3.0f64..3.0,
        w1 in -3.0f64..3.0,
        bias in -5.0f64..5.0,
    ) {
        let x: Vec<Vec<f64>> = pts.iter().map(|(a, b)| vec![*a, *b]).collect();
        let a: Vec<f64> = pts.iter().map(|(a, _)| *a).collect();
        let b: Vec<f64> = pts.iter().map(|(_, b)| *b).collect();
        let real: Vec<f64> = pts.iter().map(|(a, b)| 0.3 * a - 0.2 * b).collect();
        let class: Vec<f64> = pts.iter().map(|(a, b)| f64::from(a + b > 0.0)).collect();
        let reg = Dataset::new(x.clone(), real).expect("dataset");
        let cls = Dataset::new(x.clone(), class).expect("dataset");
        let gd = GdParams { epochs: 5, ..Default::default() };

        let linear = LinearRegression::fit(&reg, gd).expect("fit");
        let linear_raw = LinearRegression::from_weights(vec![w0, w1], bias);
        let logistic = LogisticRegression::fit(&cls, gd).expect("fit");
        let logistic_raw = LogisticRegression::from_weights(vec![w0, w1], bias);
        let tree = DecisionTree::fit(&cls, TreeParams::default()).expect("fit");
        let nb = GaussianNb::fit(&cls).expect("fit");
        let km = KMeans::fit(&x, 3, 20, 7).expect("fit");

        for n in [1usize, 7, 64, 1024] {
            for (ta, tb) in [(0, 1), (1, 1), (2, 0), (1, 2), (0, 0)] {
                let cols = [lane(ta, &a, n), lane(tb, &b, n)];
                assert_batch_is_rowwise("linear", &cols,
                    |r| linear.predict_one(r), |c, o| linear.predict_batch(c, o))?;
                assert_batch_is_rowwise("linear, no scaler", &cols,
                    |r| linear_raw.predict_one(r), |c, o| linear_raw.predict_batch(c, o))?;
                assert_batch_is_rowwise("logistic", &cols,
                    |r| logistic.predict_one(r), |c, o| logistic.predict_batch(c, o))?;
                assert_batch_is_rowwise("logistic, no scaler", &cols,
                    |r| logistic_raw.predict_one(r), |c, o| logistic_raw.predict_batch(c, o))?;
                assert_batch_is_rowwise("tree", &cols,
                    |r| tree.predict_one(r), |c, o| tree.predict_batch(c, o))?;
                assert_batch_is_rowwise("naive bayes", &cols,
                    |r| nb.predict_one(r), |c, o| nb.predict_batch(c, o))?;
                assert_batch_is_rowwise("k-means", &cols,
                    |r| km.assign(r) as f64, |c, o| km.predict_batch(c, o))?;
            }
        }
    }

    #[test]
    fn tree_classifier_predicts_only_seen_labels(
        rows in prop::collection::vec((any::<f64>(), any::<f64>(), 0i64..4), 5..80)
    ) {
        let rows: Vec<(f64, f64, i64)> = rows
            .into_iter()
            .map(|(a, b, c)| (a.clamp(-1e6, 1e6), b.clamp(-1e6, 1e6), c))
            .collect();
        let x: Vec<Vec<f64>> = rows.iter().map(|(a, b, _)| vec![*a, *b]).collect();
        let y: Vec<f64> = rows.iter().map(|(_, _, c)| *c as f64).collect();
        let ds = Dataset::new(x.clone(), y.clone()).expect("dataset");
        let t = DecisionTree::fit(&ds, TreeParams {
            task: TreeTask::Classification,
            ..Default::default()
        }).expect("fit");
        let labels: std::collections::HashSet<i64> = y.iter().map(|v| *v as i64).collect();
        for probe in &x {
            prop_assert!(labels.contains(&(t.predict_one(probe) as i64)));
        }
    }

    #[test]
    fn linear_regression_predictions_are_finite(
        pts in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 5..60)
    ) {
        let x: Vec<Vec<f64>> = pts.iter().map(|(a, _)| vec![*a]).collect();
        let y: Vec<f64> = pts.iter().map(|(_, b)| *b).collect();
        let ds = Dataset::new(x.clone(), y).expect("dataset");
        let m = LinearRegression::fit(&ds, GdParams { epochs: 50, ..Default::default() })
            .expect("fit");
        for probe in &x {
            prop_assert!(m.predict_one(probe).is_finite());
        }
    }

    #[test]
    fn kmeans_assignments_are_in_range(
        pts in prop::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 6..80),
        k in 1usize..5,
    ) {
        let points: Vec<Vec<f64>> = pts.iter().map(|(a, b)| vec![*a, *b]).collect();
        prop_assume!(k <= points.len());
        let km = KMeans::fit(&points, k, 30, 7).expect("fit");
        prop_assert_eq!(km.assignments.len(), points.len());
        prop_assert!(km.assignments.iter().all(|&a| a < k));
        prop_assert!(km.inertia >= 0.0);
        // assign() agrees with training assignment geometry
        for (p, &a) in points.iter().zip(&km.assignments) {
            prop_assert_eq!(km.assign(p), a);
        }
    }

    #[test]
    fn nb_is_scale_shift_consistent_on_split_data(
        shift in -50.0f64..50.0,
    ) {
        // two classes separated on one axis stay separable after a shift
        let x: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![if i < 20 { 0.0 } else { 10.0 } + shift, 1.0])
            .collect();
        let y: Vec<f64> = (0..40).map(|i| if i < 20 { 0.0 } else { 1.0 }).collect();
        let ds = Dataset::new(x, y).expect("dataset");
        let m = GaussianNb::fit(&ds).expect("fit");
        prop_assert_eq!(m.predict_one(&[shift - 1.0, 1.0]), 0.0);
        prop_assert_eq!(m.predict_one(&[shift + 11.0, 1.0]), 1.0);
    }

    #[test]
    fn forecasters_stay_finite_on_arbitrary_traces(
        trace in prop::collection::vec(0.0f64..1e6, 2..200)
    ) {
        let mut fs: Vec<Box<dyn Forecaster>> = vec![
            Box::new(LastValue::default()),
            Box::new(Ewma::new(0.3)),
            Box::new(Holt::new(0.5, 0.2)),
            Box::new(ArModel::new(3, 20)),
        ];
        for f in fs.iter_mut() {
            for &y in &trace {
                f.observe(y);
                prop_assert!(f.forecast().is_finite(), "{} diverged", f.name());
            }
        }
    }

    #[test]
    fn q_error_at_least_one_and_symmetric(a in 0.0f64..1e9, b in 0.0f64..1e9) {
        let q = q_error(a, b);
        prop_assert!(q >= 1.0);
        prop_assert!((q - q_error(b, a)).abs() < 1e-9);
    }

    #[test]
    fn percentile_is_monotone(xs in prop::collection::vec(-1e6f64..1e6, 1..100)) {
        let p25 = percentile(&xs, 25.0);
        let p50 = percentile(&xs, 50.0);
        let p95 = percentile(&xs, 95.0);
        prop_assert!(p25 <= p50 && p50 <= p95);
    }

    #[test]
    fn solve_recovers_known_solution(
        x0 in -10.0f64..10.0,
        x1 in -10.0f64..10.0,
    ) {
        // well-conditioned 2x2 system with known solution
        let a = vec![vec![3.0, 1.0], vec![1.0, 2.0]];
        let b = vec![3.0 * x0 + x1, x0 + 2.0 * x1];
        let sol = solve(a, b).expect("solvable");
        prop_assert!((sol[0] - x0).abs() < 1e-6);
        prop_assert!((sol[1] - x1).abs() < 1e-6);
    }
}
