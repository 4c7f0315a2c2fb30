//! Property-based tests for the supervised regressors.

use proptest::prelude::*;
use suod_linalg::Matrix;
use suod_supervised::{
    DecisionTreeRegressor, Error, KnnRegressor, RandomForestRegressor, Regressor, Ridge, TreeParams,
};

fn regression_problem() -> impl Strategy<Value = (Matrix, Vec<f64>)> {
    (4usize..40, 1usize..4).prop_flat_map(|(n, d)| {
        (
            proptest::collection::vec(-50.0f64..50.0, n * d),
            proptest::collection::vec(-10.0f64..10.0, d),
            -10.0f64..10.0,
        )
            .prop_map(move |(data, coefs, intercept)| {
                let x = Matrix::from_vec(n, d, data).expect("sized");
                let y: Vec<f64> = x
                    .rows_iter()
                    .map(|row| {
                        intercept + row.iter().zip(&coefs).map(|(&v, &c)| v * c).sum::<f64>()
                    })
                    .collect();
                (x, y)
            })
    })
}

fn all_regressors(seed: u64) -> Vec<Box<dyn Regressor>> {
    vec![
        Box::new(DecisionTreeRegressor::new(TreeParams::default(), seed)),
        Box::new(RandomForestRegressor::new(10, seed)),
        Box::new(Ridge::new(1e-6).expect("valid lambda")),
        Box::new(KnnRegressor::new(3).expect("valid k")),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn predictions_are_finite_and_sized((x, y) in regression_problem()) {
        for mut reg in all_regressors(3) {
            reg.fit(&x, &y).unwrap();
            let p = reg.predict(&x).unwrap();
            prop_assert_eq!(p.len(), x.nrows(), "{}", reg.name());
            prop_assert!(p.iter().all(|v| v.is_finite()), "{}", reg.name());
        }
    }

    #[test]
    fn ridge_recovers_linear_models((x, y) in regression_problem()) {
        // Ridge with tiny lambda must fit an exactly-linear target nearly
        // perfectly (up to conditioning).
        let spread = y.iter().cloned().fold(0.0f64, |a, v| a.max(v.abs())).max(1.0);
        let mut m = Ridge::new(1e-8).unwrap();
        m.fit(&x, &y).unwrap();
        let p = m.predict(&x).unwrap();
        for (pi, yi) in p.iter().zip(&y) {
            prop_assert!((pi - yi).abs() < 1e-3 * spread, "{pi} vs {yi}");
        }
    }

    #[test]
    fn tree_predictions_within_target_range((x, y) in regression_problem()) {
        // A CART leaf predicts a mean of training targets, so predictions
        // never leave [min y, max y].
        let lo = y.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut t = DecisionTreeRegressor::default();
        t.fit(&x, &y).unwrap();
        for p in t.predict(&x).unwrap() {
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
        }
    }

    #[test]
    fn forest_predictions_within_target_range((x, y) in regression_problem()) {
        let lo = y.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut f = RandomForestRegressor::new(8, 1);
        f.fit(&x, &y).unwrap();
        for p in f.predict(&x).unwrap() {
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
        }
    }

    #[test]
    fn deterministic_per_seed((x, y) in regression_problem(), seed in 0u64..64) {
        for (mut a, mut b) in all_regressors(seed).into_iter().zip(all_regressors(seed)) {
            a.fit(&x, &y).unwrap();
            b.fit(&x, &y).unwrap();
            prop_assert_eq!(a.predict(&x).unwrap(), b.predict(&x).unwrap(), "{}", a.name());
        }
    }

    #[test]
    fn constant_target_predicted_exactly((x, _) in regression_problem(), c in -5.0f64..5.0) {
        let y = vec![c; x.nrows()];
        for mut reg in all_regressors(0) {
            reg.fit(&x, &y).unwrap();
            for p in reg.predict(&x).unwrap() {
                prop_assert!((p - c).abs() < 1e-6, "{}: {p} vs {c}", reg.name());
            }
        }
    }
}

/// A single NaN or infinity in the features or the targets is a typed
/// error from every regressor — never a panic in the split search or the
/// linear solve, and never a silently fitted model.
#[test]
fn non_finite_training_data_is_rejected() {
    let x = Matrix::from_vec(6, 2, (0..12).map(f64::from).collect()).expect("sized");
    let y: Vec<f64> = (0..6).map(f64::from).collect();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut bad_x = x.clone();
        bad_x.set(3, 1, bad);
        let mut bad_y = y.clone();
        bad_y[4] = bad;
        for mut reg in all_regressors(0) {
            assert_eq!(
                reg.fit(&bad_x, &y),
                Err(Error::NonFiniteInput("features")),
                "{} with {bad} in x",
                reg.name()
            );
            assert_eq!(
                reg.fit(&x, &bad_y),
                Err(Error::NonFiniteInput("targets")),
                "{} with {bad} in y",
                reg.name()
            );
        }
    }
}
