//! End-to-end contracts for the `suod-pool/1` snapshot format and the
//! serving layer's zero-downtime hot reload.
//!
//! The persistence contract: `load(save(pool))` scores **bitwise
//! identically** to the original at any worker count, `save → load →
//! save` is **byte-identical** (the format has one canonical encoding),
//! corruption and version skew surface as typed errors (never panics),
//! and the committed golden fixture keeps loading forever — a snapshot
//! written by an old build must open under every future one. On the
//! serving side: a reload under concurrent submission drops zero
//! requests, and every answered batch is bitwise-equal to one of the
//! two pools' sequential scores.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use suod::prelude::*;
use suod_serve::{ManualClock, ScoreOutcome, ScoreService, ServeConfig, SubmitError};

/// 120 x 4 synthetic grid with planted outliers — big enough for every
/// detector family, small enough to fit dozens of pools per test.
fn data() -> Matrix {
    let mut rows: Vec<Vec<f64>> = (0..117)
        .map(|i| {
            vec![
                (i % 9) as f64 * 0.3,
                (i / 9) as f64 * 0.25,
                ((i * 5) % 11) as f64 * 0.1,
                ((i * 7) % 13) as f64 * 0.1,
            ]
        })
        .collect();
    rows.push(vec![11.0, 11.0, 11.0, 11.0]);
    rows.push(vec![-8.0, 12.0, -8.0, 12.0]);
    rows.push(vec![12.0, -8.0, 12.0, -8.0]);
    Matrix::from_rows(&rows).unwrap()
}

/// Query rows disjoint from the training grid.
fn queries() -> Matrix {
    let rows: Vec<Vec<f64>> = (0..23)
        .map(|i| {
            let k = i as f64;
            vec![
                (k * 0.31) % 2.4,
                (k * 0.47) % 2.1,
                (k * 0.59) % 1.0,
                (k * 0.73) % 1.2,
            ]
        })
        .collect();
    Matrix::from_rows(&rows).unwrap()
}

/// One of every persistable model family — the snapshot codec must
/// round-trip all thirteen spec variants, not just the easy ones.
fn full_pool() -> Vec<ModelSpec> {
    vec![
        ModelSpec::Knn {
            n_neighbors: 5,
            method: KnnMethod::Largest,
        },
        ModelSpec::Knn {
            n_neighbors: 8,
            method: KnnMethod::Mean,
        },
        ModelSpec::Lof {
            n_neighbors: 7,
            metric: Metric::Manhattan,
        },
        ModelSpec::Abod { n_neighbors: 6 },
        ModelSpec::Hbos {
            n_bins: 8,
            tolerance: 0.3,
        },
        ModelSpec::IForest {
            n_estimators: 12,
            max_features: 0.8,
        },
        ModelSpec::Cblof { n_clusters: 4 },
        ModelSpec::Ocsvm {
            nu: 0.3,
            kernel: Kernel::Rbf { gamma: 0.5 },
        },
        ModelSpec::FeatureBagging { n_estimators: 3 },
        ModelSpec::Loop { n_neighbors: 9 },
        ModelSpec::Pca {
            variance_retained: 0.3,
        },
        ModelSpec::Loda {
            n_members: 6,
            n_bins: 10,
        },
        ModelSpec::Cof { n_neighbors: 7 },
        ModelSpec::Chaos {
            mode: ChaosMode::Passthrough,
            n_neighbors: 5,
        },
    ]
}

fn fit(builder: SuodBuilder, x: &Matrix) -> Suod {
    let mut clf = builder.build().expect("valid config");
    clf.fit(x).expect("fit succeeds");
    clf
}

/// The qualitatively different configurations the format must carry:
/// the default pipeline, every stage disabled, mixed-precision GEMM
/// kernels, and the approximate HNSW neighbour backend.
fn config_variants() -> Vec<(&'static str, SuodBuilder)> {
    vec![
        (
            "default",
            Suod::builder().base_estimators(full_pool()).seed(7),
        ),
        (
            "stages-off",
            Suod::builder()
                .base_estimators(full_pool())
                .with_projection(false)
                .with_approximation(false)
                .with_bps(false)
                .contamination(0.05)
                .seed(11),
        ),
        (
            "gemm-mixed",
            Suod::builder()
                .base_estimators(full_pool())
                .kernel(
                    KernelConfig::default()
                        .with_backend(DistanceBackend::Gemm)
                        .with_precision(Precision::Mixed)
                        .with_kdtree_crossover_dim(0),
                )
                .seed(13),
        ),
        (
            "hnsw",
            Suod::builder()
                .base_estimators(full_pool())
                .kernel(
                    KernelConfig::default().with_neighbor(NeighborBackend::Hnsw(
                        HnswParams {
                            min_rows: 0, // engage the graph even at 120 rows
                            ..HnswParams::default()
                        }
                        .with_ef_search(64),
                    )),
                )
                .with_approximation(false)
                .seed(17),
        ),
    ]
}

#[test]
fn round_trip_scores_bitwise_identical_across_worker_counts() {
    let x = data();
    let q = queries();
    for n_workers in [1usize, 8] {
        for (name, builder) in config_variants() {
            let clf = fit(builder.n_workers(n_workers), &x);
            let loaded = Suod::load_from_bytes(&clf.save_to_bytes().expect("save")).expect("load");

            assert_eq!(
                clf.decision_function(&q).unwrap().as_slice(),
                loaded.decision_function(&q).unwrap().as_slice(),
                "{name}: per-model scores drifted at n_workers={n_workers}"
            );
            assert_eq!(
                clf.combined_scores(&q).unwrap(),
                loaded.combined_scores(&q).unwrap(),
                "{name}: combined scores drifted at n_workers={n_workers}"
            );
            assert_eq!(
                clf.predict(&q).unwrap(),
                loaded.predict(&q).unwrap(),
                "{name}: labels drifted at n_workers={n_workers}"
            );
            assert_eq!(clf.threshold().unwrap(), loaded.threshold().unwrap());
            assert_eq!(
                clf.training_combined_scores().unwrap(),
                loaded.training_combined_scores().unwrap(),
                "{name}: training scores drifted"
            );
        }
    }
}

#[test]
fn save_load_save_is_byte_identical() {
    let x = data();
    for (name, builder) in config_variants() {
        let clf = fit(builder, &x);
        let first = clf.save_to_bytes().expect("save");
        let loaded = Suod::load_from_bytes(&first).expect("load");
        let second = loaded.save_to_bytes().expect("re-save");
        assert_eq!(first, second, "{name}: snapshot is not canonical");
    }
}

#[test]
fn quarantined_models_survive_the_round_trip() {
    let x = data();
    let mut pool = full_pool();
    // A model that panics on every fit attempt: retries exhaust, the
    // model lands in quarantine, and the 0.5 floor lets fit succeed.
    pool.push(ModelSpec::Chaos {
        mode: ChaosMode::PanicOnFit,
        n_neighbors: 5,
    });
    let clf = fit(
        Suod::builder()
            .base_estimators(pool)
            .min_healthy_fraction(0.5)
            .max_model_retries(1)
            .seed(7),
        &x,
    );
    let health = clf.diagnostics().expect("fitted").health();
    assert!(health.quarantined() > 0, "chaos model must be quarantined");

    let loaded = Suod::load_from_bytes(&clf.save_to_bytes().unwrap()).expect("load");
    let reloaded_health = loaded.diagnostics().expect("fitted").health();
    assert_eq!(health.quarantined(), reloaded_health.quarantined());
    assert_eq!(health.healthy(), reloaded_health.healthy());
    for (a, b) in health.reports().iter().zip(reloaded_health.reports()) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.name, b.name);
        assert_eq!(a.status, b.status);
        assert_eq!(a.attempts, b.attempts);
    }

    let q = queries();
    assert_eq!(
        clf.combined_scores(&q).unwrap(),
        loaded.combined_scores(&q).unwrap(),
        "survivor-only combination drifted through the snapshot"
    );
}

#[test]
fn corruption_and_version_skew_are_typed_errors_not_panics() {
    let x = data();
    let clf = fit(Suod::builder().base_estimators(full_pool()).seed(7), &x);
    let good = clf.save_to_bytes().unwrap();

    // Flip one payload byte: the signature check must name both sides.
    let mut garbled = good.clone();
    let last = garbled.len() - 1;
    garbled[last] ^= 0x01;
    match Suod::load_from_bytes(&garbled) {
        Err(suod::Error::SnapshotCorrupt { expected, actual }) => {
            assert_ne!(expected, actual);
            assert!(expected.starts_with("fnv1a64:"), "{expected}");
        }
        other => panic!("expected SnapshotCorrupt, got {other:?}"),
    }

    // Wrong magic: not a snapshot at all.
    let mut wrong_magic = good.clone();
    wrong_magic[0] = b'X';
    assert!(matches!(
        Suod::load_from_bytes(&wrong_magic),
        Err(suod::Error::SnapshotFormat(_))
    ));

    // A future format version must be refused, not misparsed. The
    // version field is the little-endian u64 right after the magic.
    let mut future = good.clone();
    future[8] = 99;
    assert!(matches!(
        Suod::load_from_bytes(&future),
        Err(suod::Error::SnapshotFormat(_))
    ));

    // Truncation anywhere must error cleanly. Step coarsely: every
    // prefix length is a distinct parse state and none may panic.
    for cut in (0..good.len() - 1).step_by(97) {
        assert!(
            Suod::load_from_bytes(&good[..cut]).is_err(),
            "truncation at {cut} bytes must fail"
        );
    }

    // Trailing garbage is corruption too (canonical encoding).
    let mut padded = good.clone();
    padded.extend_from_slice(b"junk");
    assert!(Suod::load_from_bytes(&padded).is_err());
}

/// The committed fixture's exact configuration — regenerate with
/// `cargo test -p suod-system-tests --test persistence -- --ignored`.
fn golden_estimator() -> Suod {
    fit(
        Suod::builder()
            .base_estimators(vec![
                ModelSpec::Hbos {
                    n_bins: 8,
                    tolerance: 0.3,
                },
                ModelSpec::IForest {
                    n_estimators: 10,
                    max_features: 1.0,
                },
                ModelSpec::Knn {
                    n_neighbors: 5,
                    method: KnnMethod::Mean,
                },
                ModelSpec::Lof {
                    n_neighbors: 6,
                    metric: Metric::Euclidean,
                },
            ])
            .n_workers(1)
            .seed(7),
        &data(),
    )
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden.suod")
}

#[test]
#[ignore = "writes the committed fixture; run once when the format version bumps"]
fn regenerate_golden_fixture() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    golden_estimator().save(&path).unwrap();
}

/// Format stability: the fixture bytes in git were written by the build
/// that introduced `suod-pool/1`. Every later build must (a) load them,
/// (b) score with them, and (c) re-encode them byte-for-byte — if this
/// test fails, the format changed and the version must be bumped
/// instead.
#[test]
fn golden_fixture_still_loads_and_reencodes_identically() {
    let bytes = std::fs::read(golden_path()).expect("committed fixture present");
    let loaded = Suod::load_from_bytes(&bytes).expect("golden fixture loads");
    assert_eq!(loaded.n_models(), 4);
    assert_eq!(loaded.n_features().unwrap(), 4);
    assert_eq!(loaded.save_to_bytes().unwrap(), bytes, "format drifted");

    // The fixture must score exactly like a fresh fit of its recipe —
    // the repo-wide determinism contract extended across process exits.
    let q = queries();
    let fresh = golden_estimator();
    assert_eq!(
        fresh.combined_scores(&q).unwrap(),
        loaded.combined_scores(&q).unwrap(),
        "fixture scores drifted from a fresh deterministic fit"
    );
}

#[test]
fn hot_reload_under_concurrent_load_drops_nothing() {
    let x = data();
    let q = queries();
    let pool_a = fit(
        Suod::builder()
            .base_estimators(full_pool())
            .n_workers(2)
            .seed(7),
        &x,
    );
    let expected_a = pool_a.combined_scores(&q).unwrap();

    // Replacement pools arrive as snapshots, like a production reload.
    let replacement_bytes = {
        let pool_b = fit(
            Suod::builder()
                .base_estimators(vec![
                    ModelSpec::Hbos {
                        n_bins: 10,
                        tolerance: 0.2,
                    },
                    ModelSpec::IForest {
                        n_estimators: 15,
                        max_features: 1.0,
                    },
                    ModelSpec::Knn {
                        n_neighbors: 6,
                        method: KnnMethod::Mean,
                    },
                ])
                .n_workers(2)
                .seed(21),
            &x,
        );
        pool_b.save_to_bytes().unwrap()
    };
    let expected_b = Suod::load_from_bytes(&replacement_bytes)
        .unwrap()
        .combined_scores(&q)
        .unwrap();

    let clock = Arc::new(ManualClock::new());
    let service = Arc::new(
        ScoreService::with_parts(
            pool_a,
            ServeConfig {
                queue_capacity: 16,
                ..ServeConfig::default()
            },
            clock,
            suod_observe::noop(),
        )
        .unwrap(),
    );

    const CLIENTS: usize = 4;
    const REQUESTS_PER_CLIENT: usize = 24;
    const RELOADS: usize = 3;
    let finished = Arc::new(AtomicUsize::new(0));
    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        let service = Arc::clone(&service);
        let finished = Arc::clone(&finished);
        let rows = q.clone();
        clients.push(std::thread::spawn(move || {
            let mut outcomes = Vec::new();
            for _ in 0..REQUESTS_PER_CLIENT {
                let ticket = loop {
                    match service.submit(rows.clone()) {
                        Ok(t) => break t,
                        Err(SubmitError::Busy { .. }) => std::thread::yield_now(),
                        Err(e) => panic!("submit failed: {e}"),
                    }
                };
                outcomes.push(ticket.wait());
            }
            finished.fetch_add(1, Ordering::SeqCst);
            outcomes
        }));
    }

    // The main thread plays dispatcher and operator at once: serve
    // batches continuously, hot-swap the pool mid-stream three times.
    let mut reloads_done = 0;
    let mut batches = 0u64;
    while finished.load(Ordering::SeqCst) < CLIENTS {
        if service.process_once() > 0 {
            batches += 1;
            // Interleave reloads with live traffic.
            if reloads_done < RELOADS && batches % 7 == 3 {
                let clf = Suod::load_from_bytes(&replacement_bytes).unwrap();
                let report = service.reload(clf).expect("reload accepted");
                reloads_done += 1;
                assert_eq!(report.epoch, reloads_done as u64);
                assert_eq!(report.total_models, 3);
            }
        } else {
            std::thread::yield_now();
        }
    }
    service.process_once(); // drain any straggler admitted after the last loop check

    let mut scored = 0usize;
    let mut on_a = 0usize;
    let mut on_b = 0usize;
    for client in clients {
        for outcome in client.join().expect("client thread") {
            match outcome {
                ScoreOutcome::Scored(batch) => {
                    scored += 1;
                    assert!(batch.faults.is_empty(), "healthy pools must not fault");
                    if batch.combined == expected_a {
                        on_a += 1;
                    } else if batch.combined == expected_b {
                        on_b += 1;
                    } else {
                        panic!("batch scores match neither pool generation");
                    }
                }
                other => panic!("request dropped by reload: {other:?}"),
            }
        }
    }
    assert_eq!(
        scored,
        CLIENTS * REQUESTS_PER_CLIENT,
        "every request answered"
    );
    assert!(
        on_a > 0,
        "some batches must have scored on the original pool"
    );
    assert!(on_b > 0, "some batches must have scored on the replacement");

    let report = service.report();
    assert_eq!(report.reloads, RELOADS as u64);
    assert_eq!(report.pool_epoch, RELOADS as u64);
    assert_eq!(
        report.requests_scored,
        (CLIENTS * REQUESTS_PER_CLIENT) as u64
    );
    assert_eq!(report.requests_failed, 0);
    assert_eq!(report.shed, 0);
    assert_eq!(report.total_models, 3, "report reflects the reloaded pool");
}

#[test]
fn warm_refit_reuses_survivors_and_stays_deterministic() {
    let x = data();
    let q = queries();
    let specs = full_pool();
    let spans = |recorder: &RecordingObserver, stage: suod::observe::Stage| {
        recorder.trace().spans_of(stage).count()
    };
    let model_fits = |recorder: &RecordingObserver| {
        spans(recorder, suod::observe::Stage::ModelFit)
            + spans(recorder, suod::observe::Stage::ModelRetry)
    };
    let distills = |recorder: &RecordingObserver| spans(recorder, suod::observe::Stage::PsaDistill);
    // The RP-off recipe, then the defaults (RP + PSA on): carried-over
    // models must line up with a cold fit whether or not their feature
    // spaces are projected.
    let config = |projection: bool| Suod::builder().with_projection(projection).seed(7);
    // One proximity spec (kNN, PSA-distilled) and one cheap spec (HBOS).
    let mut modified = specs.clone();
    modified[0] = ModelSpec::Knn {
        n_neighbors: 6,
        method: KnnMethod::Largest,
    };
    modified[4] = ModelSpec::Hbos {
        n_bins: 12,
        tolerance: 0.2,
    };

    for (name, projection) in [("rp-off", false), ("defaults", true)] {
        for workers in [1, 2] {
            let ctx = format!("{name}, {workers} worker(s)");
            let recorder = Arc::new(RecordingObserver::new());
            let mut warm = fit(
                config(projection)
                    .base_estimators(specs.clone())
                    .n_workers(workers)
                    .observer(recorder.clone()),
                &x,
            );
            let after_cold = model_fits(&recorder);
            assert_eq!(after_cold, specs.len(), "{ctx}");
            let distills_cold = distills(&recorder);
            let expected = warm.combined_scores(&q).unwrap();

            // Identical recipe on identical data: every model is carried
            // over, zero model fits and distillations run, and no score
            // bit moves.
            warm.warm_refit(&x, specs.clone()).expect("warm refit");
            assert_eq!(
                model_fits(&recorder),
                after_cold,
                "{ctx}: a no-op warm refit must not refit any model"
            );
            assert_eq!(
                distills(&recorder),
                distills_cold,
                "{ctx}: a no-op warm refit must not distill any model"
            );
            assert_eq!(warm.combined_scores(&q).unwrap(), expected, "{ctx}");

            // Change two specs: exactly those two models refit, only the
            // costly one is distilled, and the result is bitwise-equal to
            // a cold fit of the modified recipe.
            warm.warm_refit(&x, modified.clone()).expect("warm refit");
            assert_eq!(
                model_fits(&recorder),
                after_cold + 2,
                "{ctx}: changing two specs must refit exactly two models"
            );
            assert_eq!(
                distills(&recorder),
                distills_cold + 1,
                "{ctx}: only the changed costly model is distilled again"
            );
            let cold = fit(
                config(projection)
                    .base_estimators(modified.clone())
                    .n_workers(workers),
                &x,
            );
            assert_eq!(
                warm.combined_scores(&q).unwrap(),
                cold.combined_scores(&q).unwrap(),
                "{ctx}: warm refit must match a cold fit of the new recipe bitwise"
            );
            assert_eq!(
                warm.threshold().unwrap(),
                cold.threshold().unwrap(),
                "{ctx}"
            );

            // New data is refused, never silently retrained.
            assert!(warm.warm_refit(&q, specs.clone()).is_err(), "{ctx}");
        }
    }
}

#[test]
fn failed_warm_refit_keeps_the_previous_pool_scoring() {
    let x = data();
    let q = queries();
    let mut clf = fit(Suod::builder().base_estimators(full_pool()).seed(7), &x);
    let before = clf.combined_scores(&q).unwrap();
    let labels = clf.predict(&q).unwrap();

    // A 15th spec that cannot be built fails the refit with a typed
    // error; the previous 14-model pool must keep serving untouched.
    let mut broken = full_pool();
    broken.push(ModelSpec::Knn {
        n_neighbors: 0,
        method: KnnMethod::Largest,
    });
    assert!(clf.warm_refit(&x, broken).is_err());
    assert_eq!(clf.n_models(), full_pool().len());
    assert_eq!(clf.combined_scores(&q).unwrap(), before);
    assert_eq!(clf.predict(&q).unwrap(), labels);

    // The estimator stays warm: a valid refit still works afterwards.
    clf.warm_refit(&x, full_pool()).expect("warm refit");
    assert_eq!(clf.combined_scores(&q).unwrap(), before);
}
