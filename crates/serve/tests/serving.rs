//! Integration tests for the serving subsystem — the acceptance
//! properties: micro-batched predictions bit-for-bit equal to
//! one-at-a-time `predict`, cache-hit accounting, hot-swap consistency,
//! and shedding under overload. The whole suite runs under CI's
//! `POSTVAR_NUM_THREADS = 1, 2, 4` matrix, which is what pins the
//! bit-for-bit guarantee across thread counts.

use pvqnn::features::FeatureBackend;
use pvqnn::model::RegressorMode;
use pvqnn::{FeatureGenerator, PostVarClassifier, PostVarRegressor, Strategy};
use serve::{spawn_worker, FeatureEngine, Prediction, Rejected, Server, ServerConfig, TenantId};
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use serve::demo_catalogue as catalogue;

fn regressor(backend: FeatureBackend) -> PostVarRegressor {
    let data = catalogue(20);
    let y: Vec<f64> = (0..20).map(|i| (i as f64 * 0.37).sin()).collect();
    let generator = FeatureGenerator::new(Strategy::observable_construction(4, 1), backend);
    PostVarRegressor::fit(generator, &data, &y, RegressorMode::Ridge(1e-6))
}

fn classifier() -> PostVarClassifier {
    let data = catalogue(20);
    let labels: Vec<f64> = (0..20).map(|i| (i % 2) as f64).collect();
    let generator = FeatureGenerator::new(
        Strategy::observable_construction(4, 1),
        FeatureBackend::Exact,
    );
    PostVarClassifier::fit(
        generator,
        &data,
        &labels,
        ml::LogisticConfig {
            epochs: 60,
            ..Default::default()
        },
    )
}

/// The headline guarantee: a micro-batched, cached, deadline-managed
/// server returns *exactly* the prediction a one-at-a-time `predict`
/// call produces — for the exact and the finite-shot backend, with
/// repeated (cache-hitting) points in the stream, across whatever
/// thread count this test process was pinned to.
#[test]
fn microbatched_predictions_match_one_at_a_time_bitwise() {
    for backend in [
        FeatureBackend::Exact,
        FeatureBackend::Shots {
            shots: 96,
            seed: 11,
        },
    ] {
        let model = regressor(backend);
        let server = Server::new(ServerConfig {
            max_batch: 7,
            ..Default::default()
        });
        server.deploy(model.clone());
        let points = catalogue(12);
        // 40 requests over 12 points: plenty of repeats → cache hits.
        let xs: Vec<&Vec<f64>> = (0..40).map(|i| &points[(i * 5) % 12]).collect();
        let handles: Vec<_> = xs
            .iter()
            .map(|x| server.submit((*x).clone()).expect("admitted"))
            .collect();
        server.drain();
        for (x, handle) in xs.iter().zip(handles) {
            let response = handle.wait().expect("served");
            let lone = model.predict(&[(*x).clone()])[0];
            assert_eq!(
                response.prediction,
                Prediction::Value(lone),
                "backend {backend:?}: batched prediction must equal lone predict bit-for-bit"
            );
        }
    }
}

#[test]
fn classifier_served_probabilities_match_bitwise() {
    let model = classifier();
    let server = Server::new(ServerConfig {
        max_batch: 5,
        ..Default::default()
    });
    server.deploy(model.clone());
    let points = catalogue(9);
    let handles: Vec<_> = (0..27)
        .map(|i| server.submit(points[(i * 2) % 9].clone()).unwrap())
        .collect();
    server.drain();
    for (i, handle) in handles.into_iter().enumerate() {
        let x = &points[(i * 2) % 9];
        let response = handle.wait().expect("served");
        let lone = model.predict_proba(std::slice::from_ref(x))[0];
        assert_eq!(response.prediction, Prediction::Probability(lone));
    }
}

/// Cache accounting: n distinct points requested r times each must cost
/// exactly n simulations; every repeat is a hit; small capacities evict.
#[test]
fn cache_hit_accounting_is_exact() {
    let model = regressor(FeatureBackend::Exact);
    let server = Server::new(ServerConfig {
        max_batch: 4,
        cache_capacity: 64,
        ..Default::default()
    });
    server.deploy(model);
    let points = catalogue(10);
    // Round-robin 30 requests over 10 points, batches of 4.
    for i in 0..30 {
        let _ = server.submit(points[i % 10].clone()).unwrap();
    }
    server.drain();
    let stats = server.stats();
    assert_eq!(stats.completed, 30);
    assert_eq!(
        stats.unique_simulations, 10,
        "one simulation per unique point"
    );
    assert_eq!(stats.cache.misses, 10);
    assert_eq!(stats.cache.hits, 20);
    assert_eq!(stats.cache.evictions, 0);
    assert_eq!(stats.cache.len, 10);
    assert!((stats.cache.hit_rate() - 2.0 / 3.0).abs() < 1e-12);

    // A capacity-4 cache under the same round-robin stream thrashes:
    // every lookup misses (the classic LRU worst case), but dedup within
    // each batch still bounds simulations by the requests issued.
    let tiny = Server::new(ServerConfig {
        max_batch: 4,
        cache_capacity: 4,
        ..Default::default()
    });
    tiny.deploy(regressor(FeatureBackend::Exact));
    for i in 0..20 {
        let _ = tiny.submit(points[i % 10].clone()).unwrap();
    }
    tiny.drain();
    let s = tiny.stats();
    assert!(s.cache.evictions > 0, "capacity pressure must evict");
    assert_eq!(s.cache.len, 4, "cache pinned at capacity");
    assert_eq!(
        s.cache.hits + s.cache.misses,
        20,
        "every request consults the cache"
    );
}

/// Duplicate points *within one batch* share a single simulation even
/// with the cache disabled.
#[test]
fn within_batch_dedup_shares_simulations() {
    let model = regressor(FeatureBackend::Exact);
    let server = Server::new(ServerConfig {
        max_batch: 8,
        cache_capacity: 0,
        ..Default::default()
    });
    server.deploy(model.clone());
    let x = catalogue(1).pop().unwrap();
    let handles: Vec<_> = (0..8).map(|_| server.submit(x.clone()).unwrap()).collect();
    assert_eq!(server.step(), 8, "one batch serves all 8");
    let want = model.predict(&[x])[0];
    for h in handles {
        let r = h.wait().unwrap();
        assert_eq!(r.prediction, Prediction::Value(want));
        assert!(!r.cache_hit, "cache disabled: these are shared misses");
    }
    let stats = server.stats();
    assert_eq!(
        stats.unique_simulations, 1,
        "8 identical requests, 1 simulation"
    );
}

/// Hot-swap: batches formed before a deploy serve the old version;
/// batches formed after serve the new one; rollback re-activates v1.
#[test]
fn hot_swap_serves_old_version_until_drained() {
    let v1_model = regressor(FeatureBackend::Exact);
    let v2_model = regressor(FeatureBackend::Shots { shots: 64, seed: 5 });
    let server = Server::new(ServerConfig {
        max_batch: 2,
        cache_capacity: 0, // rows must come from each version's own backend
        ..Default::default()
    });
    let v1 = server.deploy(v1_model.clone());
    let x = &catalogue(3)[2];

    let before = server.submit(x.clone()).unwrap();
    server.step(); // batch formed and served under v1
    let v2 = server.deploy(v2_model.clone());
    let after = server.submit(x.clone()).unwrap();
    server.step();

    let r1 = before.wait().unwrap();
    assert_eq!(r1.model, v1);
    assert_eq!(
        r1.prediction,
        Prediction::Value(v1_model.predict(std::slice::from_ref(x))[0])
    );
    let r2 = after.wait().unwrap();
    assert_eq!(r2.model, v2);
    assert_eq!(
        r2.prediction,
        Prediction::Value(v2_model.predict(std::slice::from_ref(x))[0])
    );
    assert_ne!(
        r1.prediction, r2.prediction,
        "the two versions genuinely differ"
    );

    // Rollback.
    assert!(server.registry().activate(v1));
    let rolled = server.submit(x.clone()).unwrap();
    server.drain();
    assert_eq!(rolled.wait().unwrap().model, v1);
}

/// The feature cache is segmented by generator fingerprint: versions
/// sharing a generator reuse each other's rows, and a hot-swap that
/// changes the quantum stage looks up a different segment instead of
/// serving stale rows. This test pins the reuse half; the next one pins
/// the isolation half.
#[test]
fn hot_swap_with_shared_generator_reuses_cache_safely() {
    let data = catalogue(20);
    let generator = FeatureGenerator::new(
        Strategy::observable_construction(4, 1),
        FeatureBackend::Exact,
    );
    let y1: Vec<f64> = (0..20).map(|i| i as f64).collect();
    let y2: Vec<f64> = (0..20).map(|i| -(i as f64)).collect();
    let m1 = PostVarRegressor::fit(generator.clone(), &data, &y1, RegressorMode::Ridge(1e-6));
    let m2 = PostVarRegressor::fit(generator, &data, &y2, RegressorMode::Ridge(1e-6));
    let server = Server::new(ServerConfig::default());
    server.deploy(m1);
    let x = &data[4];
    let h1 = server.submit(x.clone()).unwrap();
    server.drain();
    let _ = h1.wait().unwrap();
    server.deploy(m2.clone());
    let h2 = server.submit(x.clone()).unwrap();
    server.drain();
    let r2 = h2.wait().unwrap();
    assert!(r2.cache_hit, "same generator → row reused across versions");
    assert_eq!(
        r2.prediction,
        Prediction::Value(m2.predict(std::slice::from_ref(x))[0])
    );
}

/// Deploying a model whose *generator* differs (here: backend changed
/// from Exact to Shots) must not serve the old generator's rows — the
/// new version's predictions still match its own lone `predict`
/// bit-for-bit because its fingerprint probes a fresh cache segment.
#[test]
fn generator_changing_hot_swap_serves_from_own_segment() {
    let exact = regressor(FeatureBackend::Exact);
    let shots = regressor(FeatureBackend::Shots { shots: 64, seed: 5 });
    let server = Server::new(ServerConfig::default());
    server.deploy(exact);
    let x = &catalogue(3)[1];
    let warm = server.submit(x.clone()).unwrap();
    server.drain();
    assert!(warm.wait().is_ok());

    server.deploy(shots.clone());
    let h = server.submit(x.clone()).unwrap();
    server.drain();
    let r = h.wait().unwrap();
    assert!(!r.cache_hit, "new generator's segment starts cold");
    assert_eq!(
        r.prediction,
        Prediction::Value(shots.predict(std::slice::from_ref(x))[0]),
        "served row must come from the new generator"
    );
    // And the new generator's segment warms up.
    let h2 = server.submit(x.clone()).unwrap();
    server.drain();
    assert!(h2.wait().unwrap().cache_hit);
}

/// Segmentation (rather than a whole-cache flush) means a rollback to a
/// previously deployed generator finds its rows still warm: deploy v1,
/// warm it, hot-swap to a different generator, roll back — the original
/// point serves as a cache hit and still matches v1's lone `predict`
/// bit-for-bit.
#[test]
fn rollback_to_previous_generator_finds_segment_warm() {
    let exact = regressor(FeatureBackend::Exact);
    let shots = regressor(FeatureBackend::Shots { shots: 64, seed: 5 });
    let server = Server::new(ServerConfig::default());
    let v1 = server.deploy(exact.clone());
    let x = &catalogue(3)[2];
    let warm = server.submit(x.clone()).unwrap();
    server.drain();
    assert!(!warm.wait().unwrap().cache_hit);

    // Swap to a different generator, touching the same point.
    server.deploy(shots);
    let other = server.submit(x.clone()).unwrap();
    server.drain();
    assert!(!other.wait().unwrap().cache_hit);

    // Roll back: v1's segment survived the swap.
    assert!(server.registry().activate(v1));
    let rolled = server.submit(x.clone()).unwrap();
    server.drain();
    let r = rolled.wait().unwrap();
    assert!(r.cache_hit, "rollback must find its old segment warm");
    assert_eq!(
        r.prediction,
        Prediction::Value(exact.predict(std::slice::from_ref(x))[0])
    );
}

/// A hot-swap that changes the qubit count makes queued requests
/// invalid for the dispatching model: they get a typed rejection at
/// dispatch instead of panicking the batcher thread.
#[test]
fn qubit_count_hot_swap_rejects_queued_requests_typed() {
    let four_qubit = regressor(FeatureBackend::Exact);
    // A 3-qubit model invalidates the catalogue's 16-coordinate inputs
    // (16 % 3 != 0).
    let data3: Vec<Vec<f64>> = (0..12)
        .map(|i| (0..12).map(|j| 0.2 + 0.1 * ((i + j) % 7) as f64).collect())
        .collect();
    let y3: Vec<f64> = (0..12).map(|i| i as f64 * 0.2).collect();
    let three_qubit = PostVarRegressor::fit(
        FeatureGenerator::new(
            Strategy::observable_construction(3, 1),
            FeatureBackend::Exact,
        ),
        &data3,
        &y3,
        RegressorMode::Ridge(1e-6),
    );
    let server = Server::new(ServerConfig::default());
    server.deploy(four_qubit);
    let queued = server.submit(catalogue(1).pop().unwrap()).unwrap(); // 16 coords, valid for 4 qubits
    server.deploy(three_qubit); // 16 % 3 != 0 → queued request now invalid
    server.drain();
    assert!(
        matches!(
            queued.wait(),
            Err(Rejected::InvalidInput { len: 16, qubits: 3 })
        ),
        "dispatch-time validation must reject, not panic"
    );
    let stats = server.stats();
    assert_eq!(
        stats.rejected_invalid, 1,
        "dispatch-time invalidation is accounted"
    );
    assert_eq!(
        stats.submitted,
        stats.completed + stats.rejected_invalid,
        "the books balance: every admitted request is either completed or counted rejected"
    );
}

/// drain() must dispatch *everything* even when an entire micro-batch
/// expires on its deadlines (a zero-served batch is not an empty queue).
#[test]
fn drain_survives_whole_batches_expiring() {
    let server = Server::new(ServerConfig {
        max_batch: 2,
        ..Default::default()
    });
    server.deploy(regressor(FeatureBackend::Exact));
    let x = catalogue(1).pop().unwrap();
    let handles: Vec<_> = (0..6)
        .map(|_| server.submit_with_budget(x.clone(), Some(1)).unwrap())
        .collect();
    let fresh = server.submit_with_budget(x.clone(), None).unwrap();
    server.clock().advance_ns(1_000_000); // expire all six budgeted requests
    assert_eq!(server.drain(), 7, "every queued request is dispatched");
    for h in handles {
        assert!(matches!(h.wait(), Err(Rejected::DeadlineExceeded { .. })));
    }
    assert!(
        fresh.wait().is_ok(),
        "the live request behind them is still served"
    );
}

/// After stop(), new submissions are refused with `ShuttingDown` so no
/// request can be admitted that the exiting worker would never answer.
#[test]
fn submit_after_stop_is_rejected() {
    let server = Arc::new(Server::new(ServerConfig::default()));
    server.deploy(regressor(FeatureBackend::Exact));
    let x = catalogue(1).pop().unwrap();
    let admitted = server.submit(x.clone()).unwrap();
    let worker = spawn_worker(Arc::clone(&server));
    server.stop();
    worker.join().unwrap();
    assert!(admitted.wait().is_ok(), "admitted before stop → answered");
    assert_eq!(server.submit(x).err(), Some(Rejected::ShuttingDown));
}

/// A server dropped with requests still queued can never answer them:
/// their handles resolve to `ShuttingDown`, both blocking and polled,
/// instead of panicking in the client.
#[test]
fn dropped_server_resolves_queued_handles_shutting_down() {
    let server = Server::new(ServerConfig::default());
    server.deploy(regressor(FeatureBackend::Exact));
    let x = catalogue(1).pop().unwrap();
    let waited = server.submit(x.clone()).unwrap();
    let polled = server.submit(x).unwrap();
    assert_eq!(polled.try_take(), None, "queued, not yet served");
    drop(server);
    assert_eq!(polled.try_take(), Some(Err(Rejected::ShuttingDown)));
    assert_eq!(waited.wait(), Err(Rejected::ShuttingDown));
}

/// Overload: the hard bound and the hysteretic brownout controller both
/// reject with typed errors, and draining reopens admission. A single
/// anonymous tenant flooding trips the first ladder rung
/// (`TenantOverShare` — with one tenant, its fair share is the whole
/// drain target).
#[test]
fn shedding_under_overload() {
    let model = regressor(FeatureBackend::Exact);
    let server = Server::new(ServerConfig {
        max_batch: 2,
        queue_capacity: 16,
        high_water: 8,
        ..Default::default()
    });
    server.deploy(model);
    let points = catalogue(4);
    let mut admitted = Vec::new();
    let mut overloaded = 0usize;
    for i in 0..20 {
        match server.submit(points[i % 4].clone()) {
            Ok(h) => admitted.push(h),
            Err(Rejected::TenantOverShare { share, .. }) => {
                // One tenant → share = the low-water drain target (8/2).
                assert_eq!(share, 4);
                overloaded += 1;
            }
            Err(other) => panic!("unexpected rejection {other:?}"),
        }
    }
    assert_eq!(admitted.len(), 8, "exactly high_water requests admitted");
    assert_eq!(overloaded, 12, "everything above the mark is shed");
    let stats = server.stats();
    assert_eq!(stats.rejected_over_share, 12);
    assert_eq!(stats.rejected_total(), 12);

    // While still above low water (8/2 = 4), admission stays closed.
    server.step(); // 8 → 6 queued
    assert!(matches!(
        server.submit(points[0].clone()),
        Err(Rejected::TenantOverShare { .. })
    ));
    // Fully drained → hysteresis reopens.
    server.drain();
    assert!(
        server.submit(points[0].clone()).is_ok(),
        "drained server admits again"
    );
    server.drain();
    for h in admitted {
        assert!(h.wait().is_ok(), "admitted requests are all served");
    }

    // Hard bound: with shedding disabled (high_water = capacity) the
    // queue rejects QueueFull at exactly capacity.
    let hard = Server::new(ServerConfig {
        max_batch: 4,
        queue_capacity: 6,
        high_water: 6,
        ..Default::default()
    });
    hard.deploy(regressor(FeatureBackend::Exact));
    for _ in 0..6 {
        assert!(hard.submit(points[0].clone()).is_ok());
    }
    assert!(matches!(
        hard.submit(points[0].clone()),
        Err(Rejected::QueueFull { depth: 6 })
    ));
    hard.drain();
}

/// Deadline budgets: a request whose budget expires while queued is
/// dropped at dispatch with `DeadlineExceeded`, before any quantum work
/// is spent on it.
#[test]
fn deadline_budgets_drop_stale_requests_at_dispatch() {
    let model = regressor(FeatureBackend::Exact);
    let server = Server::new(ServerConfig {
        max_batch: 8,
        ..Default::default()
    });
    server.deploy(model);
    let x = catalogue(1).pop().unwrap();
    let stale = server.submit_with_budget(x.clone(), Some(1_000)).unwrap();
    let fresh = server.submit_with_budget(x.clone(), None).unwrap();
    // Time passes in the queue (e.g. other batches ran).
    server.clock().advance_ns(10_000);
    server.drain();
    match stale.wait() {
        Err(Rejected::DeadlineExceeded {
            deadline_ns,
            now_ns,
        }) => assert!(now_ns > deadline_ns),
        other => panic!("expected deadline rejection, got {other:?}"),
    }
    assert!(fresh.wait().is_ok(), "no-deadline request unaffected");
    let stats = server.stats();
    assert_eq!(stats.rejected_deadline, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(
        stats.unique_simulations, 1,
        "the stale request cost nothing"
    );
}

/// Misconfigured requests are rejected synchronously with typed errors.
#[test]
fn invalid_inputs_and_missing_model_are_typed_rejections() {
    let server = Server::new(ServerConfig::default());
    assert_eq!(
        server.submit(vec![0.1; 16]).err(),
        Some(Rejected::NoActiveModel)
    );
    server.deploy(regressor(FeatureBackend::Exact));
    assert!(matches!(
        server.submit(vec![0.1; 15]),
        Err(Rejected::InvalidInput { len: 15, qubits: 4 })
    ));
    assert!(matches!(
        server.submit(Vec::new()),
        Err(Rejected::InvalidInput { len: 0, .. })
    ));
    // Non-finite or huge coordinates would alias in the cache's
    // saturating key quantization (NaN → the all-zeros key), poisoning
    // entries for legitimate inputs — rejected at the door instead.
    let mut poisoned = vec![0.1; 16];
    poisoned[5] = f64::NAN;
    assert_eq!(
        server.submit(poisoned).err(),
        Some(Rejected::InvalidValue { index: 5 })
    );
    let mut huge = vec![0.1; 16];
    huge[2] = 1e12;
    assert_eq!(
        server.submit(huge).err(),
        Some(Rejected::InvalidValue { index: 2 })
    );
    // All four submit-time input rejections are visible to operators.
    assert_eq!(server.stats().rejected_invalid, 4);
    assert_eq!(server.stats().rejected_total(), 4);
}

/// The threaded drive mode: a dedicated batcher thread serves requests
/// submitted concurrently from several client threads; every response
/// is still bit-for-bit the lone-predict value, and stop() drains.
#[test]
fn worker_thread_serves_concurrent_clients_bitwise() {
    let model = regressor(FeatureBackend::Exact);
    let server = Arc::new(Server::new(ServerConfig {
        max_batch: 8,
        queue_capacity: 512,
        high_water: 512,
        default_deadline_ns: 0,
        ..Default::default()
    }));
    server.deploy(model.clone());
    let worker = spawn_worker(Arc::clone(&server));
    let points = Arc::new(catalogue(10));
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let server = Arc::clone(&server);
            let points = Arc::clone(&points);
            std::thread::spawn(move || {
                (0..25)
                    .map(|i| {
                        let x = points[(c * 25 + i) % 10].clone();
                        let got = server
                            .submit(x.clone())
                            .expect("admitted")
                            .wait()
                            .expect("served");
                        (x, got)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for client in clients {
        for (x, response) in client.join().unwrap() {
            let lone = model.predict(&[x])[0];
            assert_eq!(response.prediction, Prediction::Value(lone));
        }
    }
    server.stop();
    worker.join().unwrap();
    let stats = server.stats();
    assert_eq!(stats.completed, 100);
    assert_eq!(stats.submitted, 100);
    assert!(stats.cache.hits > 0, "10 unique points, 100 requests");
}

/// Runs `f` on its own thread and fails the test if it is still running
/// after `limit`: a lost wake-up shows up as a failure, not a stuck suite.
fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let runner = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(limit) {
        Ok(value) => value,
        Err(RecvTimeoutError::Timeout) => panic!("still running after {limit:?}: a lost wake-up"),
        Err(RecvTimeoutError::Disconnected) => match runner.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the runner sends before it returns"),
        },
    }
}

/// `stop` must wake a batcher however close it is to parking: 200 rounds
/// of spawn → stop → join, one at a time, each on a fresh server, and
/// none may hang.
#[test]
fn stop_always_wakes_the_batcher() {
    within(Duration::from_secs(60), || {
        for round in 0..200 {
            let server = Arc::new(Server::new(ServerConfig::default()));
            let worker = spawn_worker(Arc::clone(&server));
            if round % 2 == 1 {
                // Give the batcher time to park, half the rounds.
                std::thread::yield_now();
            }
            server.stop();
            worker.join().unwrap();
        }
    });
}

/// A lone client submitting one request at a time leaves the batcher
/// parked between requests, so every submit has to wake it and every
/// answer has to reach a client that may already be blocked.
#[test]
fn lone_client_is_answered_after_every_park() {
    let model = regressor(FeatureBackend::Exact);
    let points = catalogue(10);
    let expected: Vec<Prediction> = points
        .iter()
        .map(|x| Prediction::Value(model.predict(std::slice::from_ref(x))[0]))
        .collect();
    let server = Arc::new(Server::new(ServerConfig::default()));
    server.deploy(model);
    let client = Arc::clone(&server);
    within(Duration::from_secs(120), move || {
        let worker = spawn_worker(Arc::clone(&client));
        for i in 0..20_000 {
            let pid = i % points.len();
            let response = client
                .submit(points[pid].clone())
                .expect("admitted")
                .wait()
                .expect("served");
            assert_eq!(response.prediction, expected[pid], "request {i}");
        }
        client.stop();
        worker.join().unwrap();
    });
    let stats = server.stats();
    assert_eq!((stats.submitted, stats.completed), (20_000, 20_000));
}

/// Four clients blocked in `wait` at once, each on several requests:
/// every answer reaches its own client, bit for bit the standalone
/// `predict_proba_row` of a standalone-seeded feature row.
#[test]
fn concurrent_waiters_get_standalone_probabilities() {
    let model = classifier();
    let points = catalogue(12);
    let server = Arc::new(Server::new(ServerConfig {
        max_batch: 4,
        default_deadline_ns: 0,
        ..Default::default()
    }));
    server.deploy(model.clone());
    let ready = Arc::new(Barrier::new(5));
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let server = Arc::clone(&server);
            let ready = Arc::clone(&ready);
            let points = points.clone();
            std::thread::spawn(move || {
                let handles: Vec<_> = (0..6)
                    .map(|i| {
                        let pid = (c * 5 + i) % points.len();
                        (pid, server.submit(points[pid].clone()).expect("admitted"))
                    })
                    .collect();
                ready.wait();
                handles
                    .into_iter()
                    .map(|(pid, h)| (pid, h.wait().expect("served")))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    // Every request is queued before the batcher starts, so the clients
    // are blocked in `wait` when the first answers land.
    ready.wait();
    std::thread::sleep(Duration::from_millis(20));
    let batcher = Arc::clone(&server);
    within(Duration::from_secs(60), move || {
        let worker = spawn_worker(Arc::clone(&batcher));
        for client in clients {
            for (pid, response) in client.join().unwrap() {
                let row = &model
                    .generator()
                    .generate_rows_standalone(&[points[pid].as_slice()])[0];
                let lone = model.predict_proba_row(row);
                assert_eq!(response.prediction, Prediction::Probability(lone));
            }
        }
        batcher.stop();
        worker.join().unwrap();
    });
    assert_eq!(server.stats().completed, 24);
}

/// Clients already blocked in `wait` when the server is dropped with
/// their requests still queued are woken with `ShuttingDown`.
#[test]
fn dropped_server_wakes_blocked_waiters_shutting_down() {
    let server = Server::new(ServerConfig::default());
    server.deploy(regressor(FeatureBackend::Exact));
    let x = catalogue(1).pop().unwrap();
    let waiters: Vec<_> = (0..4)
        .map(|_| {
            let handle = server.submit(x.clone()).unwrap();
            std::thread::spawn(move || handle.wait())
        })
        .collect();
    std::thread::sleep(Duration::from_millis(20));
    drop(server);
    within(Duration::from_secs(60), move || {
        for waiter in waiters {
            assert_eq!(waiter.join().unwrap(), Err(Rejected::ShuttingDown));
        }
    });
}

/// A response is handed out once: a later poll reads `ShuttingDown`.
#[test]
fn try_take_hands_the_response_out_once() {
    let server = Server::new(ServerConfig::default());
    server.deploy(regressor(FeatureBackend::Exact));
    let handle = server.submit(catalogue(1).pop().unwrap()).unwrap();
    server.drain();
    assert!(matches!(handle.try_take(), Some(Ok(_))));
    assert_eq!(handle.try_take(), Some(Err(Rejected::ShuttingDown)));
    assert_eq!(handle.wait(), Err(Rejected::ShuttingDown));
}

/// Hot-swap under live traffic: four client threads across three
/// tenants submit through a dedicated batcher while a control thread
/// deploys v2 (same generator, different head) mid-stream and then
/// re-activates v1. Every response is bit-for-bit the lone `predict` of
/// the version that served it, every admitted request is answered
/// exactly once, and every tenant's books balance after stop().
#[test]
fn worker_thread_hot_swaps_under_concurrent_clients() {
    let points = catalogue(20);
    let generator = FeatureGenerator::new(
        Strategy::observable_construction(4, 1),
        FeatureBackend::Exact,
    );
    let y1: Vec<f64> = (0..20).map(|i| (i as f64 * 0.37).sin()).collect();
    let y2: Vec<f64> = (0..20).map(|i| (i as f64 * 0.37).cos()).collect();
    let m1 = PostVarRegressor::fit(generator.clone(), &points, &y1, RegressorMode::Ridge(1e-6));
    let m2 = PostVarRegressor::fit(generator, &points, &y2, RegressorMode::Ridge(1e-6));
    let lone = |m: &PostVarRegressor| -> Vec<Prediction> {
        points
            .iter()
            .map(|x| Prediction::Value(m.predict(std::slice::from_ref(x))[0]))
            .collect()
    };
    let (expect1, expect2) = (lone(&m1), lone(&m2));
    assert_ne!(expect1, expect2, "the two heads genuinely differ");

    // A low high-water mark so the flood of four clients also trips
    // fair-share shedding, which the books must account for.
    let max_batch = 8u64;
    let server = Arc::new(Server::new(ServerConfig {
        max_batch: max_batch as usize,
        queue_capacity: 64,
        high_water: 16,
        default_deadline_ns: 0,
        ..Default::default()
    }));
    let v1 = server.deploy(m1);
    let worker = spawn_worker(Arc::clone(&server));
    let done = Arc::new(AtomicBool::new(false));
    let points = Arc::new(points);
    let clients: Vec<_> = (0..4u32)
        .map(|c| {
            let server = Arc::clone(&server);
            let points = Arc::clone(&points);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let tenant = TenantId(c % 3);
                let mut answered = Vec::new();
                let mut shed = 0u64;
                let mut i = c as usize * 7;
                // At least one window per client, even one that starts
                // after the control thread is done, so every tenant
                // submits.
                loop {
                    // A window of in-flight requests, then wait on each.
                    let mut window = Vec::new();
                    for _ in 0..6 {
                        let pid = i % points.len();
                        i += 1;
                        match server.submit_for(tenant, points[pid].clone()) {
                            Ok(h) => window.push((pid, h)),
                            Err(Rejected::TenantOverShare { .. }) => shed += 1,
                            Err(other) => panic!("unexpected rejection {other}"),
                        }
                    }
                    if window.is_empty() {
                        std::thread::yield_now();
                    }
                    for (pid, h) in window {
                        answered.push((h.id(), pid, h.wait()));
                    }
                    if done.load(Ordering::SeqCst) {
                        break;
                    }
                }
                (tenant, answered, shed)
            })
        })
        .collect();

    // Control: every batch that starts after a swap serves the new
    // version, and at most one batch (≤ max_batch rows) is in flight
    // across it, so waiting for max_batch + 16 more completions
    // guarantees ≥ 16 responses from each phase.
    let control = {
        let server = Arc::clone(&server);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let completed_past = |target: u64| {
                while server.stats().completed < target {
                    std::thread::sleep(Duration::from_micros(200));
                }
            };
            completed_past(40);
            let v2 = server.deploy(m2);
            completed_past(server.stats().completed + max_batch + 16);
            assert!(server.registry().activate(v1));
            completed_past(server.stats().completed + max_batch + 16);
            done.store(true, Ordering::SeqCst);
            v2
        })
    };
    let v2 = control.join().unwrap();

    let mut ids = HashSet::new();
    let mut per_version: BTreeMap<u32, u64> = BTreeMap::new();
    // tenant → (admitted, completed, shed) as the clients saw them.
    let mut seen: BTreeMap<TenantId, (u64, u64, u64)> = BTreeMap::new();
    for client in clients {
        let (tenant, answered, shed) = client.join().unwrap();
        let books = seen.entry(tenant).or_default();
        books.2 += shed;
        for (id, pid, result) in answered {
            books.0 += 1;
            assert!(ids.insert(id), "request {id} answered twice");
            let r = result.expect("admitted, same qubit count, no deadline → served");
            books.1 += 1;
            assert_eq!(r.id, id);
            assert_eq!(r.tenant, tenant);
            let expected = if r.model == v1 {
                &expect1
            } else {
                assert_eq!(r.model, v2, "only v1 and v2 were ever active");
                &expect2
            };
            assert_eq!(r.prediction, expected[pid], "request {id} on {}", r.model);
            *per_version.entry(r.model.0).or_default() += 1;
        }
    }
    let served_by = |v: serve::ModelVersion| per_version.get(&v.0).copied().unwrap_or(0);
    assert!(served_by(v1) >= 40 + 16, "v1 served before and after");
    assert!(served_by(v2) >= 16, "v2 served mid-stream");

    server.stop();
    worker.join().unwrap();
    let stats = server.stats();
    assert_eq!(
        stats.completed,
        ids.len() as u64,
        "each answered exactly once"
    );
    assert_eq!(stats.per_tenant.len(), 3);
    for t in &stats.per_tenant {
        assert_eq!(t.submitted, t.shed + t.admitted, "tenant {}", t.tenant);
        assert_eq!(t.admitted, t.completed + t.dropped, "tenant {}", t.tenant);
        assert_eq!((t.admitted, t.completed, t.shed), seen[&t.tenant]);
    }
}

/// The QPU-pool engine serves the same exact-backend predictions as the
/// local engine (to numerical rounding — kernel summation orders
/// differ), and works end to end through the server.
#[test]
fn pool_engine_serves_through_qpu_pool() {
    use hpcq::QpuConfig;
    let model = regressor(FeatureBackend::Exact);
    let server = Server::with_engine(
        ServerConfig::default(),
        FeatureEngine::pool(2, QpuConfig::default()),
    );
    server.deploy(model.clone());
    let points = catalogue(5);
    let handles: Vec<_> = (0..10)
        .map(|i| server.submit(points[i % 5].clone()).unwrap())
        .collect();
    server.drain();
    for (i, h) in handles.into_iter().enumerate() {
        let r = h.wait().unwrap();
        let lone = model.predict(&[points[i % 5].clone()])[0];
        assert!(
            (r.prediction.as_f64() - lone).abs() < 1e-10,
            "pool-served {} vs lone {lone}",
            r.prediction.as_f64()
        );
    }
    assert_eq!(server.stats().unique_simulations, 5);
    assert!(
        !server.stats().any_fault_activity(),
        "healthy pool must not touch the fault path"
    );
}

/// A pool whose every submission fails still serves every prediction:
/// the degradation ladder falls back to the in-process local engine,
/// bit-for-bit what the local path computes, and the stats taxonomy
/// records the degradation instead of hiding it.
#[test]
fn dead_pool_degrades_to_local_fallback() {
    use hpcq::{FaultPolicy, QpuConfig, QpuPool, RetryPolicy};
    use std::sync::Mutex;
    let model = regressor(FeatureBackend::Exact);
    let broken = QpuConfig {
        fail_prob: 1.0,
        ..Default::default()
    };
    let pool = QpuPool::homogeneous(2, broken).with_fault_policy(FaultPolicy {
        retry: RetryPolicy {
            max_attempts_total: 3,
            ..Default::default()
        },
        ..Default::default()
    });
    let server = Server::with_engine(
        ServerConfig::default(),
        FeatureEngine::Pool(Mutex::new(pool)),
    );
    server.deploy(model.clone());
    let points = catalogue(4);
    let handles: Vec<_> = points
        .iter()
        .map(|p| server.submit(p.clone()).unwrap())
        .collect();
    server.drain();
    for (p, h) in points.iter().zip(handles) {
        let r = h.wait().expect("local fallback must serve the request");
        assert_eq!(
            r.prediction.as_f64(),
            model.predict(std::slice::from_ref(p))[0],
            "fallback rows are the local path, bit-for-bit"
        );
    }
    let stats = server.stats();
    assert!(stats.degraded_batches > 0, "ladder must record degradation");
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.rejected_backend, 0, "fallback, not shed");
    assert!(stats.any_fault_activity());
}

/// With local fallback disabled, a dead pool sheds requests with the
/// typed bottom-rung rejection instead of panicking the batcher thread.
#[test]
fn dead_pool_without_fallback_sheds_typed() {
    use hpcq::{FaultPolicy, QpuConfig, QpuPool, RetryPolicy};
    use std::sync::Mutex;
    let broken = QpuConfig {
        fail_prob: 1.0,
        ..Default::default()
    };
    let pool = QpuPool::homogeneous(2, broken).with_fault_policy(FaultPolicy {
        retry: RetryPolicy {
            max_attempts_total: 3,
            ..Default::default()
        },
        ..Default::default()
    });
    let server = Server::with_engine(
        ServerConfig {
            degraded_local_fallback: false,
            ..Default::default()
        },
        FeatureEngine::Pool(Mutex::new(pool)),
    );
    server.deploy(regressor(FeatureBackend::Exact));
    let points = catalogue(3);
    let handles: Vec<_> = points
        .iter()
        .map(|p| server.submit(p.clone()).unwrap())
        .collect();
    server.drain();
    for h in handles {
        match h.wait() {
            Err(Rejected::BackendUnavailable { failed_jobs }) => {
                assert!(failed_jobs > 0, "shed must carry the failure count")
            }
            Err(other) => panic!("expected BackendUnavailable, got {other}"),
            Ok(_) => panic!("a dead pool with fallback disabled cannot serve"),
        }
    }
    let stats = server.stats();
    assert_eq!(stats.rejected_backend, 3);
    assert_eq!(stats.completed, 0);
    assert_eq!(stats.rejected_total(), 3);
}

/// Cache hits are served even while the backend is inside an outage
/// window — only requests that actually need the dead pool are shed.
#[test]
fn cache_hits_survive_backend_outage() {
    use hpcq::{FaultPolicy, FaultSchedule, QpuConfig, QpuPool, RetryPolicy};
    use std::sync::Mutex;
    let model = regressor(FeatureBackend::Exact);
    // The lone device goes down 1 ns into its life: the warm-up batch's
    // single job dispatches at t = 0 and completes; everything after
    // lands inside the outage.
    let cfg = QpuConfig {
        faults: FaultSchedule::none().with_outage(1, u64::MAX),
        ..Default::default()
    };
    let pool = QpuPool::homogeneous(1, cfg).with_fault_policy(FaultPolicy {
        retry: RetryPolicy {
            max_attempts_total: 4,
            ..Default::default()
        },
        ..Default::default()
    });
    let server = Server::with_engine(
        ServerConfig {
            degraded_local_fallback: false,
            ..Default::default()
        },
        FeatureEngine::Pool(Mutex::new(pool)),
    );
    server.deploy(model.clone());
    let points = catalogue(2);
    let warm = server.submit(points[0].clone()).unwrap();
    server.drain();
    warm.wait().expect("warm-up while the device is up");
    // Device clock is now past the outage start.
    let hit_req = server.submit(points[0].clone()).unwrap();
    let miss_req = server.submit(points[1].clone()).unwrap();
    server.drain();
    let hit = hit_req.wait().expect("cache hit needs no backend");
    // Pool-computed rows match the local path to rounding (kernel
    // summation orders differ), same bound as the healthy-pool test.
    let lone = model.predict(&[points[0].clone()])[0];
    assert!(
        (hit.prediction.as_f64() - lone).abs() < 1e-10,
        "cached {} vs lone {lone}",
        hit.prediction.as_f64()
    );
    assert!(matches!(
        miss_req.wait(),
        Err(Rejected::BackendUnavailable { .. })
    ));
    let stats = server.stats();
    assert_eq!(stats.rejected_backend, 1);
    assert_eq!(stats.completed, 2);
    assert!(stats.cache.hits >= 1);
}
