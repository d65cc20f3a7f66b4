//! Integration tests for multi-tenant overload robustness: EDF batch
//! formation, weighted-fair admission with the brownout ladder,
//! per-tenant accounting, trace replay, and the composed
//! overload-plus-outage chaos scenario. Runs under CI's
//! `POSTVAR_NUM_THREADS = 1, 2, 4` matrix like the rest of the serving
//! suite — tenant isolation must not depend on the thread count.

use pvqnn::features::FeatureBackend;
use pvqnn::model::RegressorMode;
use pvqnn::{FeatureGenerator, PostVarRegressor, Strategy};
use serve::{
    replay_trace, synthesize_trace, BrownoutLevel, FeatureEngine, Prediction, RateProfile,
    Rejected, Server, ServerConfig, TenantId, TenantLoad,
};

use serve::demo_catalogue as catalogue;

fn regressor() -> PostVarRegressor {
    let data = catalogue(20);
    let y: Vec<f64> = (0..20).map(|i| (i as f64 * 0.37).sin()).collect();
    let generator = FeatureGenerator::new(
        Strategy::observable_construction(4, 1),
        FeatureBackend::Exact,
    );
    PostVarRegressor::fit(generator, &data, &y, RegressorMode::Ridge(1e-6))
}

/// The EDF satellite, pinned: a tight-deadline request admitted *after*
/// a burst of slack ones jumps the queue and is served in the very next
/// micro-batch, while the burst's tail keeps waiting.
#[test]
fn tight_deadline_request_overtakes_a_slack_burst() {
    let server = Server::new(ServerConfig {
        max_batch: 4,
        ..Default::default()
    });
    server.deploy(regressor());
    let points = catalogue(9);
    // Eight slack requests (no deadline), then one tight one behind them.
    let slack: Vec<_> = (0..8)
        .map(|i| {
            server
                .submit_with_budget(points[i].clone(), None)
                .expect("admitted")
        })
        .collect();
    let tight = server
        .submit_with_budget(points[8].clone(), Some(1_000_000))
        .expect("admitted");
    assert_eq!(server.step(), 4, "one full micro-batch dispatched");
    let served = tight.try_take().expect("tight deadline served first");
    assert!(served.is_ok(), "served, not deadline-dropped");
    // EDF ties (no deadline) break FIFO: the burst's head rode along,
    // its tail did not.
    assert!(slack[0].try_take().is_some(), "burst head filled the batch");
    assert!(slack[7].try_take().is_none(), "burst tail still queued");
    server.drain();
    for h in slack.into_iter().skip(1) {
        assert!(h.wait().is_ok());
    }
}

/// The isolation acceptance property at test scale: a tenant flooding
/// far past its fair share is shed at the door while an equal-weight
/// well-behaved tenant keeps 100% availability — and every prediction
/// the well-behaved tenant receives is bit-for-bit what a lone
/// `predict` call returns.
#[test]
fn flooding_tenant_cannot_starve_a_well_behaved_one() {
    let model = regressor();
    let server = Server::new(ServerConfig {
        max_batch: 8,
        queue_capacity: 32,
        high_water: 16,
        ..Default::default()
    });
    server.deploy(model.clone());
    let good = TenantId(1);
    let flood = TenantId(2);
    server.set_tenant_weight(good, 1);
    server.set_tenant_weight(flood, 1);
    let points = catalogue(12);
    let mut good_handles = Vec::new();
    let mut flood_sheds = 0u64;
    for round in 0..30 {
        // The flooder offers 8 requests per round, the good tenant 1.
        for i in 0..8 {
            match server.submit_for(flood, points[(round + i) % 12].clone()) {
                Ok(_) => {}
                Err(Rejected::TenantOverShare { tenant, .. }) => {
                    assert_eq!(tenant, flood, "only the flooder is shed");
                    flood_sheds += 1;
                }
                Err(other) => panic!("unexpected rejection {other:?}"),
            }
        }
        let point = round % 12;
        let handle = server
            .submit_for(good, points[point].clone())
            .unwrap_or_else(|e| panic!("well-behaved tenant shed in round {round}: {e}"));
        good_handles.push((point, handle));
        server.step();
    }
    server.drain();
    assert!(flood_sheds > 0, "the flood must actually trip the ladder");
    for (point, handle) in good_handles {
        let response = handle.wait().expect("well-behaved request served");
        assert_eq!(
            response.prediction,
            Prediction::Value(model.predict(std::slice::from_ref(&points[point]))[0]),
            "bit-for-bit identical to a lone predict"
        );
    }
    let stats = server.stats();
    let g = stats.tenant(good).expect("good tenant accounted");
    assert_eq!(g.submitted, 30);
    assert_eq!(g.completed, 30);
    assert_eq!(g.shed, 0);
    assert_eq!(g.availability(), 1.0);
    let f = stats.tenant(flood).expect("flooder accounted");
    assert_eq!(f.shed, flood_sheds);
    assert!(f.completed > 0, "the flooder still gets its fair share");
}

/// The full brownout ladder, walked at server level: over-share sheds
/// first, slack traffic is deferred next, global shed is the last rung
/// — each with its own typed rejection and counter — and draining
/// releases the rungs back to normal.
#[test]
fn brownout_ladder_walks_all_rungs_and_releases() {
    let server = Server::new(ServerConfig {
        max_batch: 16,
        queue_capacity: 64,
        high_water: 16, // low 8, defer 40, shed 58
        ..Default::default()
    });
    server.deploy(regressor());
    let points = catalogue(8);
    // 45 singleton tenants: each is under its fair share, so all are
    // admitted even after the high-water rung trips at depth 16.
    for t in 1..=45u32 {
        server
            .submit_for(TenantId(t), points[t as usize % 8].clone())
            .unwrap_or_else(|e| panic!("fresh tenant {t} under share must be admitted: {e}"));
    }
    assert_eq!(server.queue_depth(), 45);
    assert_eq!(server.brownout_level(), BrownoutLevel::DeferSlack);
    // Deep brownout: deadline-free traffic is deferred even for a
    // tenant that is under its share.
    assert!(matches!(
        server.submit_as(TenantId(100), points[0].clone(), None),
        Err(Rejected::Deferred { .. })
    ));
    // Push to the last rung.
    for t in 46..=58u32 {
        server
            .submit_for(TenantId(t), points[t as usize % 8].clone())
            .unwrap_or_else(|e| panic!("tenant {t}: {e}"));
    }
    assert_eq!(server.brownout_level(), BrownoutLevel::GlobalShed);
    assert!(matches!(
        server.submit_for(TenantId(101), points[0].clone()),
        Err(Rejected::Overloaded { .. })
    ));
    let stats = server.stats();
    assert_eq!(stats.rejected_deferred, 1);
    assert_eq!(stats.rejected_overloaded, 1);
    // Draining walks the ladder back down and reopens admission.
    server.drain();
    assert_eq!(server.brownout_level(), BrownoutLevel::Normal);
    assert!(server
        .submit_as(TenantId(100), points[0].clone(), None)
        .is_ok());
    server.drain();
}

/// Per-tenant accounting invariant: for every tenant,
/// `submitted = shed + admitted` and `admitted = completed + dropped`
/// once the queue is drained — and the per-tenant rows sum to the
/// global counters.
#[test]
fn per_tenant_books_balance() {
    let server = Server::new(ServerConfig {
        max_batch: 4,
        queue_capacity: 16,
        high_water: 8,
        default_deadline_ns: 2_000_000, // 2 ms: some requests will expire
        ..Default::default()
    });
    server.deploy(regressor());
    let points = catalogue(10);
    for round in 0..12 {
        for t in 1..=3u32 {
            // Uneven offered load: tenant 3 floods.
            let n = if t == 3 { 5 } else { 1 };
            for i in 0..n {
                let _ =
                    server.submit_for(TenantId(t), points[(round + i + t as usize) % 10].clone());
            }
        }
        server.step();
    }
    server.drain();
    let stats = server.stats();
    assert!(!stats.per_tenant.is_empty());
    let mut sum_completed = 0;
    for t in &stats.per_tenant {
        assert_eq!(
            t.submitted,
            t.shed + t.admitted,
            "door books for {}",
            t.tenant
        );
        assert_eq!(
            t.admitted,
            t.completed + t.dropped,
            "queue books for {} after drain",
            t.tenant
        );
        assert!(t.cache_hits <= t.completed);
        sum_completed += t.completed;
    }
    assert_eq!(sum_completed, stats.completed, "tenant rows sum to global");
    let flooder = stats.tenant(TenantId(3)).unwrap();
    assert!(flooder.shed > 0, "the flooding tenant was shed");
}

/// Trace replay end to end: a synthesized two-tenant burst trace
/// replays deterministically, every served prediction matches the
/// standalone reference bit-for-bit, the monitor emits a time series,
/// and offered arrivals are fully accounted for.
#[test]
fn trace_replay_is_deterministic_and_bitwise_faithful() {
    let model = regressor();
    let points = catalogue(16);
    let expected: Vec<Prediction> = points
        .iter()
        .map(|p| Prediction::Value(model.predict(std::slice::from_ref(p))[0]))
        .collect();
    let loads = [
        TenantLoad {
            tenant: TenantId(1),
            profile: RateProfile::Constant {
                rate_per_s: 3_000.0,
            },
            zipf_s: 1.1,
            deadline_ns: Some(20_000_000),
        },
        TenantLoad {
            tenant: TenantId(2),
            profile: RateProfile::FlashCrowd {
                base_per_s: 500.0,
                peak_per_s: 30_000.0,
                at_ns: 50_000_000,
                decay_ns: 10_000_000,
            },
            zipf_s: 0.5,
            deadline_ns: None,
        },
    ];
    let trace = synthesize_trace(&loads, 150_000_000, points.len(), 42);
    assert!(!trace.is_empty());
    let run = || {
        let server = Server::new(ServerConfig {
            queue_capacity: 64,
            high_water: 32,
            ..Default::default()
        });
        server.deploy(model.clone());
        replay_trace(&server, &points, &trace, 10_000_000, Some(&expected))
    };
    let a = run();
    assert_eq!(a.offered, trace.len() as u64);
    assert_eq!(a.mismatches, 0, "batching must be invisible in outputs");
    assert_eq!(
        a.offered,
        a.completed + a.shed + a.dropped,
        "every arrival accounted"
    );
    assert!(a.completed > 0);
    assert!(!a.samples.is_empty(), "monitor produced a time series");
    assert!(a.stats.cache.hits > 0, "Zipf draws must hit the cache");
    let b = run();
    assert_eq!(a.completed, b.completed, "replay is deterministic");
    assert_eq!(a.shed, b.shed);
    assert_eq!(a.dropped, b.dropped);
    assert_eq!(a.samples.len(), b.samples.len());
    assert_eq!(a.stats.cache.hits, b.stats.cache.hits);
    let p99_bits = |r: &serve::ReplayReport| -> Vec<(TenantId, u64)> {
        r.stats
            .per_tenant
            .iter()
            .map(|t| (t.tenant, t.p99_ms.to_bits()))
            .collect()
    };
    assert_eq!(p99_bits(&a), p99_bits(&b), "per-tenant p99 reproduces");
}

/// The composed chaos scenario at test scale: a tenant flood *while*
/// the backend pool is in a device outage. The degradation ladder
/// (local fallback) and the fairness ladder (brownout shedding) must
/// compose — zero panics, typed sheds only, and the well-behaved
/// tenant's predictions still bit-for-bit correct.
#[test]
fn overload_during_backend_outage_stays_typed_and_correct() {
    use hpcq::{FaultPolicy, FaultSchedule, QpuConfig, QpuPool, RetryPolicy};
    use std::sync::Mutex;
    let model = regressor();
    // Both devices go down 1 ns in: after the warm-up batch every miss
    // must ride the degraded local-fallback rung.
    let cfg = QpuConfig {
        faults: FaultSchedule::none().with_outage(1, u64::MAX),
        ..Default::default()
    };
    let pool = QpuPool::homogeneous(2, cfg).with_fault_policy(FaultPolicy {
        retry: RetryPolicy {
            max_attempts_total: 2,
            ..Default::default()
        },
        ..Default::default()
    });
    let server = Server::with_engine(
        ServerConfig {
            max_batch: 8,
            queue_capacity: 32,
            high_water: 16,
            degraded_local_fallback: true,
            ..Default::default()
        },
        FeatureEngine::Pool(Mutex::new(pool)),
    );
    server.deploy(model.clone());
    let good = TenantId(1);
    let flood = TenantId(2);
    server.set_tenant_weight(good, 1);
    server.set_tenant_weight(flood, 1);
    let points = catalogue(10);
    let warm = server.submit_for(good, points[0].clone()).unwrap();
    server.drain();
    warm.wait().expect("warm-up while devices are up");
    // Outage now active; flood while it is in progress.
    let mut good_handles = Vec::new();
    for round in 0..20 {
        for i in 0..8 {
            match server.submit_for(flood, points[(round + i) % 10].clone()) {
                Ok(_) | Err(Rejected::TenantOverShare { .. }) => {}
                Err(other) => panic!("untyped or unexpected shed: {other:?}"),
            }
        }
        let point = round % 10;
        good_handles.push((
            point,
            server
                .submit_for(good, points[point].clone())
                .expect("well-behaved tenant admitted through the chaos"),
        ));
        server.step();
    }
    server.drain();
    for (point, handle) in good_handles {
        let response = handle.wait().expect("served despite outage + flood");
        // Rows computed through the degraded fallback are bit-for-bit
        // the local engine's; the warm-up row was pool-computed, which
        // matches local to rounding (kernel summation orders differ) —
        // same bound as the healthy-pool serving tests.
        let lone = model.predict(std::slice::from_ref(&points[point]))[0];
        assert!(
            (response.prediction.as_f64() - lone).abs() < 1e-10,
            "served {} vs lone {lone}",
            response.prediction.as_f64()
        );
    }
    let stats = server.stats();
    assert!(stats.degraded_batches > 0, "the outage was actually hit");
    assert!(stats.rejected_over_share > 0, "the flood was actually shed");
    assert_eq!(stats.rejected_backend, 0, "fallback served every miss");
    assert_eq!(stats.tenant(good).unwrap().availability(), 1.0);
}
