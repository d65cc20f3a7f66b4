//! Online serving demo: deploy a trained post-variational classifier
//! behind the micro-batching inference server, stream Zipf-skewed
//! traffic at it, hot-swap a retrained version with zero downtime, and
//! watch the admission controller shed an overload burst.
//!
//! Run: `cargo run --release --example serving_demo`

use pvqnn::features::FeatureBackend;
use pvqnn::{FeatureGenerator, PostVarClassifier, Strategy};
use serve::{
    demo_catalogue as catalogue, replay_trace, synthesize_trace, RateProfile, Rejected, Server,
    ServerConfig, TenantId, TenantLoad,
};

fn train(epochs: usize) -> PostVarClassifier {
    let data = catalogue(24);
    let labels: Vec<f64> = (0..24).map(|i| (i % 2) as f64).collect();
    let generator = FeatureGenerator::new(
        Strategy::observable_construction(4, 1),
        FeatureBackend::Exact,
    );
    PostVarClassifier::fit(
        generator,
        &data,
        &labels,
        ml::LogisticConfig {
            epochs,
            ..Default::default()
        },
    )
}

fn main() {
    println!("== serving a post-variational classifier ==\n");
    let server = Server::new(ServerConfig::default());
    let v1 = server.deploy(train(40));
    println!("deployed model {v1} (at most 40 full-batch evaluations)");

    // Phase 1: Zipf-skewed traffic against v1, replayed open-loop
    // (~600 arrivals over 30 simulated ms).
    let points = catalogue(32);
    let load = TenantLoad {
        tenant: TenantId::DEFAULT,
        profile: RateProfile::Constant {
            rate_per_s: 20_000.0,
        },
        zipf_s: 1.2,
        deadline_ns: None,
    };
    let trace = synthesize_trace(&[load], 30_000_000, points.len(), 7);
    let report = replay_trace(&server, &points, &trace, 10_000_000, None);
    let stats = &report.stats;
    println!(
        "served {} of {} requests in {} micro-batches",
        report.completed, report.offered, stats.batches
    );
    println!(
        "feature cache: {:.0}% hits — {} unique simulations covered {} rows\n",
        stats.cache.hit_rate() * 100.0,
        stats.unique_simulations,
        stats.completed
    );

    // Phase 2: hot-swap a retrained model; in-flight work drains on v1,
    // new traffic serves v2, and the shared-generator cache carries over.
    let v2 = server.deploy(train(400));
    println!("hot-swapped to model {v2} (at most 400) — no queue pause, cache retained");
    let probe = points[0].clone();
    let handle = server.submit(probe.clone()).expect("admitted");
    server.drain();
    let response = handle.wait().expect("served");
    println!(
        "probe request now served by {} (cache hit: {}), p(y=1) = {:.4}\n",
        response.model,
        response.cache_hit,
        response.prediction.as_f64()
    );

    // Phase 3: overload. A burst far beyond the high-water mark is shed
    // with typed rejections instead of building unbounded latency.
    let burst_server = Server::new(ServerConfig {
        queue_capacity: 48,
        high_water: 24,
        ..Default::default()
    });
    burst_server.deploy(train(40));
    let (mut served, mut shed) = (0, 0);
    let mut handles = Vec::new();
    for i in 0..96 {
        match burst_server.submit(points[i % points.len()].clone()) {
            Ok(h) => handles.push(h),
            Err(Rejected::TenantOverShare { .. }) => shed += 1,
            Err(other) => panic!("unexpected rejection: {other}"),
        }
    }
    burst_server.drain();
    for h in handles {
        if h.wait().is_ok() {
            served += 1;
        }
    }
    println!("overload burst: 96 requests -> {served} served, {shed} shed at the high-water mark");
    println!(
        "admission reopened after drain: {}",
        burst_server.submit(points[0].clone()).is_ok()
    );
    let _ = burst_server.drain();
    println!(
        "\nmicro-batching + feature caching turn per-request quantum cost into O(unique inputs);"
    );
    println!(
        "versioned hot-swap and load shedding keep the endpoint live through deploys and bursts."
    );
}
