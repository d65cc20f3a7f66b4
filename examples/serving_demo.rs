//! Online serving demo: deploy a trained post-variational classifier
//! behind the micro-batching inference server, stream Zipf-skewed
//! traffic at it, hot-swap a retrained version with zero downtime, and
//! watch the admission controller shed an overload burst.
//!
//! Run: `cargo run --release --example serving_demo`

use pvqnn::features::FeatureBackend;
use pvqnn::{FeatureGenerator, PostVarClassifier, Strategy};
use serve::{
    demo_catalogue as catalogue, run_closed_loop, LoadGenConfig, Rejected, Server, ServerConfig,
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

    // Phase 1: Zipf-skewed closed-loop traffic against v1.
    let points = catalogue(32);
    let report = run_closed_loop(
        &server,
        &points,
        &LoadGenConfig {
            clients: 6,
            total_requests: 600,
            zipf_s: 1.2,
            seed: 7,
        },
    );
    let stats = &report.stats;
    println!(
        "served {} requests: {:.0} rows/s (simulated), p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms",
        report.completed, report.rows_per_s, stats.p50_ms, stats.p95_ms, stats.p99_ms
    );
    println!(
        "feature cache: {:.0}% hits — {} unique simulations covered {} rows (mean batch {:.1})\n",
        report.cache_hit_rate * 100.0,
        stats.unique_simulations,
        stats.completed,
        stats.mean_batch_size()
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
