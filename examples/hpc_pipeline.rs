//! The hybrid HPC-QC pipeline: Algorithm-1 feature jobs scattered across
//! a simulated QPU pool, classical convex fit on the host, with stage
//! timing and device utilization — the system view of the SC title.
//! Exits nonzero if device utilization falls to 80% or below, or train
//! accuracy below 90%.
//!
//! Run: `cargo run --example hpc_pipeline --release`

use postvar::ml::LogisticConfig;
use postvar::prelude::*;
use std::time::Instant;

fn main() {
    // Workload: hybrid strategy on 40 coat/shirt samples with shot noise.
    let ds = fashion_synthetic(
        &[FashionClass::Coat, FashionClass::Shirt],
        20,
        7,
        &postvar::qdata::SynthConfig::default(),
    );
    let (train, _) = ds.split_at(40);
    let (train_x, _) = preprocess_4x4(&train, &postvar::qdata::Dataset::default());
    let labels: Vec<f64> = train
        .labels
        .iter()
        .map(|&l| {
            if l == FashionClass::Shirt.label() {
                1.0
            } else {
                0.0
            }
        })
        .collect();

    // One job per (sample, shifted ansatz); 512 shots per observable.
    let strategy = Strategy::hybrid(fig8_ansatz(4), 1, 1);
    let generator = FeatureGenerator::new(
        strategy,
        FeatureBackend::Shots {
            shots: 512,
            seed: 0,
        },
    );
    let p = generator.strategy().num_ansatze();
    println!(
        "dispatching {} circuit jobs ({} samples × {} ansätze, {} observables each)",
        train_x.len() * p,
        train_x.len(),
        p,
        generator.strategy().num_observables()
    );

    // Quantum stage on a 4-QPU pool, then the classical fit on the host.
    let mut pool = QpuPool::homogeneous(4, QpuConfig::default());
    let xs: Vec<&[f64]> = train_x.iter().map(Vec::as_slice).collect();
    let (rows, report) = pool.feature_rows(&generator, &xs, None);
    let rows = rows.expect("healthy pool completes every job");
    let fit_start = Instant::now();
    let mat = Mat::from_rows(&rows);
    let head = LogisticRegression::fit(&mat, &labels, LogisticConfig::default());
    let accuracy_train = accuracy(&labels, &head.predict_proba(&mat));
    let fit_secs = fit_start.elapsed().as_secs_f64();

    println!("\npipeline report:");
    println!(
        "  quantum stage : {:.3}s ({:.0}% of total)",
        report.wall_secs,
        report.wall_secs / (report.wall_secs + fit_secs) * 100.0
    );
    println!("  classical fit : {fit_secs:.3}s");
    println!(
        "  sim makespan  : {:.3}s on {} devices",
        report.sim_makespan_secs,
        report.jobs_per_device.len()
    );
    println!("  device util   : {:.0}%", report.utilization * 100.0);
    println!("  jobs/device   : {:?}", report.jobs_per_device);
    println!(
        "\ntrain accuracy with 512-shot features: {:.1}%",
        accuracy_train * 100.0
    );
    assert!(
        report.utilization > 0.8,
        "device utilization {:.0}% is not above 80%",
        report.utilization * 100.0
    );
    assert!(
        accuracy_train >= 0.9,
        "train accuracy {:.1}% is below 90%",
        accuracy_train * 100.0
    );
}
