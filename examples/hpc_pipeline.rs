//! The hybrid HPC-QC pipeline: Algorithm-1 feature jobs scattered across
//! a simulated QPU pool, classical convex fit on the host, with stage
//! timing and device utilization — the system view of the SC title.
//!
//! Run: `cargo run --example hpc_pipeline --release`

use postvar::hpcq::{CircuitJob, HybridPipeline, QpuConfig, QpuPool};
use postvar::ml::LogisticConfig;
use postvar::prelude::*;

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

    let strategy = Strategy::hybrid(fig8_ansatz(4), 1, 1);
    let generator = FeatureGenerator::new(strategy, FeatureBackend::Exact);
    let p = generator.strategy().num_ansatze();
    let observables = generator.strategy().observables().to_vec();

    // One job per (sample, shifted ansatz); 512 shots per observable.
    let mut jobs = Vec::new();
    let mut id = 0u64;
    for x in &train_x {
        for a in 0..p {
            jobs.push(CircuitJob::new(
                id,
                generator.circuit_for(x, a),
                observables.clone(),
                Some(512),
            ));
            id += 1;
        }
    }
    println!(
        "dispatching {} circuit jobs ({} samples × {} ansätze, {} observables each)",
        jobs.len(),
        train_x.len(),
        p,
        observables.len()
    );

    // 4-QPU pool with work stealing.
    let pool = QpuPool::homogeneous(4, QpuConfig::default());
    let mut pipeline = HybridPipeline::new(pool);
    let samples = train_x.len();
    let q_obs = observables.len();

    let (accuracy_train, report) = pipeline
        .run(jobs, |results| {
            // Classical stage: assemble Q and fit the logistic head.
            let rows: Vec<Vec<f64>> = (0..samples)
                .map(|i| {
                    let mut row = Vec::with_capacity(p * q_obs);
                    for a in 0..p {
                        row.extend_from_slice(&results[i * p + a].values);
                    }
                    row
                })
                .collect();
            let mat = postvar::linalg::Mat::from_rows(&rows);
            let head = LogisticRegression::fit(&mat, &labels, LogisticConfig::default());
            accuracy(&labels, &head.predict_proba(&mat))
        })
        .expect("healthy pool completes every job");

    println!("\npipeline report:");
    println!(
        "  quantum stage : {:.3}s ({:.0}% of total)",
        report.quantum_secs,
        report.quantum_fraction() * 100.0
    );
    println!("  classical fit : {:.3}s", report.classical_secs);
    println!(
        "  sim makespan  : {:.3}s on {} devices",
        report.pool.sim_makespan_secs,
        report.pool.jobs_per_device.len()
    );
    println!("  device util   : {:.0}%", report.pool.utilization * 100.0);
    println!("  jobs/device   : {:?}", report.pool.jobs_per_device);
    println!(
        "\ntrain accuracy with 512-shot features: {:.1}%",
        accuracy_train * 100.0
    );
}
