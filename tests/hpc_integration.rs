//! Cross-crate integration: the HPC-QC runtime must produce exactly the
//! same feature matrix as the in-process generator, and the pipeline must
//! scale the work without changing the answer.

use postvar::hpcq::{CircuitJob, QpuConfig, QpuPool};
use postvar::prelude::*;

fn toy_data(d: usize) -> Vec<Vec<f64>> {
    (0..d)
        .map(|i| {
            (0..16)
                .map(|j| 0.3 + 0.19 * ((i * 3 + j * 5) % 17) as f64)
                .collect()
        })
        .collect()
}

/// Builds one job per (sample, shift) from a feature generator.
fn jobs_for(generator: &FeatureGenerator, data: &[Vec<f64>]) -> Vec<CircuitJob> {
    let p = generator.strategy().num_ansatze();
    let obs = generator.strategy().observables().to_vec();
    let mut out = Vec::new();
    let mut id = 0u64;
    for x in data {
        for a in 0..p {
            out.push(CircuitJob::new(
                id,
                generator.circuit_for(x, a),
                obs.clone(),
                None,
            ));
            id += 1;
        }
    }
    out
}

#[test]
fn pool_reproduces_in_process_features_exactly() {
    let data = toy_data(6);
    let generator = FeatureGenerator::new(
        Strategy::hybrid(fig8_ansatz(4), 1, 1),
        FeatureBackend::Exact,
    );
    let q_direct = generator.generate(&data);

    let jobs = jobs_for(&generator, &data);
    let mut pool = QpuPool::homogeneous(3, QpuConfig::default());
    let (results, _) = pool.execute_batch(jobs);

    let p = generator.strategy().num_ansatze();
    let q_obs = generator.strategy().num_observables();
    for (i, _x) in data.iter().enumerate() {
        for a in 0..p {
            let job_values = &results[i * p + a].as_ref().expect("healthy pool").values;
            for b in 0..q_obs {
                let col = generator.strategy().column_of(a, b);
                let direct = q_direct[(i, col)];
                assert!(
                    (direct - job_values[b]).abs() < 1e-12,
                    "mismatch at sample {i}, shift {a}, obs {b}"
                );
            }
        }
    }
}

#[test]
fn pipeline_feeds_classical_stage_with_complete_ordered_batch() {
    use postvar::hpcq::HybridPipeline;
    let data = toy_data(5);
    let generator = FeatureGenerator::new(
        Strategy::observable_construction(4, 1),
        FeatureBackend::Exact,
    );
    let jobs = jobs_for(&generator, &data);
    let n_jobs = jobs.len();
    let pool = QpuPool::homogeneous(2, QpuConfig::default());
    let mut pipeline = HybridPipeline::new(pool);
    let (ok, report) = pipeline
        .run(jobs, |results| {
            results.len() == n_jobs && results.windows(2).all(|w| w[0].id < w[1].id)
        })
        .expect("healthy pool completes every job");
    assert!(ok, "classical stage saw incomplete or unordered results");
    assert!(report.total_secs() > 0.0);
}
