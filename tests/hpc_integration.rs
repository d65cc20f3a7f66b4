//! Cross-crate integration: the HPC-QC runtime must produce exactly the
//! same feature matrix as the in-process generator, and its rows must
//! reach the classical stage complete and in order.

use postvar::ml::LogisticConfig;
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

#[test]
fn pool_reproduces_in_process_features_exactly() {
    let data = toy_data(6);
    let generator = FeatureGenerator::new(
        Strategy::hybrid(fig8_ansatz(4), 1, 1),
        FeatureBackend::Exact,
    );
    let q_direct = generator.generate(&data);

    let xs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
    let mut pool = QpuPool::homogeneous(3, QpuConfig::default());
    let rows = pool
        .feature_rows(&generator, &xs, None)
        .0
        .expect("healthy pool");

    assert_eq!(rows.len(), data.len());
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row.len(), q_direct.cols());
        for (col, v) in row.iter().enumerate() {
            assert!(
                (q_direct[(i, col)] - v).abs() < 1e-12,
                "mismatch at sample {i}, column {col}"
            );
        }
    }
}

#[test]
fn pipeline_feeds_classical_stage_with_complete_ordered_batch() {
    // 256-shot rows: each one lies nearest to its own point's exact row,
    // and the head fits on the whole batch.
    let data = toy_data(5);
    let strategy = Strategy::observable_construction(4, 1);
    let exact = FeatureGenerator::new(strategy.clone(), FeatureBackend::Exact).generate(&data);
    let generator = FeatureGenerator::new(
        strategy,
        FeatureBackend::Shots {
            shots: 256,
            seed: 0,
        },
    );
    let xs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
    let mut pool = QpuPool::homogeneous(2, QpuConfig::default());
    let (rows, report) = pool.feature_rows(&generator, &xs, None);
    let rows = rows.expect("healthy pool completes every job");
    assert!(report.wall_secs > 0.0);
    assert_eq!(report.jobs_per_device.iter().sum::<usize>(), data.len());

    let dist = |row: &[f64], j: usize| -> f64 {
        row.iter()
            .zip(exact.row(j))
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    };
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row.len(), exact.cols());
        let nearest = (0..data.len())
            .min_by(|&a, &b| dist(row, a).total_cmp(&dist(row, b)))
            .unwrap();
        assert_eq!(nearest, i, "row {i} is out of order");
    }

    let labels = [0.0, 1.0, 0.0, 1.0, 0.0];
    let mat = Mat::from_rows(&rows);
    let head = LogisticRegression::fit(&mat, &labels, LogisticConfig::default());
    assert!(head.predict_proba(&mat).iter().all(|p| p.is_finite()));
}
