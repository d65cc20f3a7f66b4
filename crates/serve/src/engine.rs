//! How a micro-batch's cache misses get their feature rows computed.
//!
//! The serving layer deliberately separates *what* to compute (one row
//! per unique data point, standalone-seeded) from *where*: the local
//! path hands the miss set to `pvqnn`'s `generate_rows_standalone`, one
//! row per point on the shared executor (Exact and Shots rows from the
//! generator's Pauli-transfer plan, Shadows rows from its cached
//! compiled circuits) — bit-for-bit what each lone request would have
//! computed — while the pool path hands the same points to
//! [`QpuPool::feature_rows`], which scatters one job per (point, shift)
//! across a simulated QPU pool, the deployment shape the paper's hybrid
//! HPC-QC system targets for the finite-shot backends.

use hpcq::{FaultStats, FeatureBatchError, QpuConfig, QpuPool};
use pvqnn::FeatureGenerator;
use std::sync::{Mutex, PoisonError};

/// A successfully computed miss batch.
#[derive(Clone, Debug)]
pub struct ComputedRows {
    /// One standalone-seeded feature row per requested point.
    pub rows: Vec<Vec<f64>>,
    /// Failure/recovery counters the backend observed while computing
    /// (all zero for the local engine and the healthy pool path).
    pub faults: FaultStats,
}

/// The compute backend for cache misses.
pub enum FeatureEngine {
    /// In-process: rows fan out on the shared rayon executor. This is
    /// the default and the path with the bit-for-bit guarantee against
    /// one-at-a-time `predict`.
    Local,
    /// Through a simulated QPU pool, via [`QpuPool::feature_rows`]: one
    /// job per `(data point, shift)`, with the backend's shot budget.
    /// `Exact` rows equal the local path to rounding. A `Shots` or
    /// `Shadows` row takes its noise from the device seed and its job id
    /// `i·p + a`, so it depends on the point's position in the miss
    /// batch and on the device that ran it, and it is not bitwise equal
    /// to the local row.
    Pool(Mutex<QpuPool>),
}

impl FeatureEngine {
    /// The in-process engine.
    pub fn local() -> Self {
        FeatureEngine::Local
    }

    /// A pool engine over `devices` homogeneous simulated QPUs.
    pub fn pool(devices: usize, config: QpuConfig) -> Self {
        FeatureEngine::Pool(Mutex::new(QpuPool::homogeneous(devices, config)))
    }

    /// One standalone-seeded feature row per unique data point.
    /// `budget_ns` is the batch's remaining deadline budget in simulated
    /// ns — the pool path attaches it to every job so retries never
    /// chase an already-dead request (the local path is host-side
    /// compute and ignores it). Pool jobs that terminally fail (retry
    /// budget exhausted, deadline expired on every device) surface as a
    /// typed [`FeatureBatchError`] instead of panicking on the batcher
    /// thread; the server's degradation ladder decides what happens next
    /// (local fallback or a typed shed). A previously poisoned pool lock
    /// is recovered, not propagated — the pool holds no invariants a
    /// panicked batch could have broken (placement is recomputed per
    /// batch).
    pub fn compute_rows(
        &self,
        generator: &FeatureGenerator,
        xs: &[&[f64]],
        budget_ns: Option<u64>,
    ) -> Result<ComputedRows, FeatureBatchError> {
        match self {
            FeatureEngine::Local => Ok(ComputedRows {
                rows: generator.generate_rows_standalone(xs),
                faults: FaultStats::default(),
            }),
            FeatureEngine::Pool(pool) => {
                let (rows, report) = pool
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .feature_rows(generator, xs, budget_ns);
                Ok(ComputedRows {
                    rows: rows?,
                    faults: report.faults,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvqnn::{FeatureBackend, Strategy};

    fn points(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..16)
                    .map(|j| 0.25 + 0.13 * ((i * 7 + j) % 11) as f64)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn pool_engine_matches_local_for_exact_backend() {
        // Exact jobs on noiseless devices simulate each full circuit; the
        // local engine evaluates the generator's Pauli-transfer rows. They
        // agree to rounding, with and without shifted ansatz circuits.
        for strategy in [
            Strategy::observable_construction(4, 1),
            Strategy::hybrid(pvqnn::fig8_ansatz(4), 1, 1),
        ] {
            let generator = FeatureGenerator::new(strategy, FeatureBackend::Exact);
            let data = points(3);
            let refs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
            let local = FeatureEngine::local()
                .compute_rows(&generator, &refs, None)
                .unwrap()
                .rows;
            let pool = FeatureEngine::pool(2, QpuConfig::default());
            let out = pool.compute_rows(&generator, &refs, None).unwrap();
            assert_eq!(out.faults, hpcq::FaultStats::default(), "healthy path");
            let pooled = out.rows;
            assert_eq!(local.len(), pooled.len());
            for (lr, pr) in local.iter().zip(pooled.iter()) {
                assert_eq!(lr.len(), pr.len());
                for (l, p) in lr.iter().zip(pr.iter()) {
                    assert!((l - p).abs() < 1e-10, "local {l} vs pool {p}");
                }
            }
        }
    }

    #[test]
    fn pool_engine_is_deterministic_for_shots_backend() {
        // The same miss batch on a fresh pool reproduces its rows; the
        // same point at another batch position would draw other noise.
        let generator = FeatureGenerator::new(
            Strategy::observable_construction(4, 1),
            FeatureBackend::Shots { shots: 64, seed: 3 },
        );
        let data = points(2);
        let refs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        let run = || {
            FeatureEngine::pool(2, QpuConfig::default())
                .compute_rows(&generator, &refs, None)
                .unwrap()
                .rows
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_miss_set_is_free() {
        let generator = FeatureGenerator::new(
            Strategy::observable_construction(4, 1),
            FeatureBackend::Exact,
        );
        let pool = FeatureEngine::pool(1, QpuConfig::default());
        assert!(pool
            .compute_rows(&generator, &[], None)
            .unwrap()
            .rows
            .is_empty());
        assert!(FeatureEngine::local()
            .compute_rows(&generator, &[], None)
            .unwrap()
            .rows
            .is_empty());
    }

    #[test]
    fn dead_pool_surfaces_typed_engine_error() {
        use hpcq::{FaultPolicy, RetryPolicy};
        let generator = FeatureGenerator::new(
            Strategy::observable_construction(4, 1),
            FeatureBackend::Exact,
        );
        let data = points(2);
        let refs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
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
        let engine = FeatureEngine::Pool(Mutex::new(pool));
        let err = engine
            .compute_rows(&generator, &refs, None)
            .expect_err("dead pool must error, not panic");
        assert_eq!(err.failed_jobs, err.total_jobs);
        assert!(err.faults.jobs_failed > 0);
        assert!(err.to_string().contains("backend failed"));
    }

    #[test]
    fn expired_budget_surfaces_typed_engine_error() {
        let generator = FeatureGenerator::new(
            Strategy::observable_construction(4, 1),
            FeatureBackend::Exact,
        );
        let data = points(2);
        let refs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        // One device, a budget shorter than a single job: the first job
        // squeaks in at t=0, every later dispatch is past the deadline.
        let engine = FeatureEngine::pool(1, QpuConfig::default());
        let err = engine
            .compute_rows(&generator, &refs, Some(1))
            .expect_err("sub-job budget cannot complete the batch");
        assert!(matches!(
            err.first.kind,
            hpcq::JobErrorKind::DeadlineExpired { .. }
        ));
    }
}
