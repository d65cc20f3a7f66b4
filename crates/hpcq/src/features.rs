//! Feature batches on the pool: the quantum stage of Algorithm 1 in one
//! call.
//!
//! Post-variational networks measure every `(data point, shifted
//! ansatz)` circuit in one non-interactive batch (paper Table I), and
//! then fit a convex head on the host. [`QpuPool::feature_rows`] is that
//! batch: it builds one [`CircuitJob`] per point and shift, runs them
//! through [`QpuPool::execute_batch`] and assembles the feature rows in
//! [`Strategy::column_of`](pvqnn::Strategy::column_of) order.
//!
//! The generator's backend sets each job's shot budget:
//!
//! * `Exact` jobs run without shots, so on noiseless devices a row
//!   equals [`FeatureGenerator::generate`] to rounding;
//! * `Shots { shots, .. }` jobs measure each observable `shots` times;
//! * `Shadows { snapshots, .. }` is approximated with `snapshots` shots
//!   per observable (the devices measure observables directly, not
//!   shadow snapshots).
//!
//! A device seeds its shot noise from its own seed and the job id, and
//! point `i`'s shift `a` is job `i·p + a`. So a Shots or Shadows row
//! served by the pool depends on the point's position in its batch and
//! on the device that ran it, and it is not bitwise equal to the
//! generator's own stochastic row.

use crate::fault::{FaultStats, JobError};
use crate::job::CircuitJob;
use crate::pool::{PoolReport, QpuPool};
use pvqnn::features::{FeatureBackend, FeatureGenerator};
use std::fmt;

/// Part of a feature batch failed terminally: retries, failover and
/// hedging were all exhausted (or deadlines expired) for `failed_jobs`
/// of the batch's jobs. No partial rows are returned.
#[derive(Clone, Debug)]
pub struct FeatureBatchError {
    /// Jobs that resolved to typed errors.
    pub failed_jobs: usize,
    /// Total jobs in the batch.
    pub total_jobs: usize,
    /// The first failure, in job-id order.
    pub first: JobError,
    /// Failure/recovery counters the pool observed for this batch.
    pub faults: FaultStats,
}

impl fmt::Display for FeatureBatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "backend failed {} of {} feature jobs (first: {})",
            self.failed_jobs, self.total_jobs, self.first
        )
    }
}

impl std::error::Error for FeatureBatchError {}

impl QpuPool {
    /// One feature row per point of `xs`, computed on the pool, together
    /// with the batch's [`PoolReport`]. Every job carries `budget_ns` as
    /// its deadline budget (simulated ns from the start of the batch).
    /// If any job fails terminally, the rows are dropped and the failures
    /// come back as one [`FeatureBatchError`]. An empty `xs` is an empty
    /// batch.
    pub fn feature_rows(
        &mut self,
        generator: &FeatureGenerator,
        xs: &[&[f64]],
        budget_ns: Option<u64>,
    ) -> (Result<Vec<Vec<f64>>, FeatureBatchError>, PoolReport) {
        let strategy = generator.strategy();
        let p = strategy.num_ansatze();
        let q = strategy.num_observables();
        let shots = match generator.backend() {
            FeatureBackend::Exact => None,
            FeatureBackend::Shots { shots, .. } => Some(shots),
            FeatureBackend::Shadows { snapshots, .. } => Some(snapshots),
        };
        let mut jobs = Vec::with_capacity(xs.len() * p);
        for (i, x) in xs.iter().enumerate() {
            for a in 0..p {
                let mut job = CircuitJob::new(
                    (i * p + a) as u64,
                    generator.circuit_for(x, a),
                    strategy.observables().to_vec(),
                    shots,
                );
                job.sim_budget_ns = budget_ns;
                jobs.push(job);
            }
        }
        let total_jobs = jobs.len();
        let (outcomes, report) = self.execute_batch(jobs);

        let mut rows = vec![vec![0.0; p * q]; xs.len()];
        let mut failed_jobs = 0;
        let mut first = None;
        for outcome in outcomes {
            match outcome {
                Ok(r) => {
                    let (i, a) = (r.id as usize / p, r.id as usize % p);
                    let col = strategy.column_of(a, 0);
                    rows[i][col..col + q].copy_from_slice(&r.values);
                }
                Err(e) => {
                    failed_jobs += 1;
                    first.get_or_insert(e);
                }
            }
        }
        let rows = match first {
            None => Ok(rows),
            Some(first) => Err(FeatureBatchError {
                failed_jobs,
                total_jobs,
                first,
                faults: report.faults,
            }),
        };
        (rows, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::QpuConfig;
    use crate::fault::{FaultPolicy, JobErrorKind, RetryPolicy};
    use pvqnn::Strategy;

    fn points(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![0.4 + 0.9 * i as f64; 16]).collect()
    }

    #[test]
    fn backend_sets_every_jobs_shot_budget() {
        // Shots cost `shot_time_ns` per shot and observable, so on one
        // device the makespan grows by exactly jobs × shots × q of them.
        let data = points(3);
        let xs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        let strategy = Strategy::observable_construction(4, 1);
        let q = strategy.num_observables() as f64;
        let makespan_ns = |backend| {
            let generator = FeatureGenerator::new(strategy.clone(), backend);
            let mut pool = QpuPool::homogeneous(1, QpuConfig::default());
            let (rows, report) = pool.feature_rows(&generator, &xs, None);
            assert_eq!(rows.expect("healthy pool").len(), 3);
            report.sim_makespan_secs * 1e9
        };
        let exact = makespan_ns(FeatureBackend::Exact);
        let shot_ns = QpuConfig::default().shot_time_ns as f64;
        for (backend, shots) in [
            (FeatureBackend::Shots { shots: 64, seed: 1 }, 64.0),
            (
                FeatureBackend::Shadows {
                    snapshots: 32,
                    groups: 4,
                    seed: 1,
                },
                32.0,
            ),
        ] {
            let extra = makespan_ns(backend) - exact;
            assert!(
                (extra - 3.0 * shots * q * shot_ns).abs() < 1.0,
                "{backend:?}: {extra} ns of shots"
            );
        }
    }

    #[test]
    fn failed_jobs_surface_as_one_typed_error() {
        let generator = FeatureGenerator::new(
            Strategy::hybrid(pvqnn::fig8_ansatz(4), 1, 1),
            FeatureBackend::Exact,
        );
        let data = points(2);
        let xs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        let broken = QpuConfig {
            fail_prob: 1.0,
            ..Default::default()
        };
        let mut pool = QpuPool::homogeneous(2, broken).with_fault_policy(FaultPolicy {
            retry: RetryPolicy {
                max_attempts_total: 3,
                ..Default::default()
            },
            ..Default::default()
        });
        let (rows, report) = pool.feature_rows(&generator, &xs, None);
        let err = rows.expect_err("every job fails");
        let jobs = 2 * generator.strategy().num_ansatze();
        assert_eq!((err.failed_jobs, err.total_jobs), (jobs, jobs));
        assert_eq!(err.first.id, 0);
        assert_eq!(err.first.kind, JobErrorKind::RetriesExhausted);
        assert_eq!(err.faults, report.faults);
        assert!(err
            .to_string()
            .contains(&format!("failed {jobs} of {jobs}")));
    }
}
