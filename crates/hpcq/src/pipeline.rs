//! The two-stage hybrid pipeline: quantum feature generation on the QPU
//! pool, classical convex optimisation on the host.
//!
//! Contrast with the variational loop (paper Table I): post-variational
//! needs **one** quantum stage and **one** classical stage, with no
//! feedback — so the quantum stage can be batched, scheduled, and scaled
//! like any other HPC workload.
//!
//! Both stages share one thread budget: the quantum stage's device tasks
//! run as scoped tasks on the persistent rayon executor (see
//! [`crate::pool`]), and any parallel kernels the classical closure uses
//! (matrix assembly, the convex fit) fan out on that same executor after
//! the quantum stage has fully drained — no private thread pools anywhere
//! in the pipeline.

use crate::fault::JobError;
use crate::job::{CircuitJob, JobResult};
use crate::pool::{PoolReport, QpuPool};
use std::fmt;
use std::time::Instant;

/// Per-stage timing of one pipeline run.
#[derive(Clone, Debug)]
pub struct PipelineReport {
    /// Wall seconds in the quantum stage.
    pub quantum_secs: f64,
    /// Wall seconds in the classical stage.
    pub classical_secs: f64,
    /// Device-pool statistics of the quantum stage.
    pub pool: PoolReport,
}

impl PipelineReport {
    /// Total wall time.
    pub fn total_secs(&self) -> f64 {
        self.quantum_secs + self.classical_secs
    }

    /// Fraction of time spent in the quantum stage.
    pub fn quantum_fraction(&self) -> f64 {
        self.quantum_secs / self.total_secs().max(1e-12)
    }
}

/// The quantum stage could not deliver a complete batch: one or more
/// jobs resolved to typed errors (retries exhausted, deadlines expired).
/// The classical stage never runs on partial features.
#[derive(Clone, Debug)]
pub struct PipelineError {
    /// The terminally failed jobs, in id order.
    pub failed: Vec<JobError>,
    /// Jobs that did complete before the batch was abandoned.
    pub completed: usize,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "quantum stage failed {} of {} jobs (first: {})",
            self.failed.len(),
            self.failed.len() + self.completed,
            self.failed[0]
        )
    }
}

impl std::error::Error for PipelineError {}

/// Orchestrates quantum-then-classical execution.
pub struct HybridPipeline {
    pool: QpuPool,
}

impl HybridPipeline {
    /// Wraps a device pool.
    pub fn new(pool: QpuPool) -> Self {
        HybridPipeline { pool }
    }

    /// The device pool.
    pub fn pool(&self) -> &QpuPool {
        &self.pool
    }

    /// Runs the full pipeline: executes `jobs` on the pool, then feeds the
    /// ordered results to the classical stage `classical` (e.g. the convex
    /// fit), returning its output and the stage timings. If any job
    /// resolves to a typed error (retries exhausted, deadline expired),
    /// the classical stage is skipped and the failures are returned — a
    /// convex fit over a feature matrix with missing rows would silently
    /// train on garbage.
    pub fn run<T>(
        &mut self,
        jobs: Vec<CircuitJob>,
        classical: impl FnOnce(&[JobResult]) -> T,
    ) -> Result<(T, PipelineReport), PipelineError> {
        let q_start = Instant::now();
        let (outcomes, pool_report) = self.pool.execute_batch(jobs);
        let quantum_secs = q_start.elapsed().as_secs_f64();

        let mut results = Vec::with_capacity(outcomes.len());
        let mut failed = Vec::new();
        for outcome in outcomes {
            match outcome {
                Ok(r) => results.push(r),
                Err(e) => failed.push(e),
            }
        }
        if !failed.is_empty() {
            return Err(PipelineError {
                failed,
                completed: results.len(),
            });
        }

        let c_start = Instant::now();
        let output = classical(&results);
        let classical_secs = c_start.elapsed().as_secs_f64();

        Ok((
            output,
            PipelineReport {
                quantum_secs,
                classical_secs,
                pool: pool_report,
            },
        ))
    }
}

/// Assembles job results into a dense row-major feature table:
/// `rows × q` where job `id = row` and values are the job's observable
/// estimates. Jobs must cover ids `0..rows` exactly once.
pub fn results_to_rows(results: &[JobResult]) -> Vec<Vec<f64>> {
    let mut rows: Vec<Option<Vec<f64>>> = vec![None; results.len()];
    for r in results {
        let idx = r.id as usize;
        assert!(idx < rows.len(), "job id {idx} out of range");
        assert!(rows[idx].is_none(), "duplicate job id {idx}");
        rows[idx] = Some(r.values.clone());
    }
    rows.into_iter()
        .map(|r| r.expect("missing job id"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::QpuConfig;
    use pauli::PauliString;
    use qsim::{Circuit, Gate};

    fn jobs(n: usize) -> Vec<CircuitJob> {
        (0..n as u64)
            .map(|id| {
                let mut c = Circuit::new(2);
                c.push(Gate::Ry(0, 0.2 * id as f64));
                CircuitJob::new(
                    id,
                    c,
                    vec![
                        PauliString::parse("IZ").unwrap(),
                        PauliString::parse("IX").unwrap(),
                    ],
                    None,
                )
            })
            .collect()
    }

    #[test]
    fn pipeline_runs_both_stages() {
        let pool = QpuPool::homogeneous(2, QpuConfig::default());
        let mut pipeline = HybridPipeline::new(pool);
        let (sum, report) = pipeline
            .run(jobs(8), |results| {
                results.iter().map(|r| r.values[0]).sum::<f64>()
            })
            .unwrap();
        assert!(sum.is_finite());
        assert!(report.quantum_secs > 0.0);
        assert!(report.classical_secs >= 0.0);
        assert!((0.0..=1.0).contains(&report.quantum_fraction()));
    }

    #[test]
    fn classical_stage_sees_ordered_results() {
        let pool = QpuPool::homogeneous(3, QpuConfig::default());
        let mut pipeline = HybridPipeline::new(pool);
        let (ids, _) = pipeline
            .run(jobs(12), |results| {
                results.iter().map(|r| r.id).collect::<Vec<u64>>()
            })
            .unwrap();
        assert_eq!(ids, (0..12).collect::<Vec<u64>>());
    }

    #[test]
    fn results_to_rows_roundtrip() {
        let pool = QpuPool::homogeneous(2, QpuConfig::default());
        let mut pipeline = HybridPipeline::new(pool);
        let (rows, _) = pipeline.run(jobs(6), results_to_rows).unwrap();
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|r| r.len() == 2));
        // Row 0 is Ry(0): ⟨Z⟩ = 1.
        assert!((rows[0][0] - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn results_to_rows_rejects_gaps() {
        let r = JobResult {
            id: 5,
            values: vec![],
            device: 0,
            sim_busy_ns: 0,
            sim_completed_ns: 0,
        };
        let _ = results_to_rows(&[r]);
    }

    #[test]
    #[should_panic(expected = "duplicate job id")]
    fn results_to_rows_rejects_duplicates() {
        let r = |id| JobResult {
            id,
            values: vec![1.0],
            device: 0,
            sim_busy_ns: 0,
            sim_completed_ns: 0,
        };
        let _ = results_to_rows(&[r(0), r(0)]);
    }

    #[test]
    fn results_to_rows_empty_is_empty() {
        assert!(results_to_rows(&[]).is_empty());
    }

    #[test]
    fn pipeline_handles_empty_job_list() {
        // A serving micro-batch where every request was shed or served
        // from cache submits nothing: the pipeline must still run the
        // classical stage (on zero rows) and report sane timings.
        let pool = QpuPool::homogeneous(2, QpuConfig::default());
        let mut pipeline = HybridPipeline::new(pool);
        let (rows, report) = pipeline.run(Vec::new(), results_to_rows).unwrap();
        assert!(rows.is_empty());
        assert!(report.quantum_secs >= 0.0);
        assert!(
            report.pool.sim_makespan_secs == 0.0,
            "no device was charged"
        );
        assert_eq!(report.pool.throughput, 0.0);
    }

    #[test]
    fn pipeline_single_device_pool() {
        // Degenerate pool: one device takes every job, utilization is
        // exactly 1, and results still arrive complete and ordered.
        let pool = QpuPool::homogeneous(1, QpuConfig::default());
        let mut pipeline = HybridPipeline::new(pool);
        let (rows, report) = pipeline.run(jobs(6), results_to_rows).unwrap();
        assert_eq!(rows.len(), 6);
        assert_eq!(report.pool.jobs_per_device, vec![6]);
        assert!((report.pool.utilization - 1.0).abs() < 1e-12);
        assert!((rows[0][0] - 1.0).abs() < 1e-12, "Ry(0): ⟨Z⟩ = 1");
    }

    #[test]
    fn pipeline_survives_jobs_that_all_fail_first() {
        // Heavy fault injection: with fail_prob = 0.95 essentially every
        // job fails at least once (and most several times); the pool
        // must still deliver every result, bit-identical to a noiseless
        // pool, with the failed submissions charged to the sim clock.
        let clean_pool = QpuPool::homogeneous(2, QpuConfig::default());
        let (clean, _) = HybridPipeline::new(clean_pool)
            .run(jobs(6), results_to_rows)
            .unwrap();
        let flaky = QpuConfig {
            fail_prob: 0.95,
            ..Default::default()
        };
        let clean_submit_ns = 6.0 * flaky.submit_overhead_ns as f64;
        let pool = QpuPool::homogeneous(2, flaky);
        let mut pipeline = HybridPipeline::new(pool);
        let (rows, report) = pipeline.run(jobs(6), results_to_rows).unwrap();
        assert_eq!(rows, clean, "retries must not change exact results");
        // 6 jobs at 0.95 fail-prob retry ~20× each on average; the
        // charged overhead must exceed the 6 clean submissions.
        assert!(
            report.pool.sim_makespan_secs * 1e9 > clean_submit_ns,
            "failed submissions must charge the simulated clock"
        );
    }

    #[test]
    fn pipeline_surfaces_typed_errors_without_running_classical_stage() {
        use crate::fault::{FaultPolicy, JobErrorKind, RetryPolicy};
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
        let mut pipeline = HybridPipeline::new(pool);
        let mut classical_ran = false;
        let err = pipeline
            .run(jobs(4), |_| classical_ran = true)
            .expect_err("all jobs must fail");
        assert!(!classical_ran, "classical stage must not see partial rows");
        assert_eq!(err.failed.len(), 4);
        assert_eq!(err.completed, 0);
        assert!(err
            .failed
            .iter()
            .all(|e| e.kind == JobErrorKind::RetriesExhausted));
        assert!(err.to_string().contains("failed 4 of 4"));
    }
}
