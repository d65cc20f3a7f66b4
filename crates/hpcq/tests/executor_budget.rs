//! Regression test for the pool/kernel oversubscription fix.
//!
//! Before the shared executor, a `WorkStealing` batch of large jobs fanned
//! out twice: one OS thread per device, and — once a job's state crossed
//! `qsim::PARALLEL_THRESHOLD` — a full set of kernel threads *inside each
//! device thread*, oversubscribing to devices × cores. With device tasks
//! and amplitude kernels multiplexed onto one executor, the number of
//! threads concurrently executing pool work can never exceed the thread
//! budget, no matter how many devices the batch uses.
//!
//! This file intentionally holds a single `#[test]`: the live-worker
//! high-water mark is process-global, so it must not be polluted by other
//! tests helping the executor from their own threads.

use hpcq::{CircuitJob, QpuConfig, QpuPool};
use pauli::{Pauli, PauliString};
use qsim::state::PARALLEL_THRESHOLD;
use qsim::{Circuit, Gate};

#[test]
fn stealing_batch_of_large_jobs_stays_within_thread_budget() {
    // 2^17 amplitudes per job — far above the kernel threshold, so every
    // gate application inside every device task wants to fan out.
    let n = 17;
    assert!(1usize << n >= 16 * PARALLEL_THRESHOLD);
    let jobs: Vec<CircuitJob> = (0..6u64)
        .map(|id| {
            let mut c = Circuit::new(n);
            for q in 0..n {
                c.push(Gate::Ry(q, 0.1 + 0.01 * (id as f64 + q as f64)));
            }
            for q in 0..n - 1 {
                c.push(Gate::Cnot {
                    control: q,
                    target: q + 1,
                });
            }
            CircuitJob::new(
                id,
                c,
                vec![
                    PauliString::single(n, 0, Pauli::Z),
                    PauliString::single(n, 3, Pauli::X),
                ],
                None,
            )
        })
        .collect();

    let mut pool = QpuPool::homogeneous(3, QpuConfig::default());
    rayon::reset_max_live_workers();
    let (results, report) = pool.execute_batch(jobs);

    assert_eq!(results.len(), 6);
    assert_eq!(report.jobs_per_device.iter().sum::<usize>(), 6);
    let budget = rayon::current_num_threads();
    let peak = rayon::max_live_workers();
    assert!(
        peak <= budget,
        "devices × kernels oversubscribed the executor: {peak} live workers > budget {budget}"
    );
}
