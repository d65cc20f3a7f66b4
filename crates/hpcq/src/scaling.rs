//! Strong-scaling harness: fixed batch, growing device pool.

use crate::device::QpuConfig;
use crate::job::CircuitJob;
use crate::pool::QpuPool;

/// One point of a strong-scaling sweep.
#[derive(Clone, Debug)]
pub struct ScalingPoint {
    /// Devices used.
    pub devices: usize,
    /// Wall-clock seconds for the fixed batch.
    pub wall_secs: f64,
    /// Simulated makespan seconds (latency model).
    pub sim_makespan_secs: f64,
    /// Speedup vs the 1-device baseline (wall clock).
    pub speedup: f64,
    /// Parallel efficiency `speedup / devices`.
    pub efficiency: f64,
}

/// Runs the same batch on pools of `device_counts` devices and reports
/// speedup/efficiency relative to the first count. Jobs are cloned per
/// run so every pool sees identical work.
pub fn strong_scaling(
    jobs: &[CircuitJob],
    device_counts: &[usize],
    config: QpuConfig,
) -> Vec<ScalingPoint> {
    assert!(!jobs.is_empty() && !device_counts.is_empty());
    let mut out: Vec<ScalingPoint> = Vec::new();
    let mut baseline_wall = 0.0;
    for (i, &count) in device_counts.iter().enumerate() {
        let mut pool = QpuPool::homogeneous(count, config.clone());
        let (_, report) = pool.execute_batch(jobs.to_vec());
        if i == 0 {
            baseline_wall = report.wall_secs;
        }
        let speedup = baseline_wall / report.wall_secs.max(1e-12) * device_counts[0] as f64;
        out.push(ScalingPoint {
            devices: count,
            wall_secs: report.wall_secs,
            sim_makespan_secs: report.sim_makespan_secs,
            speedup,
            efficiency: speedup / count as f64,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pauli::PauliString;
    use qsim::{Circuit, Gate};

    fn heavy_jobs(n: usize) -> Vec<CircuitJob> {
        // 12-qubit circuits: enough state-vector work per job that thread
        // parallelism is visible above scheduling overhead.
        (0..n as u64)
            .map(|id| {
                let mut c = Circuit::new(12);
                for layer in 0..6 {
                    for q in 0..12 {
                        c.push(Gate::Ry(q, 0.1 * (id as f64 + layer as f64 + q as f64)));
                    }
                    for q in 0..11 {
                        c.push(Gate::Cnot {
                            control: q,
                            target: q + 1,
                        });
                    }
                }
                CircuitJob::new(
                    id,
                    c,
                    vec![PauliString::single(12, 0, pauli::Pauli::Z)],
                    None,
                )
            })
            .collect()
    }

    #[test]
    fn scaling_points_have_sane_shape() {
        let jobs = heavy_jobs(16);
        let points = strong_scaling(&jobs, &[1, 2, 4], QpuConfig::default());
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].devices, 1);
        // Baseline speedup is 1 by construction.
        assert!((points[0].speedup - 1.0).abs() < 1e-9);
        for p in &points {
            assert!(p.wall_secs > 0.0);
            assert!(p.efficiency > 0.0);
        }
    }

    #[test]
    fn simulated_makespan_shrinks_with_devices() {
        // The latency model is deterministic, so this is the robust
        // scaling signal (wall clock can wobble under CI load).
        let jobs = heavy_jobs(32);
        let points = strong_scaling(&jobs, &[1, 4], QpuConfig::default());
        assert!(
            points[1].sim_makespan_secs < points[0].sim_makespan_secs / 2.0,
            "1 dev: {}, 4 dev: {}",
            points[0].sim_makespan_secs,
            points[1].sim_makespan_secs
        );
    }
}
