//! Simulated QPU devices.
//!
//! A device executes [`CircuitJob`]s on the `qsim` state-vector engine and
//! charges a latency model calibrated to published superconducting-QPU
//! figures: per-job submission overhead, per-gate time, and per-shot
//! readout time. The simulated clock feeds the pool's utilization and
//! makespan statistics; actual computation runs at host speed.

use crate::fault::FaultSchedule;
use crate::job::{CircuitJob, JobResult};
use qsim::noise::estimate_pauli_noisy;
use qsim::{estimate_pauli_with_shots, NoiseModel, StateVector};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Device parameters.
#[derive(Clone, Debug)]
pub struct QpuConfig {
    /// Maximum register width accepted.
    pub max_qubits: usize,
    /// Per-job submission/queue overhead (ns of simulated time).
    pub submit_overhead_ns: u64,
    /// Simulated time per gate (ns).
    pub gate_time_ns: u64,
    /// Simulated time per shot (ns) — state reset + readout.
    pub shot_time_ns: u64,
    /// Device noise; `NoiseModel::noiseless()` for ideal execution.
    pub noise: NoiseModel,
    /// RNG seed root for this device's shot noise.
    pub seed: u64,
    /// Probability that a job submission fails transiently (calibration
    /// drop, queue eviction). Failed jobs are retried by the pool; used
    /// for fault-injection testing of the scheduler.
    pub fail_prob: f64,
    /// Deterministic fault timeline on the pool's shared simulated
    /// clock: hard outages (every submission in the window fails) and
    /// degraded phases (jobs take a latency multiple). Empty by default.
    pub faults: FaultSchedule,
}

impl Default for QpuConfig {
    fn default() -> Self {
        QpuConfig {
            max_qubits: 24,
            submit_overhead_ns: 20_000, // 20 µs job setup
            gate_time_ns: 60,           // ~superconducting two-qubit gate
            shot_time_ns: 1_000,        // 1 µs per shot cycle
            noise: NoiseModel::noiseless(),
            seed: 0,
            fail_prob: 0.0,
            faults: FaultSchedule::none(),
        }
    }
}

/// A simulated quantum processing unit.
#[derive(Clone, Debug)]
pub struct QpuDevice {
    /// Pool-assigned device index.
    pub id: usize,
    config: QpuConfig,
}

impl QpuDevice {
    /// Creates a device with the given pool index and configuration.
    pub fn new(id: usize, config: QpuConfig) -> Self {
        QpuDevice { id, config }
    }

    /// The configuration.
    pub fn config(&self) -> &QpuConfig {
        &self.config
    }

    /// The simulated occupancy a job would incur on this device.
    pub fn sim_cost_ns(&self, job: &CircuitJob) -> u64 {
        let shots = job.shots.unwrap_or(0) as u64;
        self.config.submit_overhead_ns
            + job.circuit.len() as u64 * self.config.gate_time_ns
            + shots * job.observables.len() as u64 * self.config.shot_time_ns
    }

    /// Whether submission attempt `attempt` of `job` hits the injected
    /// transient-failure draw. Deterministic given the device seed, job id
    /// and attempt, so the pool can *predict* placement (its
    /// simulated-time dispatch) and execution then reproduces it.
    pub fn would_fail(&self, job: &CircuitJob, attempt: u32) -> bool {
        if self.config.fail_prob <= 0.0 {
            return false;
        }
        let mut fail_rng = StdRng::seed_from_u64(
            self.config.seed.wrapping_add(0xFA11)
                ^ job.id.wrapping_mul(0x5851_F42D_4C95_7F2D)
                ^ (attempt as u64).wrapping_mul(0x1405_7B7E_F767_814F),
        );
        fail_rng.random::<f64>() < self.config.fail_prob
    }

    /// Per-observable estimates, deterministic given the device seed and
    /// job id. Occupancy is not charged here: the pool's dispatch engine
    /// decides it (cost, degraded multipliers, hedge cancellations) on
    /// its own simulated clock.
    pub fn values(&self, job: &CircuitJob) -> Vec<f64> {
        assert!(
            job.circuit.num_qubits() <= self.config.max_qubits,
            "job needs {} qubits, device caps at {}",
            job.circuit.num_qubits(),
            self.config.max_qubits
        );
        let mut rng =
            StdRng::seed_from_u64(self.config.seed ^ job.id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        match (job.shots, self.config.noise.is_noiseless()) {
            (None, true) => {
                let state = StateVector::from_circuit(&job.circuit);
                job.observables
                    .iter()
                    .map(|o| state.expectation(o))
                    .collect()
            }
            (None, false) => {
                // Exact expectations are unavailable on noisy hardware;
                // model "asymptotic shots" with a large fixed budget.
                job.observables
                    .iter()
                    .map(|o| {
                        estimate_pauli_noisy(&job.circuit, o, &self.config.noise, 4096, &mut rng)
                    })
                    .collect()
            }
            (Some(shots), true) => {
                let state = StateVector::from_circuit(&job.circuit);
                job.observables
                    .iter()
                    .map(|o| estimate_pauli_with_shots(&state, o, shots, &mut rng))
                    .collect()
            }
            (Some(shots), false) => job
                .observables
                .iter()
                .map(|o| estimate_pauli_noisy(&job.circuit, o, &self.config.noise, shots, &mut rng))
                .collect(),
        }
    }

    /// Executes a job on its own, outside any pool: per-observable
    /// estimates plus the job's modeled cost as both its busy and its
    /// completion time. Deterministic given the device seed and job id.
    pub fn execute(&self, job: &CircuitJob) -> JobResult {
        let cost = self.sim_cost_ns(job);
        JobResult {
            id: job.id,
            values: self.values(job),
            device: self.id,
            sim_busy_ns: cost,
            sim_completed_ns: cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pauli::PauliString;
    use qsim::{Circuit, Gate};

    fn bell_job(id: u64, shots: Option<usize>) -> CircuitJob {
        let mut c = Circuit::new(2);
        c.push(Gate::H(0));
        c.push(Gate::Cnot {
            control: 0,
            target: 1,
        });
        CircuitJob::new(
            id,
            c,
            vec![
                PauliString::parse("ZZ").unwrap(),
                PauliString::parse("ZI").unwrap(),
            ],
            shots,
        )
    }

    #[test]
    fn exact_execution_matches_simulator() {
        let dev = QpuDevice::new(0, QpuConfig::default());
        let res = dev.execute(&bell_job(1, None));
        assert!((res.values[0] - 1.0).abs() < 1e-12);
        assert!(res.values[1].abs() < 1e-12);
        assert!(res.sim_busy_ns > 0);
    }

    #[test]
    fn shot_execution_approximates() {
        let dev = QpuDevice::new(0, QpuConfig::default());
        let res = dev.execute(&bell_job(2, Some(20_000)));
        assert!((res.values[0] - 1.0).abs() < 0.05);
        assert!(res.values[1].abs() < 0.05);
    }

    #[test]
    fn execution_is_deterministic_per_seed_and_job() {
        let d1 = QpuDevice::new(0, QpuConfig::default());
        let d2 = QpuDevice::new(0, QpuConfig::default());
        let r1 = d1.execute(&bell_job(3, Some(500)));
        let r2 = d2.execute(&bell_job(3, Some(500)));
        assert_eq!(r1.values, r2.values);
        // Different job id → different shot noise.
        let r3 = d1.execute(&bell_job(4, Some(500)));
        assert_ne!(r1.values, r3.values);
    }

    #[test]
    fn latency_model_scales_with_work() {
        let dev = QpuDevice::new(0, QpuConfig::default());
        let small = dev.sim_cost_ns(&bell_job(0, Some(10)));
        let big = dev.sim_cost_ns(&bell_job(0, Some(10_000)));
        assert!(big > small);
    }

    #[test]
    fn noisy_device_degrades_bell_correlation() {
        let config = QpuConfig {
            noise: NoiseModel {
                depol_1q: 0.02,
                depol_2q: 0.1,
                readout_flip: 0.05,
            },
            ..Default::default()
        };
        let dev = QpuDevice::new(0, config);
        let res = dev.execute(&bell_job(5, Some(3000)));
        assert!(res.values[0] < 0.97, "noise should reduce ⟨ZZ⟩ below 1");
        assert!(res.values[0] > 0.3, "but not destroy it entirely");
    }

    #[test]
    #[should_panic]
    fn oversized_job_rejected() {
        let config = QpuConfig {
            max_qubits: 1,
            ..Default::default()
        };
        let dev = QpuDevice::new(0, config);
        let _ = dev.execute(&bell_job(6, None));
    }
}
