//! # hpcq — hybrid HPC-QC runtime
//!
//! The system layer of the reproduction: post-variational networks push
//! *all* quantum work into one embarrassingly parallel batch of fixed
//! circuits ("measurements are executed in one go on quantum computer",
//! Table I), which is exactly the workload shape an HPC host wants to
//! scatter across a pool of QPUs. This crate models that system:
//!
//! * [`CircuitJob`] / [`JobResult`] — the unit of quantum work (one
//!   prepared state, many observables),
//! * [`QpuDevice`] — a simulated quantum device: state-vector execution +
//!   shot noise + optional NISQ noise model + a latency/queue cost model
//!   (gate time, readout time, per-job submission overhead),
//! * [`QpuPool`] — a device pool that drains each batch through one
//!   simulated-time dynamic queue (a job goes to the device that frees
//!   up first), running its device tasks on the **same persistent rayon executor** the
//!   `qsim` amplitude kernels fan out on — one shared core budget with
//!   per-task fair-share fan-out hints instead of devices × cores
//!   oversubscription,
//! * [`QpuPool::feature_rows`] — the quantum stage of Algorithm 1 in one
//!   call: one job per (data point, shifted ansatz), the backend's shot
//!   budget on each, rows assembled in column order or one typed
//!   [`FeatureBatchError`],
//! * [`fault`] — the fault-domain layer: deterministic device fault
//!   schedules (outages, straggler phases), bounded retry with failover,
//!   per-device circuit breakers, hedged dispatch, and the typed
//!   [`JobError`] taxonomy jobs resolve to instead of panicking,
//! * [`scaling`] — strong-scaling harness (speedup/efficiency vs worker
//!   count) behind the `exp_scaling` experiment binary.

pub mod device;
pub mod fault;
pub mod features;
pub mod job;
pub mod pool;
pub mod scaling;

pub use device::{QpuConfig, QpuDevice};
pub use fault::{
    BreakerConfig, CircuitBreaker, DeviceHealth, FaultKind, FaultPolicy, FaultSchedule, FaultStats,
    FaultWindow, JobError, JobErrorKind, RetryPolicy, HEDGE_AFTER_MULTIPLE,
};
pub use features::FeatureBatchError;
pub use job::{CircuitJob, JobResult};
pub use pool::{outcome_id, JobOutcome, PoolReport, QpuPool};
pub use scaling::{strong_scaling, ScalingPoint};
