//! Multi-QPU scheduling with fault domains.
//!
//! The host scatters a batch of [`CircuitJob`]s over the device pool
//! through one shared queue, drained in *simulated* time: each job goes
//! to whichever device's clock frees up first (lowest index on ties).
//! That is greedy list scheduling, so a healthy batch's simulated
//! makespan stays within Graham's bound `Σcost / devices + max cost`,
//! and placement is independent of host thread count and fully
//! reproducible.
//!
//! The queue feeds one **sim-time dispatch engine** that routes around
//! the fault domains of [`crate::fault`]:
//!
//! * failed submissions (transient draws, hard-outage windows) charge
//!   the submission overhead and retry under a bounded
//!   [`RetryPolicy`] — exponential backoff on
//!   the simulated clock, failover to a different device after a run of
//!   local failures, typed
//!   [`RetriesExhausted`](crate::fault::JobErrorKind::RetriesExhausted)
//!   when the budget runs out (the old pool panicked here);
//! * per-device circuit breakers quarantine devices after consecutive
//!   failures and re-admit them through half-open probes;
//! * jobs landing on a device degraded by at least
//!   [`HEDGE_AFTER_MULTIPLE`] get a hedge replica on another device —
//!   first completion wins, the loser's partial occupancy is charged to
//!   its device;
//! * jobs carrying a deadline budget are never dispatched or retried
//!   past it — they resolve to a typed
//!   [`DeadlineExpired`](crate::fault::JobErrorKind::DeadlineExpired).
//!
//! Dispatch decisions are made in a sequential simulated-time loop, so
//! placement — and therefore every result — is reproducible bit-for-bit
//! regardless of host thread count. Exact jobs are identical to the
//! no-fault path whenever they ultimately execute (failover changes
//! *where*, never *what*). Shot noise is not: a device seeds it from its
//! own seed and the job id, so a finite-shot value depends on the job's
//! position in its batch and on the device that ran it.
//! Execution then fans out on the **shared rayon executor**
//! (`rayon::scope`), the same persistent pool the `qsim` amplitude
//! kernels use, with `rayon::with_inner_threads` fair-share hints.
//! Results are returned in job-id order regardless of completion order.
//!
//! Each device's simulated clock carries over from one batch to the
//! next: a batch starts every device where the previous one left it, so
//! idle backoff and breaker cooldowns are never replayed and an outage
//! window a device has passed cannot hit it again.

use crate::device::{QpuConfig, QpuDevice};
use crate::fault::{
    CircuitBreaker, DeviceHealth, FaultPolicy, FaultStats, JobError, JobErrorKind, RetryPolicy,
    HEDGE_AFTER_MULTIPLE,
};
use crate::job::{CircuitJob, JobResult};
use std::collections::VecDeque;
use std::time::Instant;

/// How one job left the pool: a result, or a typed terminal failure.
pub type JobOutcome = Result<JobResult, JobError>;

/// The job id an outcome refers to.
pub fn outcome_id(outcome: &JobOutcome) -> u64 {
    match outcome {
        Ok(r) => r.id,
        Err(e) => e.id,
    }
}

/// Aggregate statistics of one batch execution. Every field covers this
/// batch alone, not the devices' lifetime totals.
#[derive(Clone, Debug)]
pub struct PoolReport {
    /// Wall-clock seconds for the whole batch.
    pub wall_secs: f64,
    /// Simulated makespan: the maximum per-device simulated busy time
    /// charged by this batch (s).
    pub sim_makespan_secs: f64,
    /// Mean device utilization over this batch: mean(busy) / max(busy).
    pub utilization: f64,
    /// Jobs each device completed in this batch.
    pub jobs_per_device: Vec<usize>,
    /// Failure/recovery taxonomy of this batch.
    pub faults: FaultStats,
}

/// One job waiting to be dispatched (or re-dispatched after a failure).
struct Pending {
    job: CircuitJob,
    /// Failed submission attempts so far — also the decorrelation index
    /// of the next failure draw, matching the pre-fault-layer pool.
    attempts: u32,
    /// Consecutive failures on `failed_on`.
    local_attempts: u32,
    /// Device of the most recent failure (failover bookkeeping).
    failed_on: Option<usize>,
    /// Earliest simulated dispatch time (exponential backoff gate).
    ready_ns: u64,
    /// Absolute simulated deadline (`u64::MAX` = none).
    deadline_ns: u64,
}

/// How a dispatch attempt left a pending job.
enum Disposition {
    /// Executed (possibly via a hedge) or terminally failed.
    Resolved,
    /// Failed transiently; requeue for another attempt.
    Requeue(Pending),
}

/// The sequential simulated-time dispatch state for one batch. Placement
/// and all fault routing happen here, single-threaded and deterministic;
/// actual circuit execution runs afterwards from the `placed` ledger.
struct Dispatcher<'a> {
    devices: &'a [QpuDevice],
    breakers: &'a mut [CircuitBreaker],
    retry: RetryPolicy,
    /// Per-device simulated timeline position (starts where the device's
    /// previous batch left it).
    clock: Vec<u64>,
    /// Per-device busy time charged this batch (executed jobs, failed
    /// submissions, cancelled hedge partials — idle backoff/cooldown
    /// gaps are *not* busy).
    busy: Vec<u64>,
    /// Per-device `(job, cost_ns, completed_at_ns)` execution ledger.
    placed: Vec<Vec<(CircuitJob, u64, u64)>>,
    /// Devices hedged against this batch (observed stragglers).
    hedged: Vec<bool>,
    errors: Vec<JobError>,
    stats: FaultStats,
}

impl<'a> Dispatcher<'a> {
    fn new(
        devices: &'a [QpuDevice],
        breakers: &'a mut [CircuitBreaker],
        retry: RetryPolicy,
        clock: Vec<u64>,
    ) -> Self {
        let n = devices.len();
        Dispatcher {
            devices,
            breakers,
            retry,
            clock,
            busy: vec![0; n],
            placed: vec![Vec::new(); n],
            hedged: vec![false; n],
            errors: Vec::new(),
            stats: FaultStats::default(),
        }
    }

    /// The batch's simulated origin: the earliest any device could take
    /// work. Deadline budgets and completion latencies are relative to it.
    fn origin(&self) -> u64 {
        self.clock.iter().copied().min().unwrap_or(0)
    }

    /// When device `d` could next dispatch (its clock, deferred past an
    /// open breaker's cooldown).
    fn free_ns(&self, d: usize) -> u64 {
        self.breakers[d].ready_ns(self.clock[d])
    }

    /// Whether dispatching `job` on `d` at `now` would fail: hard-outage
    /// window first, then the transient draw.
    fn submission_fails(&self, d: usize, job: &CircuitJob, attempt: u32, now: u64) -> bool {
        self.devices[d].config().faults.is_down_at(now) || self.devices[d].would_fail(job, attempt)
    }

    /// The simulated cost of `job` on `d` dispatched at `now`, including
    /// the degraded-phase latency multiplier.
    fn cost_at(&self, d: usize, job: &CircuitJob, now: u64) -> u64 {
        let base = self.devices[d].sim_cost_ns(job) as f64;
        let mult = self.devices[d].config().faults.latency_multiplier_at(now);
        (base * mult).round() as u64
    }

    /// Attempts `p` on device `d` at the earliest feasible time. On
    /// success the job (or its winning hedge) lands in the `placed`
    /// ledger; terminal failures land in `errors`.
    fn dispatch(&mut self, mut p: Pending, d: usize) -> Disposition {
        let t0 = self.free_ns(d).max(p.ready_ns);
        if t0 > p.deadline_ns {
            self.fail_terminal(
                &p,
                JobErrorKind::DeadlineExpired {
                    deadline_ns: p.deadline_ns,
                    now_ns: t0,
                },
            );
            return Disposition::Resolved;
        }
        // Landing on a different device after a failure run is a failover.
        if let Some(prev) = p.failed_on {
            if prev != d {
                self.stats.failovers += 1;
                p.failed_on = None;
                p.local_attempts = 0;
            }
        }
        if self.breakers[d].on_dispatch(t0) {
            self.stats.probes += 1;
        }
        if self.submission_fails(d, &p.job, p.attempts, t0) {
            let end = t0 + self.devices[d].config().submit_overhead_ns;
            self.clock[d] = end;
            self.busy[d] += self.devices[d].config().submit_overhead_ns;
            if self.breakers[d].on_failure(end) {
                self.stats.breaker_trips += 1;
            }
            p.attempts += 1;
            if p.failed_on == Some(d) {
                p.local_attempts += 1;
            } else {
                p.failed_on = Some(d);
                p.local_attempts = 1;
            }
            if p.attempts >= self.retry.max_attempts_total {
                self.fail_terminal(&p, JobErrorKind::RetriesExhausted);
                return Disposition::Resolved;
            }
            self.stats.retries += 1;
            p.ready_ns = end + self.retry.backoff_ns(p.attempts);
            if p.ready_ns > p.deadline_ns {
                self.fail_terminal(
                    &p,
                    JobErrorKind::DeadlineExpired {
                        deadline_ns: p.deadline_ns,
                        now_ns: p.ready_ns,
                    },
                );
                return Disposition::Resolved;
            }
            return Disposition::Requeue(p);
        }
        // Successful submission.
        self.breakers[d].on_success();
        let cost = self.cost_at(d, &p.job, t0);
        let end = t0 + cost;
        let mult = self.devices[d].config().faults.latency_multiplier_at(t0);
        if let Some((c, h_start, h_cost)) = self.hedge_candidate(&p, d, t0, end, mult) {
            // Straggler: launch a replica on `c`; first completion wins,
            // the loser is cancelled and charged for the time it held
            // its device.
            self.stats.hedges_launched += 1;
            self.hedged[d] = true;
            self.breakers[c].on_dispatch(h_start);
            let h_end = h_start + h_cost;
            if h_end < end {
                self.stats.hedges_won += 1;
                self.breakers[c].on_success();
                self.placed[c].push((p.job, h_cost, h_end));
                self.clock[c] = h_end;
                self.busy[c] += h_cost;
                // Primary cancelled once the hedge finishes.
                self.clock[d] = h_end;
                self.busy[d] += h_end - t0;
            } else {
                self.placed[d].push((p.job, cost, end));
                self.clock[d] = end;
                self.busy[d] += cost;
                // Hedge cancelled once the primary finishes.
                self.clock[c] = end;
                self.busy[c] += end - h_start;
            }
        } else {
            self.placed[d].push((p.job, cost, end));
            self.clock[d] = end;
            self.busy[d] += cost;
        }
        Disposition::Resolved
    }

    /// A hedge target for a straggling primary: the device (≠ `d`) with
    /// the earliest replica completion, provided it is up, its failure
    /// draw passes, it can start before the primary finishes, and the
    /// primary really is straggling (`mult` at/over
    /// [`HEDGE_AFTER_MULTIPLE`]).
    fn hedge_candidate(
        &self,
        p: &Pending,
        d: usize,
        t0: u64,
        primary_end: u64,
        mult: f64,
    ) -> Option<(usize, u64, u64)> {
        if mult < HEDGE_AFTER_MULTIPLE || self.devices.len() < 2 {
            return None;
        }
        (0..self.devices.len())
            .filter(|&c| c != d)
            .filter_map(|c| {
                let h_start = self.free_ns(c).max(t0);
                if h_start >= primary_end || self.submission_fails(c, &p.job, p.attempts, h_start) {
                    return None;
                }
                Some((c, h_start, self.cost_at(c, &p.job, h_start)))
            })
            .min_by_key(|&(c, h_start, h_cost)| (h_start + h_cost, c))
    }

    fn fail_terminal(&mut self, p: &Pending, kind: JobErrorKind) {
        self.stats.jobs_failed += 1;
        self.errors.push(JobError {
            id: p.job.id,
            attempts: p.attempts,
            kind,
        });
    }
}

/// A pool of simulated QPUs.
pub struct QpuPool {
    devices: Vec<QpuDevice>,
    fault_policy: FaultPolicy,
    breakers: Vec<CircuitBreaker>,
    /// Where each device's simulated clock stopped after the last batch.
    clock_ns: Vec<u64>,
    hedged_last: Vec<bool>,
    lifetime_faults: FaultStats,
}

impl QpuPool {
    /// Builds a homogeneous pool of `count` devices (seeds staggered so
    /// devices draw independent shot noise).
    pub fn homogeneous(count: usize, base: QpuConfig) -> Self {
        assert!(count >= 1);
        let devices = (0..count)
            .map(|i| {
                let mut cfg = base.clone();
                cfg.seed = base.seed.wrapping_add(i as u64 * 0x0123_4567_89AB_CDEF);
                QpuDevice::new(i, cfg)
            })
            .collect();
        Self::from_devices(devices)
    }

    /// Builds a pool from explicit device configurations.
    pub fn heterogeneous(configs: Vec<QpuConfig>) -> Self {
        assert!(!configs.is_empty());
        let devices = configs
            .into_iter()
            .enumerate()
            .map(|(i, c)| QpuDevice::new(i, c))
            .collect();
        Self::from_devices(devices)
    }

    fn from_devices(devices: Vec<QpuDevice>) -> Self {
        let fault_policy = FaultPolicy::default();
        let n = devices.len();
        QpuPool {
            devices,
            fault_policy,
            breakers: vec![CircuitBreaker::new(fault_policy.breaker); n],
            clock_ns: vec![0; n],
            hedged_last: vec![false; n],
            lifetime_faults: FaultStats::default(),
        }
    }

    /// Replaces the fault policy (retry/failover bounds, breaker
    /// tuning); resets the breakers to the new configuration.
    pub fn with_fault_policy(mut self, fault_policy: FaultPolicy) -> Self {
        self.fault_policy = fault_policy;
        self.breakers = vec![CircuitBreaker::new(fault_policy.breaker); self.devices.len()];
        self
    }

    /// Lifetime failure/recovery counters, summed over every batch.
    pub fn fault_stats(&self) -> &FaultStats {
        &self.lifetime_faults
    }

    /// Observed per-device health: breaker state plus whether the device
    /// was hedged against (straggling) in the most recent batch.
    pub fn device_health(&self) -> Vec<DeviceHealth> {
        self.breakers
            .iter()
            .zip(&self.hedged_last)
            .map(|(b, &straggler)| b.health(straggler))
            .collect()
    }

    /// Executes a batch; returns `(outcomes sorted by job id, report)`.
    /// Every submitted job yields exactly one outcome: a [`JobResult`]
    /// bit-for-bit identical to what the no-fault path would produce
    /// (for exact jobs; shot noise follows the executing device's seed),
    /// or a typed [`JobError`] once retries/failover/deadline budgets
    /// are exhausted. An empty batch leaves every device clock where it
    /// was (serving-style callers legitimately hit this when every
    /// request of a micro-batch was shed or cached).
    pub fn execute_batch(&mut self, jobs: Vec<CircuitJob>) -> (Vec<JobOutcome>, PoolReport) {
        let started = Instant::now();
        let n_dev = self.devices.len();

        // Phase 1: sequential simulated-time dispatch — placement, retry,
        // failover, breakers, hedging. Deterministic by construction.
        let mut dispatcher = Dispatcher::new(
            &self.devices,
            &mut self.breakers,
            self.fault_policy.retry,
            self.clock_ns.clone(),
        );
        let origin = dispatcher.origin();
        let mut queue: VecDeque<Pending> = jobs
            .into_iter()
            .map(|job| {
                let deadline_ns = job
                    .sim_budget_ns
                    .map_or(u64::MAX, |b| origin.saturating_add(b));
                Pending {
                    job,
                    attempts: 0,
                    local_attempts: 0,
                    failed_on: None,
                    ready_ns: 0,
                    deadline_ns,
                }
            })
            .collect();
        while let Some(p) = queue.pop_front() {
            let d = dispatch_target(&dispatcher, &p);
            if let Disposition::Requeue(p) = dispatcher.dispatch(p, d) {
                queue.push_back(p);
            }
        }
        let Dispatcher {
            clock,
            busy,
            placed,
            hedged,
            errors,
            stats,
            ..
        } = dispatcher;
        self.clock_ns = clock;
        self.hedged_last = hedged;
        self.lifetime_faults.absorb(&stats);

        // Phase 2: execute the placement ledger in parallel on the shared
        // executor; `values` is pure.
        let hint = Self::inner_threads_hint(placed.iter().filter(|q| !q.is_empty()).count());
        let mut outs: Vec<Vec<JobResult>> = Vec::with_capacity(n_dev);
        outs.resize_with(n_dev, Vec::new);
        rayon::scope(|s| {
            for ((dev, work), out) in self.devices.iter().zip(&placed).zip(outs.iter_mut()) {
                if work.is_empty() {
                    continue;
                }
                s.spawn(move || {
                    rayon::with_inner_threads(hint, || {
                        *out = work
                            .iter()
                            .map(|(job, cost_ns, done_ns)| JobResult {
                                id: job.id,
                                values: dev.values(job),
                                device: dev.id,
                                sim_busy_ns: *cost_ns,
                                sim_completed_ns: done_ns - origin,
                            })
                            .collect();
                    });
                });
            }
        });

        let mut outcomes: Vec<JobOutcome> = outs
            .into_iter()
            .flatten()
            .map(Ok)
            .chain(errors.into_iter().map(Err))
            .collect();
        outcomes.sort_by_key(outcome_id);

        let max_busy = *busy.iter().max().unwrap() as f64;
        let mean_busy = busy.iter().sum::<u64>() as f64 / n_dev as f64;
        let report = PoolReport {
            wall_secs: started.elapsed().as_secs_f64(),
            sim_makespan_secs: max_busy / 1e9,
            utilization: if max_busy > 0.0 {
                mean_busy / max_busy
            } else {
                1.0
            },
            jobs_per_device: placed.iter().map(Vec::len).collect(),
            faults: stats,
        };
        (outcomes, report)
    }

    /// Fair-share kernel fan-out per device task: with `active` device
    /// tasks sharing `rayon::current_num_threads()` pool threads, each
    /// job's inner amplitude kernels get `threads / active` of them (at
    /// least 1 — which runs the kernels inline on the device task).
    fn inner_threads_hint(active: usize) -> usize {
        (rayon::current_num_threads() / active.max(1)).max(1)
    }
}

/// The device `p` goes to: the one that could dispatch it earliest
/// (breaker cooldowns included, lowest index on ties), excluding the
/// device it just failed on once the local-attempt budget forces a
/// failover.
fn dispatch_target(dispatcher: &Dispatcher<'_>, p: &Pending) -> usize {
    let n = dispatcher.devices.len();
    let exclude = match p.failed_on {
        Some(prev) if n > 1 && p.local_attempts >= dispatcher.retry.max_attempts_per_device => {
            Some(prev)
        }
        _ => None,
    };
    (0..n)
        .filter(|&d| Some(d) != exclude)
        .min_by_key(|&d| (dispatcher.free_ns(d).max(p.ready_ns), d))
        .unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{BreakerConfig, FaultSchedule, RetryPolicy};
    use pauli::PauliString;
    use qsim::{Circuit, Gate};

    fn make_jobs(count: usize, shots: Option<usize>) -> Vec<CircuitJob> {
        (0..count as u64)
            .map(|id| {
                let mut c = Circuit::new(3);
                c.push(Gate::Ry(0, 0.1 + id as f64 * 0.01));
                c.push(Gate::Cnot {
                    control: 0,
                    target: 1,
                });
                c.push(Gate::Cnot {
                    control: 1,
                    target: 2,
                });
                CircuitJob::new(
                    id,
                    c,
                    vec![
                        PauliString::parse("ZZI").unwrap(),
                        PauliString::parse("IIZ").unwrap(),
                    ],
                    shots,
                )
            })
            .collect()
    }

    fn unwrap_all(outcomes: Vec<JobOutcome>) -> Vec<JobResult> {
        outcomes
            .into_iter()
            .map(|o| o.expect("job failed"))
            .collect()
    }

    #[test]
    fn returns_all_results_in_order() {
        let mut pool = QpuPool::homogeneous(3, QpuConfig::default());
        let (results, report) = pool.execute_batch(make_jobs(20, None));
        let results = unwrap_all(results);
        assert_eq!(results.len(), 20);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.id, i as u64);
        }
        assert_eq!(report.jobs_per_device.iter().sum::<usize>(), 20);
        assert_eq!(report.faults, FaultStats::default(), "healthy pool");
    }

    #[test]
    fn equal_jobs_spread_within_one() {
        // Equal jobs on a homogeneous pool: the list scheduler spreads
        // them as evenly as round-robin would, counts differing by at
        // most one.
        let mut pool = QpuPool::homogeneous(3, QpuConfig::default());
        let (_, report) = pool.execute_batch(make_jobs(20, None));
        let min = report.jobs_per_device.iter().min().unwrap();
        let max = report.jobs_per_device.iter().max().unwrap();
        assert!(max - min <= 1, "{:?}", report.jobs_per_device);
    }

    #[test]
    fn makespan_within_grahams_bound() {
        // Wildly different shot counts: any work-conserving list
        // scheduler keeps the makespan within Σcost/devices + max cost
        // (Graham's bound).
        let shots = [10_000, 10, 10, 10, 10_000, 10, 10, 10];
        let mixed: Vec<CircuitJob> = shots
            .iter()
            .enumerate()
            .map(|(id, &s)| {
                let mut c = Circuit::new(2);
                c.push(Gate::H(0));
                CircuitJob::new(
                    id as u64,
                    c,
                    vec![PauliString::parse("ZI").unwrap()],
                    Some(s),
                )
            })
            .collect();
        let devices = 2;
        let probe = QpuDevice::new(0, QpuConfig::default());
        let costs: Vec<u64> = mixed.iter().map(|j| probe.sim_cost_ns(j)).collect();
        let bound =
            costs.iter().sum::<u64>() as f64 / devices as f64 + *costs.iter().max().unwrap() as f64;
        let mut pool = QpuPool::homogeneous(devices, QpuConfig::default());
        let (_, report) = pool.execute_batch(mixed);
        assert!(
            report.sim_makespan_secs * 1e9 <= bound,
            "makespan {} s over Graham's bound {} ns",
            report.sim_makespan_secs,
            bound
        );
    }

    #[test]
    fn report_describes_one_batch() {
        let mut pool = QpuPool::homogeneous(3, QpuConfig::default());
        let (_, first) = pool.execute_batch(make_jobs(12, None));
        assert_eq!(first.jobs_per_device.iter().sum::<usize>(), 12);
        let (_, second) = pool.execute_batch(make_jobs(7, None));
        assert_eq!(second.jobs_per_device.iter().sum::<usize>(), 7);
        assert!(second.sim_makespan_secs < first.sim_makespan_secs);
        assert!(second.utilization > 0.0 && second.utilization <= 1.0 + 1e-12);
    }

    #[test]
    fn utilization_in_unit_interval() {
        let mut pool = QpuPool::homogeneous(3, QpuConfig::default());
        let (_, report) = pool.execute_batch(make_jobs(30, Some(50)));
        assert!(report.utilization > 0.0 && report.utilization <= 1.0 + 1e-12);
        assert!(report.sim_makespan_secs > 0.0);
    }

    #[test]
    fn one_device_takes_every_job() {
        let mut pool = QpuPool::homogeneous(1, QpuConfig::default());
        let (outcomes, report) = pool.execute_batch(make_jobs(6, None));
        assert_eq!(unwrap_all(outcomes).len(), 6);
        assert_eq!(report.jobs_per_device, vec![6]);
        assert_eq!(report.utilization, 1.0);
    }

    #[test]
    fn second_batch_starts_where_first_left_off() {
        // Both devices are down over [20 µs, 500 µs) and back off 1 ms:
        // batch 1 retries past the window, so its clocks end after it.
        // Batch 2 starts every device there and pays no retry.
        let config = QpuConfig {
            faults: FaultSchedule::none().with_outage(20_000, 500_000),
            ..Default::default()
        };
        let mut pool = QpuPool::homogeneous(2, config).with_fault_policy(FaultPolicy {
            retry: RetryPolicy {
                backoff_base_ns: 1_000_000,
                ..Default::default()
            },
            ..Default::default()
        });
        let (_, first) = pool.execute_batch(make_jobs(4, None));
        assert!(first.faults.retries > 0, "batch 1 meets the outage");
        let left_off = pool.clock_ns.clone();
        let (outcomes, second) = pool.execute_batch(make_jobs(4, None));
        assert_eq!(
            second.faults,
            FaultStats::default(),
            "passed outage hit again"
        );
        let origin = *left_off.iter().min().unwrap();
        for r in unwrap_all(outcomes) {
            let start = origin + r.sim_completed_ns - r.sim_busy_ns;
            assert!(
                start >= left_off[r.device],
                "device {} ran backwards",
                r.device
            );
        }
    }

    #[test]
    fn fault_injection_all_jobs_still_complete() {
        // 30% transient failure rate: the pool must still deliver every
        // job exactly once, with identical exact values.
        let config = QpuConfig {
            fail_prob: 0.3,
            ..Default::default()
        };
        let reference = {
            let mut pool = QpuPool::homogeneous(3, QpuConfig::default());
            unwrap_all(pool.execute_batch(make_jobs(24, None)).0)
        };
        let mut pool = QpuPool::homogeneous(3, config);
        let (results, report) = pool.execute_batch(make_jobs(24, None));
        let results = unwrap_all(results);
        assert_eq!(results.len(), 24, "lost jobs");
        for (r, want) in results.iter().zip(reference.iter()) {
            assert_eq!(r.id, want.id);
            assert_eq!(r.values, want.values, "corrupted results");
        }
        assert_eq!(report.jobs_per_device.iter().sum::<usize>(), 24);
        assert!(report.faults.retries > 0, "must observe retries");
    }

    #[test]
    fn fault_injection_charges_failed_submissions() {
        let clean = QpuConfig::default();
        let flaky = QpuConfig {
            fail_prob: 0.5,
            ..Default::default()
        };
        let mut clean_pool = QpuPool::homogeneous(1, clean);
        let (_, clean_report) = clean_pool.execute_batch(make_jobs(20, None));
        let mut flaky_pool = QpuPool::homogeneous(1, flaky);
        let (_, flaky_report) = flaky_pool.execute_batch(make_jobs(20, None));
        assert!(
            flaky_report.sim_makespan_secs > clean_report.sim_makespan_secs,
            "retries must cost simulated time: {} vs {}",
            flaky_report.sim_makespan_secs,
            clean_report.sim_makespan_secs
        );
    }

    #[test]
    fn heterogeneous_pool_runs() {
        let fast = QpuConfig {
            gate_time_ns: 10,
            ..Default::default()
        };
        let slow = QpuConfig {
            gate_time_ns: 1_000,
            seed: 1,
            ..Default::default()
        };
        let mut pool = QpuPool::heterogeneous(vec![fast, slow]);
        let (results, _) = pool.execute_batch(make_jobs(10, None));
        assert_eq!(unwrap_all(results).len(), 10);
    }

    #[test]
    fn retries_exhausted_is_a_typed_error_not_a_panic() {
        // A device that always fails resolves every job to a typed error
        // once the (small) attempt budget runs out — the old pool
        // panicked here.
        let config = QpuConfig {
            fail_prob: 1.0,
            ..Default::default()
        };
        let mut pool = QpuPool::homogeneous(1, config).with_fault_policy(FaultPolicy {
            retry: RetryPolicy {
                max_attempts_total: 4,
                ..Default::default()
            },
            ..Default::default()
        });
        let (outcomes, report) = pool.execute_batch(make_jobs(3, None));
        assert_eq!(outcomes.len(), 3);
        for (i, o) in outcomes.iter().enumerate() {
            let err = o.as_ref().expect_err("must fail");
            assert_eq!(err.id, i as u64);
            assert_eq!(err.attempts, 4);
            assert_eq!(err.kind, JobErrorKind::RetriesExhausted);
        }
        assert_eq!(report.faults.jobs_failed, 3);
    }

    #[test]
    fn outage_window_fails_over_to_healthy_device() {
        // Device 0 is down for the whole batch; with bit-for-bit identical
        // results, every job must land on device 1.
        let down = QpuConfig {
            faults: FaultSchedule::none().with_outage(0, u64::MAX),
            ..Default::default()
        };
        let up = QpuConfig {
            seed: 99,
            ..Default::default()
        };
        let clean = {
            let mut pool = QpuPool::homogeneous(2, QpuConfig::default());
            unwrap_all(pool.execute_batch(make_jobs(12, None)).0)
        };
        let mut pool = QpuPool::heterogeneous(vec![down, up]);
        let (outcomes, report) = pool.execute_batch(make_jobs(12, None));
        let results = unwrap_all(outcomes);
        assert_eq!(results.len(), 12);
        for (r, want) in results.iter().zip(clean.iter()) {
            assert_eq!(r.values, want.values, "failover changed values");
            assert_eq!(r.device, 1, "job ran on the dead device");
        }
        assert!(report.faults.failovers > 0, "must fail over");
    }

    #[test]
    fn breaker_quarantines_dead_device_and_health_reflects_it() {
        let dead = QpuConfig {
            faults: FaultSchedule::none().with_outage(0, u64::MAX),
            ..Default::default()
        };
        let mut pool = QpuPool::heterogeneous(vec![dead, QpuConfig::default()]).with_fault_policy(
            FaultPolicy {
                breaker: BreakerConfig {
                    failure_threshold: 3,
                    cooldown_ns: u64::MAX / 2,
                },
                ..Default::default()
            },
        );
        let (outcomes, report) = pool.execute_batch(make_jobs(20, None));
        assert!(outcomes.iter().all(|o| o.is_ok()));
        assert!(report.faults.breaker_trips >= 1, "dead device must trip");
        let health = pool.device_health();
        assert_eq!(health[0], DeviceHealth::Quarantined);
        assert_eq!(health[1], DeviceHealth::Healthy);
        // Quarantine caps the dead device's charges: after the trip it
        // takes no further submissions this batch.
        assert!(report.jobs_per_device[0] == 0);
    }

    #[test]
    fn breaker_half_open_probe_readmits_recovered_device() {
        // Device 0 is down only for an initial window; after the breaker
        // cooldown a probe lands in the healthy region and re-admits it.
        let flappy = QpuConfig {
            faults: FaultSchedule::none().with_outage(0, 100_000),
            ..Default::default()
        };
        let mut pool = QpuPool::heterogeneous(vec![flappy, QpuConfig::default()])
            .with_fault_policy(FaultPolicy {
                breaker: BreakerConfig {
                    failure_threshold: 2,
                    cooldown_ns: 200_000,
                },
                ..Default::default()
            });
        let (outcomes, report) = pool.execute_batch(make_jobs(40, None));
        assert!(outcomes.iter().all(|o| o.is_ok()));
        assert!(report.faults.breaker_trips >= 1);
        assert!(report.faults.probes >= 1, "cooldown must end in a probe");
        assert!(
            report.jobs_per_device[0] > 0,
            "recovered device must be re-admitted"
        );
        assert_eq!(pool.device_health()[0], DeviceHealth::Healthy);
    }

    #[test]
    fn degraded_device_gets_hedged_and_hedge_wins() {
        // Device 0 is a 10× straggler for the whole batch; every job that
        // lands on it should be hedged onto device 1, and the hedge wins.
        let slow = QpuConfig {
            faults: FaultSchedule::none().with_degraded(0, u64::MAX, 10.0),
            ..Default::default()
        };
        let mut pool = QpuPool::heterogeneous(vec![slow, QpuConfig::default()]);
        let (outcomes, report) = pool.execute_batch(make_jobs(10, None));
        let results = unwrap_all(outcomes);
        assert!(
            report.faults.hedges_launched > 0,
            "straggler must be hedged"
        );
        assert!(report.faults.hedges_won > 0, "hedges must win against 10×");
        assert!(
            results.iter().all(|r| r.device == 1),
            "winning hedges all run on the fast device"
        );
        assert_eq!(pool.device_health()[0], DeviceHealth::Degraded);
    }

    #[test]
    fn deadline_budget_expires_as_typed_error() {
        // One always-failing device and a deadline too tight to ride out
        // the retries: jobs resolve to DeadlineExpired, not a hang.
        let config = QpuConfig {
            fail_prob: 1.0,
            ..Default::default()
        };
        let mut pool = QpuPool::homogeneous(1, config);
        let jobs: Vec<CircuitJob> = make_jobs(2, None)
            .into_iter()
            .map(|j| j.with_budget(50_000))
            .collect();
        let (outcomes, _) = pool.execute_batch(jobs);
        for o in outcomes {
            let err = o.expect_err("deadline must expire");
            assert!(
                matches!(err.kind, JobErrorKind::DeadlineExpired { .. }),
                "got {:?}",
                err.kind
            );
        }
    }

    #[test]
    fn generous_deadline_does_not_fail_jobs() {
        let mut pool = QpuPool::homogeneous(2, QpuConfig::default());
        let jobs: Vec<CircuitJob> = make_jobs(8, None)
            .into_iter()
            .map(|j| j.with_budget(u64::MAX / 2))
            .collect();
        let (outcomes, _) = pool.execute_batch(jobs);
        assert!(outcomes.iter().all(|o| o.is_ok()));
    }

    #[test]
    fn completion_times_are_monotone_in_latency_model() {
        let mut pool = QpuPool::homogeneous(2, QpuConfig::default());
        let (outcomes, _) = pool.execute_batch(make_jobs(8, Some(100)));
        for r in unwrap_all(outcomes) {
            assert!(r.sim_completed_ns >= r.sim_busy_ns);
        }
    }

    #[test]
    fn lifetime_fault_stats_accumulate_across_batches() {
        let flaky = QpuConfig {
            fail_prob: 0.4,
            ..Default::default()
        };
        let mut pool = QpuPool::homogeneous(2, flaky);
        let (_, first) = pool.execute_batch(make_jobs(16, None));
        let after_first = *pool.fault_stats();
        let (_, second) = pool.execute_batch(make_jobs(16, None));
        assert_eq!(after_first.retries, first.faults.retries);
        assert_eq!(
            pool.fault_stats().retries,
            first.faults.retries + second.faults.retries
        );
    }
}
