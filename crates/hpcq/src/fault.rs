//! Fault domains: device fault schedules, health tracking, and the
//! policies that route work around failures.
//!
//! The paper's premise makes QPUs the scarce, *flaky* resource of the
//! hybrid system — real devices drop calibrations, go dark for
//! maintenance windows, and straggle when their control electronics
//! degrade. This module models those failure domains deterministically
//! (so chaos experiments replay bit-for-bit) and defines the policies
//! the pool uses to survive them:
//!
//! * [`FaultSchedule`] — a deterministic timeline of hard outages and
//!   degraded (latency-multiplied) phases injected into a device, on
//!   top of the per-submission transient `fail_prob` draw;
//! * [`RetryPolicy`] — bounded retry with exponential backoff charged
//!   to the simulated clock, failing over to a *different* device after
//!   a run of local attempts, and honoring per-job deadline budgets;
//! * [`CircuitBreaker`] — per-device consecutive-failure breaker:
//!   trip → quarantine for a cooldown → half-open probe → re-admission,
//!   which keeps dead devices out of the dispatch rotation;
//! * [`HEDGE_AFTER_MULTIPLE`] — straggler hedging: a job dispatched to
//!   a device running at least that many times slower than its modeled
//!   cost gets a replica on another device, first completion wins, the
//!   loser is cancelled and its partial occupancy accounted;
//! * [`JobError`] — the typed failure a job resolves to when every
//!   recovery avenue is exhausted (the old pool panicked instead);
//! * [`FaultStats`] — the failure/recovery taxonomy every batch and the
//!   pool lifetime report.

use std::error::Error;
use std::fmt;

/// What a fault window does to the device while active.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// Hard outage: every submission in the window fails (charging the
    /// submission overhead, like any failed submission).
    Outage,
    /// Straggler phase: jobs execute but take `latency_x` times their
    /// modeled cost.
    Degraded {
        /// Latency multiplier applied to the job's simulated cost.
        latency_x: f64,
    },
}

/// One contiguous fault window `[start_ns, end_ns)` on a device's
/// simulated timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultWindow {
    /// Window start (simulated ns, inclusive).
    pub start_ns: u64,
    /// Window end (simulated ns, exclusive).
    pub end_ns: u64,
    /// What happens inside the window.
    pub kind: FaultKind,
}

/// A deterministic fault timeline for one device. Windows may overlap;
/// an outage dominates a degraded phase at the same instant.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSchedule {
    /// The fault windows, in any order.
    pub windows: Vec<FaultWindow>,
}

impl FaultSchedule {
    /// A schedule with no injected faults.
    pub fn none() -> Self {
        FaultSchedule::default()
    }

    /// A schedule from explicit windows.
    pub fn new(windows: Vec<FaultWindow>) -> Self {
        FaultSchedule { windows }
    }

    /// Adds a hard-outage window.
    pub fn with_outage(mut self, start_ns: u64, end_ns: u64) -> Self {
        self.windows.push(FaultWindow {
            start_ns,
            end_ns,
            kind: FaultKind::Outage,
        });
        self
    }

    /// Adds a degraded (straggler) window with the given latency
    /// multiplier.
    pub fn with_degraded(mut self, start_ns: u64, end_ns: u64, latency_x: f64) -> Self {
        assert!(latency_x >= 1.0, "latency multiplier below 1 is a speedup");
        self.windows.push(FaultWindow {
            start_ns,
            end_ns,
            kind: FaultKind::Degraded { latency_x },
        });
        self
    }

    /// Whether the device is hard-down at simulated time `now_ns`.
    pub fn is_down_at(&self, now_ns: u64) -> bool {
        self.windows
            .iter()
            .any(|w| w.kind == FaultKind::Outage && (w.start_ns..w.end_ns).contains(&now_ns))
    }

    /// The latency multiplier at `now_ns` (1.0 outside degraded
    /// windows; overlapping windows compound by taking the maximum).
    pub fn latency_multiplier_at(&self, now_ns: u64) -> f64 {
        self.windows
            .iter()
            .filter(|w| (w.start_ns..w.end_ns).contains(&now_ns))
            .filter_map(|w| match w.kind {
                FaultKind::Degraded { latency_x } => Some(latency_x),
                FaultKind::Outage => None,
            })
            .fold(1.0, f64::max)
    }
}

/// Bounded retry with exponential backoff and failover.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempt budget per job across all devices; exhausting it
    /// resolves the job to [`JobErrorKind::RetriesExhausted`]. The
    /// default matches the old hard-coded panic bound, so workloads the
    /// unbounded pool completed still complete.
    pub max_attempts_total: u32,
    /// Local attempts on one device before the job fails over to a
    /// different device (when the pool has one).
    pub max_attempts_per_device: u32,
    /// First-retry backoff (simulated ns); doubles every further
    /// attempt.
    pub backoff_base_ns: u64,
    /// Backoff ceiling (simulated ns).
    pub backoff_cap_ns: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts_total: 1000,
            max_attempts_per_device: 3,
            backoff_base_ns: 10_000,   // 10 µs
            backoff_cap_ns: 5_000_000, // 5 ms
        }
    }
}

impl RetryPolicy {
    /// The backoff charged before retry number `attempt` (1-based):
    /// `base · 2^(attempt-1)`, capped.
    pub fn backoff_ns(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(32);
        self.backoff_base_ns
            .saturating_mul(1u64 << shift)
            .min(self.backoff_cap_ns)
    }
}

/// Circuit-breaker tuning.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive submission failures that trip the breaker.
    pub failure_threshold: u32,
    /// Quarantine duration after a trip (simulated ns); when it
    /// elapses the breaker half-opens and the next dispatch probes.
    pub cooldown_ns: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            cooldown_ns: 10_000_000, // 10 ms
        }
    }
}

/// Straggler threshold: a job dispatched to a device whose degraded
/// phase multiplies its modeled cost by at least this factor gets a
/// hedge replica on another device (in a pool of two or more).
pub const HEDGE_AFTER_MULTIPLE: f64 = 3.0;

/// Everything the pool consults when routing around failures.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultPolicy {
    /// Retry/failover bounds.
    pub retry: RetryPolicy,
    /// Per-device breaker tuning.
    pub breaker: BreakerConfig,
}

/// Observed device health, derived from dispatch outcomes (not from the
/// injected schedule — the scheduler only knows what it has seen).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceHealth {
    /// No recent failures.
    Healthy,
    /// Recent failures below the breaker threshold, a half-open probe
    /// in progress, or straggling badly enough to have been hedged
    /// against in the last batch.
    Degraded,
    /// Breaker open: out of the dispatch rotation until the cooldown
    /// elapses.
    Quarantined,
}

/// Breaker state machine (see [`BreakerConfig`]).
#[derive(Clone, Copy, Debug, PartialEq)]
enum BreakerState {
    Closed,
    Open { until_ns: u64 },
    HalfOpen,
}

/// Per-device consecutive-failure circuit breaker.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    trips: u64,
}

impl CircuitBreaker {
    /// A closed (healthy) breaker.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            trips: 0,
        }
    }

    /// The earliest simulated time at which this device may be
    /// dispatched to, given it would otherwise be free at `free_ns`:
    /// an open breaker defers dispatch to the end of its cooldown
    /// (where the first dispatch becomes the half-open probe).
    pub fn ready_ns(&self, free_ns: u64) -> u64 {
        match self.state {
            BreakerState::Open { until_ns } => free_ns.max(until_ns),
            _ => free_ns,
        }
    }

    /// Notes a dispatch at `now_ns`; an open breaker whose cooldown has
    /// elapsed half-opens. Returns `true` when this dispatch is the
    /// half-open probe.
    pub fn on_dispatch(&mut self, now_ns: u64) -> bool {
        if let BreakerState::Open { until_ns } = self.state {
            if now_ns >= until_ns {
                self.state = BreakerState::HalfOpen;
                return true;
            }
        }
        false
    }

    /// Notes a successful execution: probe or not, the breaker closes
    /// and the failure run resets (re-admission).
    pub fn on_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
    }

    /// Notes a failed submission observed at `now_ns`. Returns `true`
    /// when this failure trips (or re-trips) the breaker into
    /// quarantine.
    pub fn on_failure(&mut self, now_ns: u64) -> bool {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let trip = match self.state {
            // A failed half-open probe re-quarantines immediately.
            BreakerState::HalfOpen => true,
            BreakerState::Closed => self.consecutive_failures >= self.config.failure_threshold,
            BreakerState::Open { .. } => false,
        };
        if trip {
            self.state = BreakerState::Open {
                until_ns: now_ns.saturating_add(self.config.cooldown_ns),
            };
            self.trips += 1;
        }
        trip
    }

    /// Times the breaker has tripped into quarantine.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Health as observed by the scheduler (`straggler` marks a device
    /// that was hedged against in the most recent batch).
    pub fn health(&self, straggler: bool) -> DeviceHealth {
        match self.state {
            BreakerState::Open { .. } => DeviceHealth::Quarantined,
            BreakerState::HalfOpen => DeviceHealth::Degraded,
            BreakerState::Closed if self.consecutive_failures > 0 || straggler => {
                DeviceHealth::Degraded
            }
            BreakerState::Closed => DeviceHealth::Healthy,
        }
    }
}

/// Why a job could not be completed. Carries the job id so callers can
/// match outcomes back to requests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JobError {
    /// Mirrors the job id.
    pub id: u64,
    /// Submission attempts spent before giving up.
    pub attempts: u32,
    /// The terminal failure.
    pub kind: JobErrorKind,
}

/// Terminal job-failure taxonomy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum JobErrorKind {
    /// The retry budget ([`RetryPolicy::max_attempts_total`]) ran out.
    RetriesExhausted,
    /// The job's deadline budget expired before (or while) it could be
    /// dispatched — expired jobs are never retried.
    DeadlineExpired {
        /// The absolute simulated deadline the job carried.
        deadline_ns: u64,
        /// Simulated time when the expiry was observed.
        now_ns: u64,
    },
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            JobErrorKind::RetriesExhausted => {
                write!(
                    f,
                    "job {}: retries exhausted after {} attempts",
                    self.id, self.attempts
                )
            }
            JobErrorKind::DeadlineExpired {
                deadline_ns,
                now_ns,
            } => write!(
                f,
                "job {}: deadline {deadline_ns} ns expired at {now_ns} ns (after {} attempts)",
                self.id, self.attempts
            ),
        }
    }
}

impl Error for JobError {}

/// The failure/recovery taxonomy of a batch (and, summed, of a pool's
/// lifetime).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Failed submissions that were retried (backoff charged).
    pub retries: u64,
    /// Jobs moved to a different device after a run of local failures
    /// or a quarantine.
    pub failovers: u64,
    /// Hedge replicas launched against stragglers.
    pub hedges_launched: u64,
    /// Hedges that beat their primary (primary cancelled).
    pub hedges_won: u64,
    /// Breaker trips into quarantine (including failed probes).
    pub breaker_trips: u64,
    /// Half-open probe dispatches after a cooldown.
    pub probes: u64,
    /// Jobs resolved to a typed [`JobError`].
    pub jobs_failed: u64,
}

impl FaultStats {
    /// Accumulates another batch's counters into `self`.
    pub fn absorb(&mut self, other: &FaultStats) {
        self.retries += other.retries;
        self.failovers += other.failovers;
        self.hedges_launched += other.hedges_launched;
        self.hedges_won += other.hedges_won;
        self.breaker_trips += other.breaker_trips;
        self.probes += other.probes;
        self.jobs_failed += other.jobs_failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_windows_classify_time() {
        let s = FaultSchedule::none()
            .with_outage(100, 200)
            .with_degraded(150, 400, 4.0);
        assert!(!s.is_down_at(99));
        assert!(s.is_down_at(100));
        assert!(s.is_down_at(199));
        assert!(!s.is_down_at(200), "end is exclusive");
        assert_eq!(s.latency_multiplier_at(100), 1.0, "outage is not degraded");
        assert_eq!(s.latency_multiplier_at(300), 4.0);
        assert_eq!(s.latency_multiplier_at(400), 1.0);
    }

    #[test]
    fn overlapping_degraded_windows_take_the_max() {
        let s = FaultSchedule::none()
            .with_degraded(0, 100, 2.0)
            .with_degraded(50, 150, 8.0);
        assert_eq!(s.latency_multiplier_at(75), 8.0);
        assert_eq!(s.latency_multiplier_at(25), 2.0);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let r = RetryPolicy {
            backoff_base_ns: 100,
            backoff_cap_ns: 1000,
            ..Default::default()
        };
        assert_eq!(r.backoff_ns(1), 100);
        assert_eq!(r.backoff_ns(2), 200);
        assert_eq!(r.backoff_ns(3), 400);
        assert_eq!(r.backoff_ns(5), 1000, "capped");
        assert_eq!(r.backoff_ns(64), 1000, "shift saturates, no overflow");
    }

    #[test]
    fn breaker_trips_quarantines_probes_and_readmits() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown_ns: 1000,
        });
        assert_eq!(b.health(false), DeviceHealth::Healthy);
        assert!(!b.on_failure(10));
        assert_eq!(b.health(false), DeviceHealth::Degraded);
        assert!(!b.on_failure(20));
        assert!(b.on_failure(30), "third consecutive failure trips");
        assert_eq!(b.trips(), 1);
        assert_eq!(b.health(false), DeviceHealth::Quarantined);
        assert_eq!(b.ready_ns(40), 1030, "dispatch deferred to cooldown end");
        // Cooldown elapsed: dispatch half-opens (probe).
        assert!(b.on_dispatch(1030));
        assert_eq!(b.health(false), DeviceHealth::Degraded);
        // Failed probe re-trips immediately.
        assert!(b.on_failure(1030));
        assert_eq!(b.trips(), 2);
        // Second probe succeeds: closed, failure run reset.
        assert!(b.on_dispatch(2030));
        b.on_success();
        assert_eq!(b.health(false), DeviceHealth::Healthy);
        assert_eq!(b.ready_ns(2031), 2031);
    }

    #[test]
    fn straggler_flag_degrades_health() {
        let b = CircuitBreaker::new(BreakerConfig::default());
        assert_eq!(b.health(true), DeviceHealth::Degraded);
    }

    #[test]
    fn fault_stats_absorb_sums() {
        let mut a = FaultStats {
            retries: 1,
            failovers: 2,
            ..Default::default()
        };
        a.absorb(&FaultStats {
            retries: 10,
            breaker_trips: 3,
            ..Default::default()
        });
        assert_eq!(a.retries, 11);
        assert_eq!(a.failovers, 2);
        assert_eq!(a.breaker_trips, 3);
    }

    #[test]
    fn job_error_displays_taxonomy() {
        let e = JobError {
            id: 7,
            attempts: 12,
            kind: JobErrorKind::RetriesExhausted,
        };
        assert!(e.to_string().contains("retries exhausted"));
        let d = JobError {
            id: 8,
            attempts: 2,
            kind: JobErrorKind::DeadlineExpired {
                deadline_ns: 100,
                now_ns: 150,
            },
        };
        assert!(d.to_string().contains("deadline"));
    }
}
