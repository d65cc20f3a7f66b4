//! Server observability: per-tenant latency histograms and the stats
//! snapshot.
//!
//! Everything here is a counted fact: requests, rejections by cause,
//! batches, cache and fault counters, and per-tenant latencies recorded
//! in simulated nanoseconds (see [`crate::clock::SimClock`]) into a
//! geometric histogram — fixed memory, O(1) record, and quantiles
//! accurate to one bucket width (~19%, four buckets per octave). The
//! tenant-isolation gate compares two such p99s, so the bucket grid is
//! finer than its 2× ceiling and the replay stays exactly reproducible
//! across hosts. Wall-clock throughput and latency are `perfbench`'s.

use crate::cache::CacheStats;

/// Buckets per factor-of-two of latency.
const BUCKETS_PER_OCTAVE: usize = 4;
/// Total bucket count: covers 1 µs up to ~9 h above the base.
const NUM_BUCKETS: usize = 128;
/// Lower edge of bucket 0 (ns) — everything faster lands in bucket 0.
const BASE_NS: f64 = 1_000.0;

/// A geometric latency histogram over simulated nanoseconds.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; NUM_BUCKETS],
            total: 0,
            max_ns: 0,
        }
    }

    /// The bucket a latency falls in.
    fn bucket_of(ns: u64) -> usize {
        if (ns as f64) <= BASE_NS {
            return 0;
        }
        let octaves = (ns as f64 / BASE_NS).log2();
        ((octaves * BUCKETS_PER_OCTAVE as f64) as usize).min(NUM_BUCKETS - 1)
    }

    /// Upper edge of a bucket (ns).
    fn bucket_upper_ns(bucket: usize) -> f64 {
        BASE_NS * 2f64.powf((bucket + 1) as f64 / BUCKETS_PER_OCTAVE as f64)
    }

    /// Records one latency observation.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket_of(ns)] += 1;
        self.total += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile latency in nanoseconds (bucket upper edge,
    /// clamped to the observed maximum); 0 when empty. `q` in `[0, 1]`.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.total == 0 {
            return 0.0;
        }
        let rank = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper_ns(b).min(self.max_ns as f64);
            }
        }
        self.max_ns as f64
    }
}

/// Per-tenant request accounting, reported inside [`ServerStats`].
///
/// The books balance per tenant: `submitted = shed + admitted` and
/// `admitted = completed + dropped + still-queued`. `shed` counts
/// refusals at the door (admission control or invalid input), `dropped`
/// counts admitted requests that later died at dispatch (expired
/// deadline, backend unavailable, hot-swap invalidation).
#[derive(Clone, Debug)]
pub struct TenantSnapshot {
    /// Which tenant this row describes.
    pub tenant: crate::admission::TenantId,
    /// Requests this tenant offered (admitted + shed).
    pub submitted: u64,
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Requests answered with a prediction.
    pub completed: u64,
    /// Requests refused at the door.
    pub shed: u64,
    /// Admitted requests dropped at dispatch.
    pub dropped: u64,
    /// Completions whose feature row came from the cache.
    pub cache_hits: u64,
    /// p50 response latency (simulated ms).
    pub p50_ms: f64,
    /// p99 response latency (simulated ms).
    pub p99_ms: f64,
}

impl TenantSnapshot {
    /// Fraction of offered requests that were answered with a
    /// prediction; 1.0 when the tenant offered nothing.
    pub fn availability(&self) -> f64 {
        if self.submitted == 0 {
            1.0
        } else {
            self.completed as f64 / self.submitted as f64
        }
    }
}

/// A point-in-time snapshot of everything the server counts.
#[derive(Clone, Debug)]
pub struct ServerStats {
    /// Requests admitted past the queue door.
    pub submitted: u64,
    /// Requests answered with a prediction.
    pub completed: u64,
    /// Rejections at the hard queue bound.
    pub rejected_queue_full: u64,
    /// Rejections on the global-shed rung (last resort).
    pub rejected_overloaded: u64,
    /// Rejections of over-share tenants on the first brownout rung.
    pub rejected_over_share: u64,
    /// Non-deadline requests deferred on the second brownout rung.
    pub rejected_deferred: u64,
    /// Admitted requests dropped at dispatch on an expired deadline.
    pub rejected_deadline: u64,
    /// Requests with unservable inputs: refused at submit (wrong
    /// length, non-finite or out-of-range coordinates) or invalidated
    /// at dispatch by a hot-swap that changed the qubit count.
    pub rejected_invalid: u64,
    /// Requests shed with [`Rejected::BackendUnavailable`] — the pool
    /// failed their rows terminally and local fallback is disabled.
    ///
    /// [`Rejected::BackendUnavailable`]: crate::admission::Rejected::BackendUnavailable
    pub rejected_backend: u64,
    /// Micro-batches dispatched.
    pub batches: u64,
    /// Rows served across all batches (= completed).
    pub batch_rows: u64,
    /// Unique data points simulated (cache misses actually computed).
    pub unique_simulations: u64,
    /// Micro-batches served through a lower rung of the degradation
    /// ladder (pool failed → local fallback computed the rows).
    pub degraded_batches: u64,
    /// Pool failure/recovery counters (retries, failovers, hedges,
    /// breaker trips, probes) accumulated across batches; all zero on
    /// the local engine.
    pub faults: hpcq::FaultStats,
    /// Feature-cache counters.
    pub cache: CacheStats,
    /// Per-tenant accounting rows, ordered by tenant id. Empty until
    /// the first tenant-attributed event.
    pub per_tenant: Vec<TenantSnapshot>,
}

impl ServerStats {
    /// Total rejections of any kind.
    pub fn rejected_total(&self) -> u64 {
        self.rejected_queue_full
            + self.rejected_overloaded
            + self.rejected_over_share
            + self.rejected_deferred
            + self.rejected_deadline
            + self.rejected_invalid
            + self.rejected_backend
    }

    /// The accounting row for one tenant, if it has any activity.
    pub fn tenant(&self, tenant: crate::admission::TenantId) -> Option<&TenantSnapshot> {
        self.per_tenant.iter().find(|t| t.tenant == tenant)
    }

    /// Whether any fault-recovery machinery activated: a nonzero pool
    /// fault counter, a degraded batch, or a backend shed. The
    /// healthy-path checks assert this is `false` to guard against
    /// accidental fault-path activation.
    pub fn any_fault_activity(&self) -> bool {
        self.faults != hpcq::FaultStats::default()
            || self.degraded_batches + self.rejected_backend > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_ns(0.99), 0.0);
    }

    #[test]
    fn quantiles_bracket_observations() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(1_000_000); // 1 ms
        }
        h.record(100_000_000); // one 100 ms outlier
        let p50 = h.quantile_ns(0.50);
        let p99 = h.quantile_ns(0.99);
        let p999 = h.quantile_ns(0.999);
        // One-bucket accuracy: within 19% above the true value.
        assert!((1.0..=1.2).contains(&(p50 / 1_000_000.0)), "p50 {p50}");
        assert!((1.0..=1.2).contains(&(p99 / 1_000_000.0)), "p99 {p99}");
        assert!(p999 >= 99_000_000.0, "p999 must see the outlier: {p999}");
    }

    #[test]
    fn quantile_clamps_to_observed_max() {
        let mut h = LatencyHistogram::new();
        h.record(3_000);
        assert!(h.quantile_ns(1.0) <= 3_000.0);
    }

    #[test]
    fn tiny_latencies_land_in_bucket_zero() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(999);
        assert_eq!(h.count(), 2);
        assert!(h.quantile_ns(0.5) <= LatencyHistogram::bucket_upper_ns(0));
    }
}
