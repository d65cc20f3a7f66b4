//! Deterministic simulated time for the serving layer.
//!
//! The behavioural replays — tenant isolation, availability under
//! faults, deadline expiry, brownout-ladder recovery — must give the
//! same answer on every host, so the server timestamps requests against
//! a [`SimClock`] that only moves when work is accounted for: each
//! micro-batch advances it by a fixed charge (see `batch_cost_ns`),
//! exactly the discipline `hpcq`'s device pool already uses for makespan
//! and utilization. Given the same request stream, every simulated
//! timestamp and latency quantile is reproduced bit-for-bit on any
//! machine. Simulated time orders events; it is not a throughput
//! measurement — `perfbench` times the real serving path on the wall
//! clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shareable monotonic simulated clock (nanoseconds).
#[derive(Clone, Debug, Default)]
pub struct SimClock {
    ns: Arc<AtomicU64>,
}

impl SimClock {
    /// A clock at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::SeqCst)
    }

    /// Advances the clock by `delta_ns`, returning the new time.
    pub fn advance_ns(&self, delta_ns: u64) -> u64 {
        self.ns.fetch_add(delta_ns, Ordering::SeqCst) + delta_ns
    }

    /// Advances the clock to `t_ns` if it is ahead of the current time;
    /// a no-op otherwise (the clock never moves backwards). Returns the
    /// time after the update. Trace replay uses this to jump to the
    /// next arrival when the server is idle.
    pub fn advance_to_ns(&self, t_ns: u64) -> u64 {
        self.ns.fetch_max(t_ns, Ordering::SeqCst).max(t_ns)
    }
}

/// Fixed charge per micro-batch dispatch: queue hand-off and one
/// submission to the quantum resource — the term micro-batching
/// amortizes.
const BATCH_OVERHEAD_NS: u64 = 50_000;
/// Charge per unique cache miss: one `S(x)|0⟩` simulation plus the
/// observable sweep — the term the feature cache removes.
const MISS_NS: u64 = 200_000;
/// Charge per served row: cache lookup and head evaluation.
const ROW_NS: u64 = 2_000;

/// Simulated cost of a batch serving `rows` requests of which `misses`
/// needed a fresh simulation. The constants only order events in the
/// behavioural replays; they are not calibrated to any host.
pub(crate) fn batch_cost_ns(rows: usize, misses: usize) -> u64 {
    debug_assert!(misses <= rows);
    BATCH_OVERHEAD_NS + MISS_NS * misses as u64 + ROW_NS * rows as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic_and_shared() {
        let c = SimClock::new();
        let c2 = c.clone();
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.advance_ns(5), 5);
        assert_eq!(c2.now_ns(), 5, "clones share the underlying clock");
        c2.advance_ns(7);
        assert_eq!(c.now_ns(), 12);
    }

    #[test]
    fn advance_to_never_rewinds() {
        let c = SimClock::new();
        assert_eq!(c.advance_to_ns(100), 100);
        assert_eq!(c.advance_to_ns(40), 100, "no rewind");
        assert_eq!(c.advance_to_ns(250), 250);
        assert_eq!(c.now_ns(), 250);
    }

    #[test]
    fn batching_and_caching_amortize_cost() {
        // 16 singleton batches, all misses, vs one batch of 16 with 4
        // misses: the whole point of the serving layer in one inequality.
        let singles = 16 * batch_cost_ns(1, 1);
        let batched = batch_cost_ns(16, 4);
        assert!(batched < singles / 3);
    }
}
