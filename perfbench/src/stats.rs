//! Order statistics for timings.

use crate::stream::SplitMix;

/// Percentiles the tail rule may choose from, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// The percentile reported as `latency_p99_us`: p99 where at least ten
/// samples lie beyond it, else the highest percentile the tail rule
/// allows, else the median.
pub fn reported_tail(n: usize) -> f64 {
    tail_percentile(n).map_or(50.0, |p| p.min(99.0))
}

/// Latency samples kept per run. A seeded reservoir beyond this keeps
/// memory flat whatever the request rate.
const RESERVOIR: usize = 1 << 20;

/// Every latency of a run's measured windows, up to [`RESERVOIR`]
/// samples, then a uniform seeded reservoir over all of them.
pub struct Latencies {
    seen: u64,
    samples: Vec<u64>,
    rng: SplitMix,
}

impl Latencies {
    pub fn new(seed: u64) -> Self {
        let mut samples = Vec::with_capacity(RESERVOIR);
        // Touched up front (with a non-zero value, which no allocator
        // maps lazily), so peak RSS does not track the rate.
        samples.resize(RESERVOIR, u64::MAX);
        samples.clear();
        Latencies {
            seen: 0,
            samples,
            rng: SplitMix::new(seed),
        }
    }

    /// Records one finished request; a failed one should be `u64::MAX`.
    pub fn record(&mut self, latency_ns: u64) {
        let i = self.seen;
        self.seen += 1;
        if self.samples.len() < RESERVOIR {
            self.samples.push(latency_ns);
        } else {
            let j = (self.rng.next_u64() % (i + 1)) as usize;
            if j < RESERVOIR {
                self.samples[j] = latency_ns;
            }
        }
    }

    /// Requests recorded, including those the reservoir dropped.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The kept samples, ascending.
    pub fn sorted(&self) -> Vec<u64> {
        let mut s = self.samples.clone();
        s.sort_unstable();
        s
    }
}

/// Nearest-rank percentile `p` (in percent) of an ascending slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples, in integer
/// hundredths of a percent so that e.g. p99 of 1000 is exactly rank 990.
fn rank(n: usize, p: f64) -> usize {
    let hundredths = (p * 100.0).round() as u128;
    ((hundredths * n as u128).div_ceil(10_000) as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it — the tail a run of `n` samples can resolve.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| beyond(n, p) >= 10)
}

/// Median of `v` (the mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Quantile `q` in `[0, 1]` of `v`, interpolating linearly between order
/// statistics (position `(n - 1) * q`).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(
        !v.is_empty() && (0.0..=1.0).contains(&q),
        "quantile {q} of {} samples",
        v.len()
    );
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = (s.len() - 1) as f64 * q;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    match s.get(lo + 1) {
        Some(&hi) => s[lo] + (hi - s[lo]) * frac,
        None => s[lo],
    }
}

/// Mean of `v` (0 for no samples).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(5_000_000), Some(99.99));
        for n in [20, 100, 1000, 10_000, 100_000, 123_457] {
            let p = tail_percentile(n).unwrap();
            assert!(beyond(n, p) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50.0), 500);
        assert_eq!(percentile(&v, 99.0), 990);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(percentile(&v, 100.0), 1000);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.1), 1.1);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn reservoir_keeps_everything_until_full_then_stays_bounded() {
        let mut l = Latencies::new(5);
        for v in (0..1000).rev() {
            l.record(v);
        }
        assert_eq!(l.seen(), 1000);
        assert_eq!(l.sorted(), (0..1000).collect::<Vec<u64>>());
        for v in 0..RESERVOIR as u64 {
            l.record(v);
        }
        assert_eq!(l.seen(), 1000 + RESERVOIR as u64);
        assert_eq!(l.sorted().len(), RESERVOIR);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
