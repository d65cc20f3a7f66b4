//! Seeded inputs: every data point and request the server sees is made
//! here from the workload seed, so the same seed gives the same inputs.

/// Coordinates per served point: 4 qubits × 4 encoding rows (Fig. 7).
pub const COORDS: usize = 16;
/// Distinct points in the `serve_hot` catalogue.
pub const HOT_POINTS: u64 = 256;
/// Zipf exponent of the `serve_hot` stream.
pub const HOT_ZIPF: f64 = 1.1;
/// Salts that keep the catalogue and the request order independent of
/// each other under one workload seed.
const POINT_SALT: u64 = 0x6a09_e667_f3bc_c909;
const STREAM_SALT: u64 = 0xbb67_ae85_84ca_a73b;

/// SplitMix64, the benchmark's only source of randomness.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The SplitMix64 finalizer: a bijective 64-bit hash.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Point `index` of the workload's catalogue: 16 encoding angles in
/// `[0.2, 5.7)`, a pure function of `(seed, index)`.
pub fn point(seed: u64, index: u64) -> Vec<f64> {
    let mut rng = SplitMix::new(mix(seed ^ POINT_SALT) ^ mix(index));
    (0..COORDS).map(|_| 0.2 + 5.5 * rng.next_f64()).collect()
}

/// An endless seeded Zipf sequence of catalogue indices.
#[derive(Clone, Debug)]
pub struct RequestStream {
    rng: SplitMix,
    /// Zipf CDF over ranks.
    cdf: Vec<f64>,
}

impl RequestStream {
    /// Zipf(1.1) over the 256 hot points: almost every lookup hits.
    pub fn hot(seed: u64) -> Self {
        let mut cdf: Vec<f64> = (1..=HOT_POINTS)
            .scan(0.0, |acc, k| {
                *acc += 1.0 / (k as f64).powf(HOT_ZIPF);
                Some(*acc)
            })
            .collect();
        let total = cdf[cdf.len() - 1];
        for c in &mut cdf {
            *c /= total;
        }
        RequestStream {
            rng: SplitMix::new(mix(seed ^ STREAM_SALT)),
            cdf,
        }
    }

    /// Number of distinct points the stream draws from.
    pub fn points(&self) -> u64 {
        self.cdf.len() as u64
    }

    /// The next catalogue index.
    pub fn next_index(&mut self) -> u64 {
        let u = self.rng.next_f64();
        (self.cdf.partition_point(|&c| c <= u) as u64).min(self.points() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draw(mut s: RequestStream, n: usize) -> Vec<u64> {
        (0..n).map(|_| s.next_index()).collect()
    }

    #[test]
    fn same_seed_same_stream_and_points() {
        let hot = RequestStream::hot;
        assert_eq!(draw(hot(7), 5000), draw(hot(7), 5000));
        assert_ne!(draw(hot(7), 5000), draw(hot(8), 5000));
        assert_eq!(point(7, 3), point(7, 3));
        assert_ne!(point(7, 3), point(8, 3));
        assert_ne!(point(7, 3), point(7, 4));
    }

    #[test]
    fn points_are_valid_encoding_angles() {
        for i in 0..1000 {
            let p = point(11, i);
            assert_eq!(p.len(), COORDS);
            assert!(p.iter().all(|&v| (0.2..5.7).contains(&v)));
        }
    }

    #[test]
    fn hot_stream_is_skewed() {
        let hot = draw(RequestStream::hot(3), 100_000);
        let top = hot.iter().filter(|&&i| i == 0).count() as f64 / hot.len() as f64;
        // Rank 1 of Zipf(1.1) over 256 ranks carries ~22% of the mass.
        assert!((0.18..0.26).contains(&top), "rank-1 share {top}");
        assert!(hot.iter().all(|&i| i < HOT_POINTS));
    }
}
