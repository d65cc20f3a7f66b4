//! Median-of-means estimation from classical shadows.

use crate::snapshot::Snapshot;
use pauli::{PauliString, PauliSum};
use rayon::prelude::*;

/// An estimator over a fixed set of acquired snapshots.
///
/// Implements the median-of-means scheme of \[43\]/\[45\] that Proposition 2
/// builds on: snapshots are split into `groups` equal parts, per-group
/// means are computed, and the median of those means is returned.
#[derive(Clone, Debug)]
pub struct ShadowEstimator {
    snapshots: Vec<Snapshot>,
    groups: usize,
}

impl ShadowEstimator {
    /// Wraps snapshots with `groups` median-of-means groups.
    ///
    /// # Panics
    /// Panics if there are fewer snapshots than groups or `groups == 0`.
    pub fn new(snapshots: Vec<Snapshot>, groups: usize) -> Self {
        assert!(groups >= 1, "need at least one group");
        assert!(
            snapshots.len() >= groups,
            "need at least as many snapshots as groups"
        );
        ShadowEstimator { snapshots, groups }
    }

    /// The standard group count for estimating `m` observables to failure
    /// probability `δ`: `K = ⌈2 ln(2m/δ)⌉` \[43\].
    pub fn recommended_groups(num_observables: usize, delta: f64) -> usize {
        assert!(delta > 0.0 && delta < 1.0);
        (2.0 * (2.0 * num_observables as f64 / delta).ln()).ceil() as usize
    }

    /// Snapshot index range `[lo, hi)` of median-of-means group `g` (the
    /// last group absorbs the remainder).
    fn group_bounds(&self, g: usize) -> (usize, usize) {
        let t = self.snapshots.len();
        let group_size = t / self.groups;
        debug_assert!(group_size >= 1);
        let lo = g * group_size;
        let hi = if g + 1 == self.groups {
            t
        } else {
            lo + group_size
        };
        (lo, hi)
    }

    /// Median of a list of group means.
    fn median(mut means: Vec<f64>) -> f64 {
        means.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let k = means.len();
        if k % 2 == 1 {
            means[k / 2]
        } else {
            0.5 * (means[k / 2 - 1] + means[k / 2])
        }
    }

    /// Median-of-means estimate of `tr(P ρ)`.
    pub fn estimate(&self, p: &PauliString) -> f64 {
        let means: Vec<f64> = (0..self.groups)
            .map(|g| {
                let (lo, hi) = self.group_bounds(g);
                let sum: f64 = self.snapshots[lo..hi]
                    .iter()
                    .map(|s| s.estimate_pauli(p))
                    .sum();
                sum / (hi - lo) as f64
            })
            .collect();
        Self::median(means)
    }

    /// Estimates many Pauli strings from the same snapshots (this sharing
    /// is the whole point of the protocol).
    ///
    /// The loop is inverted relative to calling [`Self::estimate`] per
    /// string: a single pass over the snapshots (parallelised over
    /// median-of-means groups with rayon) evaluates **every** Pauli per
    /// snapshot, so each snapshot's basis masks and outcome are loaded
    /// once and shared across all `m` observables instead of being
    /// re-walked `m` times. Per-string support masks and `3^{|P|}` scale
    /// factors are precomputed once. Group means are accumulated in the
    /// same snapshot order as [`Self::estimate`], so results match it
    /// exactly.
    pub fn estimate_many(&self, paulis: &[PauliString]) -> Vec<f64> {
        if paulis.is_empty() {
            return Vec::new();
        }
        struct Pre {
            x: u64,
            z: u64,
            supp: u64,
            scale: f64,
        }
        let pre: Vec<Pre> = paulis
            .iter()
            .map(|p| {
                debug_assert_eq!(
                    p.num_qubits(),
                    self.snapshots[0].num_qubits(),
                    "qubit-count mismatch"
                );
                let supp = p.support_mask();
                Pre {
                    x: p.x_mask(),
                    z: p.z_mask(),
                    supp,
                    scale: 3f64.powi(supp.count_ones() as i32),
                }
            })
            .collect();
        let m = paulis.len();
        // One pass over each group's snapshots, all observables at once.
        let group_means: Vec<Vec<f64>> = (0..self.groups)
            .into_par_iter()
            .map(|g| {
                let (lo, hi) = self.group_bounds(g);
                let mut sums = vec![0.0f64; m];
                for snap in &self.snapshots[lo..hi] {
                    let (bx, bz) = snap.basis_masks();
                    let outcome = snap.outcome();
                    for (k, p) in pre.iter().enumerate() {
                        if (bx ^ p.x) & p.supp == 0 && (bz ^ p.z) & p.supp == 0 {
                            if (outcome & p.supp).count_ones().is_multiple_of(2) {
                                sums[k] += p.scale;
                            } else {
                                sums[k] -= p.scale;
                            }
                        }
                    }
                }
                // Divide (not multiply-by-reciprocal) so each mean is
                // bit-identical to `estimate`'s `sum / (hi - lo)`.
                for s in sums.iter_mut() {
                    *s /= (hi - lo) as f64;
                }
                sums
            })
            .collect();
        (0..m)
            .map(|k| Self::median(group_means.iter().map(|g| g[k]).collect()))
            .collect()
    }

    /// Estimate of a weighted observable `Σ c_i P_i`.
    pub fn estimate_sum(&self, o: &PauliSum) -> f64 {
        o.terms().iter().map(|(c, p)| c * self.estimate(p)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ShadowProtocol;
    use qsim::{Circuit, Gate, StateVector};

    fn bell_state() -> StateVector {
        let mut c = Circuit::new(2);
        c.push(Gate::H(0));
        c.push(Gate::Cnot {
            control: 0,
            target: 1,
        });
        StateVector::from_circuit(&c)
    }

    #[test]
    fn bell_state_expectations_converge() {
        let s = bell_state();
        let shots = ShadowProtocol::new(60_000, 11).acquire(&s);
        let est = ShadowEstimator::new(shots, 10);
        let cases = [
            ("ZZ", 1.0),
            ("XX", 1.0),
            ("YY", -1.0),
            ("ZI", 0.0),
            ("IX", 0.0),
        ];
        for (txt, want) in cases {
            let p = PauliString::parse(txt).unwrap();
            let got = est.estimate(&p);
            assert!((got - want).abs() < 0.08, "{txt}: got {got}, want {want}");
        }
    }

    #[test]
    fn estimates_match_exact_on_product_state() {
        let mut c = Circuit::new(3);
        c.push(Gate::Ry(0, 0.9));
        c.push(Gate::Rx(1, -0.4));
        c.push(Gate::H(2));
        let s = StateVector::from_circuit(&c);
        let shots = ShadowProtocol::new(50_000, 5).acquire(&s);
        let est = ShadowEstimator::new(shots, 9);
        for txt in ["ZII", "IZI", "IIZ", "XII", "IYI", "ZZI"] {
            let p = PauliString::parse(txt).unwrap();
            let exact = s.expectation(&p);
            let got = est.estimate(&p);
            assert!(
                (got - exact).abs() < 0.1,
                "{txt}: shadow {got} vs exact {exact}"
            );
        }
    }

    #[test]
    fn identity_is_exact() {
        let s = StateVector::zero_state(2);
        let shots = ShadowProtocol::new(30, 2).acquire(&s);
        let est = ShadowEstimator::new(shots, 3);
        assert_eq!(est.estimate(&PauliString::identity(2)), 1.0);
    }

    #[test]
    fn estimate_many_matches_individual() {
        let s = bell_state();
        let shots = ShadowProtocol::new(5_000, 13).acquire(&s);
        let est = ShadowEstimator::new(shots, 5);
        let paulis: Vec<PauliString> = ["ZZ", "XX", "ZI"]
            .iter()
            .map(|t| PauliString::parse(t).unwrap())
            .collect();
        let many = est.estimate_many(&paulis);
        for (p, m) in paulis.iter().zip(many.iter()) {
            assert_eq!(*m, est.estimate(p));
        }
    }

    #[test]
    fn estimate_sum_is_linear() {
        let s = bell_state();
        let shots = ShadowProtocol::new(5_000, 17).acquire(&s);
        let est = ShadowEstimator::new(shots, 5);
        let zz = PauliString::parse("ZZ").unwrap();
        let xx = PauliString::parse("XX").unwrap();
        let sum = PauliSum::from_terms(vec![(2.0, zz), (-0.5, xx)]);
        let want = 2.0 * est.estimate(&zz) - 0.5 * est.estimate(&xx);
        assert!((est.estimate_sum(&sum) - want).abs() < 1e-12);
    }

    #[test]
    fn recommended_groups_grows_logarithmically() {
        let g1 = ShadowEstimator::recommended_groups(10, 0.05);
        let g2 = ShadowEstimator::recommended_groups(1_000, 0.05);
        assert!(g2 > g1);
        assert!(g2 < 4 * g1, "should grow only logarithmically");
    }

    #[test]
    fn higher_locality_needs_more_shots() {
        // Empirical variance check: with the same snapshot budget the
        // 3-local estimate fluctuates more than the 1-local one.
        let mut c = Circuit::new(3);
        c.push(Gate::Ry(0, 0.3));
        c.push(Gate::Ry(1, 0.3));
        c.push(Gate::Ry(2, 0.3));
        let s = StateVector::from_circuit(&c);
        let z1 = PauliString::parse("IIZ").unwrap();
        let z3 = PauliString::parse("ZZZ").unwrap();
        let (mut var1, mut var3) = (0.0, 0.0);
        let reps = 30;
        for seed in 0..reps {
            let shots = ShadowProtocol::new(300, 1000 + seed).acquire(&s);
            let est = ShadowEstimator::new(shots, 1); // plain mean
            let e1 = est.estimate(&z1) - s.expectation(&z1);
            let e3 = est.estimate(&z3) - s.expectation(&z3);
            var1 += e1 * e1;
            var3 += e3 * e3;
        }
        assert!(
            var3 > 2.0 * var1,
            "variance should grow with locality: var1={var1}, var3={var3}"
        );
    }

    #[test]
    #[should_panic]
    fn too_few_snapshots_for_groups() {
        let s = StateVector::zero_state(1);
        let shots = ShadowProtocol::new(3, 1).acquire(&s);
        let _ = ShadowEstimator::new(shots, 10);
    }
}
