//! Data-encoding circuits (paper Fig. 7).
//!
//! "Each column of the compressed image is encoded into a single qubit,
//! and each row is encoded consecutively via alternating rotation-Z and
//! rotation-X gates."
//!
//! Features arrive row-major from the 4×4 pooled image: feature index
//! `r·n + c` is (row r, column c), column `c` lands on qubit `c`, and the
//! per-qubit gate sequence over rows is `RZ(x₀c) RX(x₁c) RZ(x₂c) RX(x₃c)`.
//! The leading RZ on `|0⟩` only contributes a phase, exactly as in the
//! paper's figure; the information still enters through the following RX
//! layers.
//!
//! The encoding is **single-qubit only**: no gate couples two qubits, so
//! `S(x)|0ⁿ⟩` is a product state. The exact feature backend relies on
//! this — [`crate::transfer`] evaluates every neuron from per-qubit Bloch
//! vectors — so an entangling encoding (data re-uploading with CNOTs
//! between uploads, say) would need the state-vector path instead.

use qsim::{identity2, matmul2, BatchedStateVector, Circuit, Gate, Mat2, StateVector};

/// Builds the Fig. 7 encoding circuit `S(x)` for an `n`-qubit register from
/// `rows·n` features laid out row-major (`features[r*n + c]` → row `r`,
/// qubit `c`). Even rows become `RZ`, odd rows `RX`.
///
/// # Panics
/// Panics if `features.len()` is not a positive multiple of `n`.
pub fn column_encoding(features: &[f64], n: usize) -> Circuit {
    assert!(n >= 1);
    assert!(
        !features.is_empty() && features.len().is_multiple_of(n),
        "feature count {} must be a positive multiple of n = {n}",
        features.len()
    );
    let rows = features.len() / n;
    let mut c = Circuit::new(n);
    for r in 0..rows {
        for q in 0..n {
            let angle = features[r * n + q];
            if r % 2 == 0 {
                c.push(Gate::Rz(q, angle));
            } else {
                c.push(Gate::Rx(q, angle));
            }
        }
    }
    c
}

/// The paper's concrete instance: 16 features → 4 qubits, 4 alternating
/// RZ/RX rows (Fig. 7).
pub fn fig7_encoding(features: &[f64]) -> Circuit {
    assert_eq!(features.len(), 16, "Fig. 7 encodes 4×4 = 16 features");
    column_encoding(features, 4)
}

/// The fused execution plan for [`column_encoding`]: since every gate of
/// the Fig. 7 circuit is a single-qubit rotation, each qubit's whole gate
/// column collapses into **one** dense 2×2 — encoding a point is then `n`
/// fused kernel sweeps instead of `rows·n` gate applications, and a batch
/// of points encodes through [`BatchedStateVector::apply_unary_per_lane`]
/// in amplitude-major SoA sweeps.
///
/// Per lane, the batched path evaluates exactly the same per-qubit fused
/// matrix through the same kernel arithmetic as [`Self::encode_one`], so
/// batch lanes are **bit-for-bit** equal to standalone encodes — the
/// invariant the serving layer's micro-batching guarantee requires.
#[derive(Clone, Debug)]
pub struct EncodingPlan {
    n: usize,
    rows: usize,
}

impl EncodingPlan {
    /// Plan for encoding `num_features`-long points onto `n` qubits.
    ///
    /// # Panics
    /// Panics if `num_features` is not a positive multiple of `n` (the
    /// same contract as [`column_encoding`]).
    pub fn new(num_features: usize, n: usize) -> Self {
        assert!(n >= 1);
        assert!(
            num_features > 0 && num_features.is_multiple_of(n),
            "feature count {num_features} must be a positive multiple of n = {n}"
        );
        EncodingPlan {
            n,
            rows: num_features / n,
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Number of features each point must carry.
    pub fn num_features(&self) -> usize {
        self.rows * self.n
    }

    /// The fused 2×2 for qubit `q`: the product of its alternating
    /// RZ/RX column, later rows applied after earlier ones.
    pub fn qubit_matrix(&self, x: &[f64], q: usize) -> Mat2 {
        let mut acc = identity2();
        for r in 0..self.rows {
            let angle = x[r * self.n + q];
            let g = if r % 2 == 0 {
                Gate::Rz(q, angle)
            } else {
                Gate::Rx(q, angle)
            };
            let m = g.matrix1().expect("rotations are single-qubit");
            acc = matmul2(&m, &acc);
        }
        acc
    }

    /// Encodes one point: `S(x)|0…0⟩` in `n` fused sweeps. Equal to
    /// `StateVector::from_circuit(&column_encoding(x, n))` to simulator
    /// tolerance (1e-12), and bit-for-bit equal to any lane of
    /// [`Self::encode_batch`] that carries the same point.
    pub fn encode_one(&self, x: &[f64]) -> StateVector {
        assert_eq!(x.len(), self.num_features(), "feature-count mismatch");
        let mut s = StateVector::zero_state(self.n);
        for q in 0..self.n {
            s.apply_unary(q, &self.qubit_matrix(x, q));
        }
        s
    }

    /// Encodes a batch of points into an amplitude-major SoA batch, lane
    /// `l` holding `S(xs[l])|0…0⟩` bit-for-bit as [`Self::encode_one`]
    /// would produce it.
    pub fn encode_batch(&self, xs: &[&[f64]]) -> BatchedStateVector {
        assert!(!xs.is_empty(), "batch must be non-empty");
        let mut b = BatchedStateVector::zero_states(self.n, xs.len());
        let mut mats = vec![identity2(); xs.len()];
        for q in 0..self.n {
            for (m, x) in mats.iter_mut().zip(xs) {
                assert_eq!(x.len(), self.num_features(), "feature-count mismatch");
                *m = self.qubit_matrix(x, q);
            }
            b.apply_unary_per_lane(q, &mats);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::StateVector;

    #[test]
    fn fig7_gate_pattern() {
        let x: Vec<f64> = (0..16).map(|i| 0.1 * i as f64).collect();
        let c = fig7_encoding(&x);
        assert_eq!(c.num_qubits(), 4);
        assert_eq!(c.len(), 16);
        // First row is RZ on qubits 0..4 with features 0..4.
        assert_eq!(c.gates()[0], Gate::Rz(0, 0.0));
        assert!(matches!(c.gates()[3], Gate::Rz(3, a) if (a - 0.3).abs() < 1e-12));
        // Second row is RX.
        assert!(matches!(c.gates()[4], Gate::Rx(0, a) if (a - 0.4).abs() < 1e-12));
        // Third row RZ again.
        assert!(matches!(c.gates()[8], Gate::Rz(0, a) if (a - 0.8).abs() < 1e-12));
    }

    #[test]
    fn different_features_give_different_states() {
        let a: Vec<f64> = (0..16).map(|i| 0.3 + 0.1 * i as f64).collect();
        let mut b = a.clone();
        b[5] += 1.0; // an RX angle — physically meaningful
        let sa = StateVector::from_circuit(&fig7_encoding(&a));
        let sb = StateVector::from_circuit(&fig7_encoding(&b));
        assert!(sa.fidelity(&sb) < 1.0 - 1e-4);
    }

    #[test]
    fn zero_features_give_zero_state() {
        let s = StateVector::from_circuit(&fig7_encoding(&[0.0; 16]));
        assert!((s.probability(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn first_rz_row_is_global_phase_only() {
        // Changing only row-0 (RZ) angles must not change any probability
        // or any later measurement statistic from |0⟩ — matching the note
        // in the module docs.
        let mut a = vec![0.5; 16];
        let mut b = vec![0.5; 16];
        for q in 0..4 {
            a[q] = 0.1;
            b[q] = 2.1;
        }
        let sa = StateVector::from_circuit(&fig7_encoding(&a));
        let sb = StateVector::from_circuit(&fig7_encoding(&b));
        assert!((sa.fidelity(&sb) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn general_shapes() {
        let c = column_encoding(&[0.1; 12], 6); // 2 rows × 6 qubits
        assert_eq!(c.num_qubits(), 6);
        assert_eq!(c.len(), 12);
    }

    #[test]
    #[should_panic]
    fn wrong_feature_count_panics() {
        let _ = fig7_encoding(&[0.0; 15]);
    }

    #[test]
    fn plan_matches_circuit_encoding() {
        for (nf, n) in [(16, 4), (12, 6), (5, 5), (9, 3)] {
            let x: Vec<f64> = (0..nf).map(|i| -0.8 + 0.23 * i as f64).collect();
            let plan = EncodingPlan::new(nf, n);
            let fused = plan.encode_one(&x);
            let direct = StateVector::from_circuit(&column_encoding(&x, n));
            for (a, b) in fused.amplitudes().iter().zip(direct.amplitudes()) {
                assert!((a - b).norm() < 1e-12, "nf={nf} n={n}");
            }
        }
    }

    #[test]
    fn plan_batch_lanes_bit_identical_to_encode_one() {
        let plan = EncodingPlan::new(16, 4);
        let points: Vec<Vec<f64>> = (0..5)
            .map(|p| (0..16).map(|i| 0.11 * (p * 16 + i) as f64).collect())
            .collect();
        let refs: Vec<&[f64]> = points.iter().map(|p| p.as_slice()).collect();
        let batch = plan.encode_batch(&refs);
        assert_eq!(batch.batch_size(), 5);
        for (l, x) in refs.iter().enumerate() {
            let solo = plan.encode_one(x);
            let lane = batch.lane(l);
            for (a, b) in lane.amplitudes().iter().zip(solo.amplitudes()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "lane {l}");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "lane {l}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn plan_rejects_wrong_feature_count() {
        let plan = EncodingPlan::new(16, 4);
        let _ = plan.encode_one(&[0.0; 12]);
    }
}
