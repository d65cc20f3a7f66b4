//! Computational-basis sampling and finite-shot Pauli estimation.
//!
//! The paper's error analysis (§VI, Proposition 1) models each quantum
//! neuron's output as a sample mean of ±1-valued measurements. This module
//! provides exactly that estimator: rotate the state into the observable's
//! eigenbasis, draw shots, average the eigenvalue signs. The `hpcq`
//! devices measure through it; `pvqnn`'s Shots backend draws the same
//! distribution straight from each neuron's exact value.

use crate::circuit::Circuit;
use crate::gate::Gate;
use crate::state::StateVector;
use pauli::{Pauli, PauliString};
use rand::{Rng, RngExt};

/// Draws `shots` basis-state samples using inverse-CDF sampling over the
/// cumulative outcome distribution: building the table costs `O(2^n)`,
/// each draw a binary search, `O(n)` (`O(2^n + shots·n)` in all).
pub fn sample_bitstrings<R: Rng>(state: &StateVector, shots: usize, rng: &mut R) -> Vec<u64> {
    let mut cdf = state.probabilities();
    let mut acc = 0.0;
    for p in cdf.iter_mut() {
        acc += *p;
        *p = acc;
    }
    // Guard the tail against rounding: force the last entry to cover 1.0.
    if let Some(last) = cdf.last_mut() {
        *last = f64::max(*last, 1.0);
    }
    (0..shots)
        .map(|_| {
            let u: f64 = rng.random();
            // partition_point returns the first index with cdf[i] >= u.
            cdf.partition_point(|&c| c < u) as u64
        })
        .collect()
}

/// The basis-change circuit that maps the eigenbasis of Pauli string `p`
/// onto the computational (Z) basis: `H` for `X` letters, `S† H` for `Y`
/// letters, nothing for `Z`/`I`.
pub fn measurement_rotation(p: &PauliString) -> Circuit {
    let n = p.num_qubits();
    let mut c = Circuit::new(n);
    for q in 0..n {
        match p.get(q) {
            Pauli::X => c.push(Gate::H(q)),
            Pauli::Y => {
                c.push(Gate::Sdg(q));
                c.push(Gate::H(q));
            }
            Pauli::I | Pauli::Z => {}
        }
    }
    c
}

/// Finite-shot estimate of `⟨ψ|P|ψ⟩`: the sample mean of ±1 eigenvalue
/// outcomes over `shots` measurements (Hoeffding-style estimator of
/// Proposition 1). The identity string returns exactly 1.
pub fn estimate_pauli_with_shots<R: Rng>(
    state: &StateVector,
    p: &PauliString,
    shots: usize,
    rng: &mut R,
) -> f64 {
    assert!(shots > 0, "need at least one shot");
    if p.is_identity() {
        return 1.0;
    }
    let mut rotated = state.clone();
    rotated.apply_circuit(&measurement_rotation(p));
    let outcomes = sample_bitstrings(&rotated, shots, rng);
    let sum: f64 = outcomes.iter().map(|&b| p.outcome_sign(b)).sum();
    sum / shots as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sampling_matches_distribution() {
        let mut c = Circuit::new(2);
        c.push(Gate::Ry(0, 1.0)); // p(|1⟩ on q0) = sin²(0.5)
        let s = StateVector::from_circuit(&c);
        let mut rng = StdRng::seed_from_u64(7);
        let shots = 200_000;
        let ones = sample_bitstrings(&s, shots, &mut rng)
            .into_iter()
            .filter(|&b| b == 1)
            .count();
        let p1 = ones as f64 / shots as f64;
        let want = (0.5f64).sin().powi(2);
        assert!((p1 - want).abs() < 5e-3, "p1={p1} want={want}");
    }

    #[test]
    fn rotation_diagonalises_x_and_y() {
        // |+⟩ is the +1 eigenstate of X: after rotation every outcome must
        // be |0⟩ on that qubit.
        let mut c = Circuit::new(1);
        c.push(Gate::H(0));
        let plus = StateVector::from_circuit(&c);
        let x = PauliString::parse("X").unwrap();
        let mut rotated = plus.clone();
        rotated.apply_circuit(&measurement_rotation(&x));
        assert!((rotated.probability(0) - 1.0).abs() < 1e-12);

        // (|0⟩ + i|1⟩)/√2 is the +1 eigenstate of Y.
        let mut c = Circuit::new(1);
        c.push(Gate::H(0));
        c.push(Gate::S(0));
        let yplus = StateVector::from_circuit(&c);
        let y = PauliString::parse("Y").unwrap();
        let mut rotated = yplus.clone();
        rotated.apply_circuit(&measurement_rotation(&y));
        assert!((rotated.probability(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shot_estimates_converge_to_exact() {
        let mut c = Circuit::new(3);
        c.push(Gate::Ry(0, 0.8));
        c.push(Gate::Cnot {
            control: 0,
            target: 1,
        });
        c.push(Gate::Rx(2, -0.4));
        let s = StateVector::from_circuit(&c);
        let mut rng = StdRng::seed_from_u64(99);
        for txt in ["ZZI", "IXZ", "YIY", "ZIZ"] {
            let p = PauliString::parse(txt).unwrap();
            let exact = s.expectation(&p);
            let est = estimate_pauli_with_shots(&s, &p, 100_000, &mut rng);
            assert!((exact - est).abs() < 2e-2, "{txt}: exact={exact} est={est}");
        }
    }

    #[test]
    fn identity_estimate_is_exactly_one() {
        let s = StateVector::zero_state(2);
        let mut rng = StdRng::seed_from_u64(1);
        let est = estimate_pauli_with_shots(&s, &PauliString::identity(2), 10, &mut rng);
        assert_eq!(est, 1.0);
    }

    #[test]
    fn seeded_draws_are_pinned() {
        // The 100 draws seed 3 gave before the inverse-CDF table moved
        // inline: downstream shot noise must not change by a single draw.
        let mut c = Circuit::new(3);
        c.push(Gate::H(0));
        c.push(Gate::Ry(1, 0.9));
        let s = StateVector::from_circuit(&c);
        let draws = sample_bitstrings(&s, 100, &mut StdRng::seed_from_u64(3));
        #[rustfmt::skip]
        let pinned: [u64; 100] = [
            0, 1, 2, 2, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 0, 1, 1, 1,
            0, 0, 0, 0, 2, 1, 3, 1, 0, 0, 3, 0, 1, 0, 1, 0, 0, 0, 0, 2,
            1, 1, 0, 1, 1, 2, 1, 1, 1, 0, 3, 1, 0, 0, 0, 0, 0, 3, 1, 1,
            0, 0, 0, 0, 1, 0, 1, 0, 1, 3, 0, 1, 3, 0, 1, 2, 0, 1, 1, 0,
            0, 0, 1, 1, 1, 1, 0, 1, 0, 1, 1, 1, 0, 1, 1, 0, 1, 0, 0, 0,
        ];
        assert_eq!(draws, pinned);
    }
}
