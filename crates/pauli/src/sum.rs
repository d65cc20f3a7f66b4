//! Real-weighted sums of Pauli strings — Hermitian observables.
//!
//! The *classical combination of quantum observables* (CQO, §III.D of the
//! paper) builds estimators of the form `O(α) = Σ_j α_j O_j`; a [`PauliSum`]
//! is the concrete representation of such an observable when the `O_j` are
//! Pauli strings.

use crate::string::PauliString;
use std::collections::HashMap;
use std::fmt;

/// A Hermitian observable `Σ_j c_j P_j` with real coefficients `c_j` and
/// Pauli strings `P_j`.
#[derive(Clone, Debug, PartialEq)]
pub struct PauliSum {
    n: usize,
    terms: Vec<(f64, PauliString)>,
}

impl PauliSum {
    /// The zero observable on `n` qubits.
    pub fn zero(n: usize) -> Self {
        assert!((1..=crate::MAX_QUBITS).contains(&n));
        PauliSum {
            n,
            terms: Vec::new(),
        }
    }

    /// Builds from a list of `(coefficient, string)` pairs.
    ///
    /// # Panics
    /// Panics if the strings disagree on qubit count or the list is empty.
    pub fn from_terms(terms: Vec<(f64, PauliString)>) -> Self {
        assert!(!terms.is_empty(), "use PauliSum::zero for empty sums");
        let n = terms[0].1.num_qubits();
        assert!(
            terms.iter().all(|(_, p)| p.num_qubits() == n),
            "qubit-count mismatch between terms"
        );
        PauliSum { n, terms }
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The terms as `(coefficient, string)` pairs.
    #[inline]
    pub fn terms(&self) -> &[(f64, PauliString)] {
        &self.terms
    }

    /// Number of terms (after any simplification performed so far).
    #[inline]
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Adds a term in place.
    pub fn push(&mut self, coeff: f64, p: PauliString) {
        assert_eq!(p.num_qubits(), self.n, "qubit-count mismatch");
        self.terms.push((coeff, p));
    }

    /// Sum of two observables.
    pub fn add(&self, rhs: &PauliSum) -> PauliSum {
        assert_eq!(self.n, rhs.n, "qubit-count mismatch");
        let mut terms = self.terms.clone();
        terms.extend_from_slice(&rhs.terms);
        PauliSum { n: self.n, terms }
    }

    /// Scales every coefficient by `s`.
    pub fn scale(&self, s: f64) -> PauliSum {
        PauliSum {
            n: self.n,
            terms: self.terms.iter().map(|&(c, p)| (c * s, p)).collect(),
        }
    }

    /// Combines duplicate strings and drops terms with |coeff| ≤ `tol`.
    pub fn simplified(&self, tol: f64) -> PauliSum {
        let mut acc: HashMap<PauliString, f64> = HashMap::with_capacity(self.terms.len());
        for &(c, p) in &self.terms {
            *acc.entry(p).or_insert(0.0) += c;
        }
        let mut terms: Vec<(f64, PauliString)> = acc
            .into_iter()
            .filter(|&(_, c)| c.abs() > tol)
            .map(|(p, c)| (c, p))
            .collect();
        // Deterministic order: by weight, then by display string.
        terms.sort_by(|a, b| {
            a.1.weight()
                .cmp(&b.1.weight())
                .then_with(|| a.1.to_string().cmp(&b.1.to_string()))
        });
        PauliSum { n: self.n, terms }
    }

    /// The maximum locality (weight) over all terms; 0 for the zero sum.
    pub fn max_locality(&self) -> usize {
        self.terms
            .iter()
            .map(|(_, p)| p.weight())
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Display for PauliSum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        for (i, (c, p)) in self.terms.iter().enumerate() {
            if i == 0 {
                write!(f, "{c:+.6}·{p}")?;
            } else {
                write!(f, " {c:+.6}·{p}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::Pauli;

    #[test]
    fn simplify_combines_and_drops() {
        let zz = PauliString::parse("ZZ").unwrap();
        let xi = PauliString::parse("XI").unwrap();
        let s = PauliSum::from_terms(vec![(1.0, zz), (2.0, xi), (-1.0, zz), (0.5, xi)]);
        let t = s.simplified(1e-12);
        assert_eq!(t.num_terms(), 1);
        assert_eq!(t.terms()[0].1, xi);
        assert!((t.terms()[0].0 - 2.5).abs() < 1e-15);
    }

    #[test]
    fn locality_and_norms() {
        let s = PauliSum::from_terms(vec![
            (3.0, PauliString::parse("ZII").unwrap()),
            (-4.0, PauliString::parse("XYI").unwrap()),
        ]);
        assert_eq!(s.max_locality(), 2);
    }

    #[test]
    fn add_scale() {
        let a = PauliSum::from_terms(vec![(1.0, PauliString::single(2, 0, Pauli::Z))]);
        let b = PauliSum::from_terms(vec![(2.0, PauliString::single(2, 1, Pauli::X))]);
        let c = a.add(&b).scale(2.0);
        let coeffs: Vec<f64> = c.terms().iter().map(|&(c, _)| c).collect();
        assert_eq!(coeffs, [2.0, 4.0]);
    }

    #[test]
    fn zero_sum_behaviour() {
        let z = PauliSum::zero(3);
        assert_eq!(z.num_terms(), 0);
        assert_eq!(z.max_locality(), 0);
        assert_eq!(z.to_string(), "0");
    }

    #[test]
    #[should_panic]
    fn mismatched_terms_panic() {
        let _ = PauliSum::from_terms(vec![
            (1.0, PauliString::identity(2)),
            (1.0, PauliString::identity(3)),
        ]);
    }
}
