//! Single-qubit Pauli letters and their multiplication table.

use crate::phase::PhaseI;
use num_complex::Complex64;
use std::fmt;

/// One of the four single-qubit Pauli operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Pauli {
    /// Identity.
    I,
    /// Bit flip.
    X,
    /// Bit and phase flip (`Y = iXZ`).
    Y,
    /// Phase flip.
    Z,
}

impl Pauli {
    /// All four letters in canonical order `I, X, Y, Z`.
    pub const ALL: [Pauli; 4] = [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z];

    /// The three non-identity letters `X, Y, Z`.
    pub const NONTRIVIAL: [Pauli; 3] = [Pauli::X, Pauli::Y, Pauli::Z];

    /// `(x, z)` symplectic bits: `X → (1,0)`, `Z → (0,1)`, `Y → (1,1)`.
    #[inline]
    pub fn xz_bits(self) -> (bool, bool) {
        match self {
            Pauli::I => (false, false),
            Pauli::X => (true, false),
            Pauli::Y => (true, true),
            Pauli::Z => (false, true),
        }
    }

    /// Reconstructs a letter from its symplectic bits.
    #[inline]
    pub fn from_xz_bits(x: bool, z: bool) -> Self {
        match (x, z) {
            (false, false) => Pauli::I,
            (true, false) => Pauli::X,
            (true, true) => Pauli::Y,
            (false, true) => Pauli::Z,
        }
    }

    /// Single-letter product `self · rhs = phase · letter`.
    ///
    /// Implements the standard table, e.g. `X·Y = iZ`, `Y·X = −iZ`,
    /// `X·X = I`.
    #[inline]
    #[allow(clippy::should_implement_trait)] // returns (phase, letter); `Mul` cannot
    pub fn mul(self, rhs: Pauli) -> (PhaseI, Pauli) {
        use Pauli::*;
        match (self, rhs) {
            (I, p) => (PhaseI::ONE, p),
            (p, I) => (PhaseI::ONE, p),
            (X, X) | (Y, Y) | (Z, Z) => (PhaseI::ONE, I),
            (X, Y) => (PhaseI::I, Z),
            (Y, X) => (PhaseI::MINUS_I, Z),
            (Y, Z) => (PhaseI::I, X),
            (Z, Y) => (PhaseI::MINUS_I, X),
            (Z, X) => (PhaseI::I, Y),
            (X, Z) => (PhaseI::MINUS_I, Y),
        }
    }

    /// Whether two letters commute (`I` commutes with everything; distinct
    /// non-identity letters anticommute).
    #[inline]
    pub fn commutes_with(self, rhs: Pauli) -> bool {
        self == Pauli::I || rhs == Pauli::I || self == rhs
    }

    /// The 2×2 matrix of this letter, row-major.
    pub fn matrix(self) -> [[Complex64; 2]; 2] {
        let o = Complex64::new(0.0, 0.0);
        let l = Complex64::new(1.0, 0.0);
        let i = Complex64::new(0.0, 1.0);
        match self {
            Pauli::I => [[l, o], [o, l]],
            Pauli::X => [[o, l], [l, o]],
            Pauli::Y => [[o, -i], [i, o]],
            Pauli::Z => [[l, o], [o, -l]],
        }
    }

    /// Parses one of `I X Y Z` (case-insensitive).
    pub fn from_char(c: char) -> Option<Self> {
        match c.to_ascii_uppercase() {
            'I' => Some(Pauli::I),
            'X' => Some(Pauli::X),
            'Y' => Some(Pauli::Y),
            'Z' => Some(Pauli::Z),
            _ => None,
        }
    }

    /// The canonical character for this letter.
    pub fn to_char(self) -> char {
        match self {
            Pauli::I => 'I',
            Pauli::X => 'X',
            Pauli::Y => 'Y',
            Pauli::Z => 'Z',
        }
    }
}

impl fmt::Display for Pauli {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2×2 complex matrix product for cross-checking the algebraic table.
    fn matmul2(a: [[Complex64; 2]; 2], b: [[Complex64; 2]; 2]) -> [[Complex64; 2]; 2] {
        let mut c = [[Complex64::new(0.0, 0.0); 2]; 2];
        for i in 0..2 {
            for j in 0..2 {
                for k in 0..2 {
                    c[i][j] += a[i][k] * b[k][j];
                }
            }
        }
        c
    }

    #[test]
    fn product_table_matches_matrices() {
        for &a in &Pauli::ALL {
            for &b in &Pauli::ALL {
                let (phase, c) = a.mul(b);
                let lhs = matmul2(a.matrix(), b.matrix());
                let scale = phase.to_c64();
                let rhs = c.matrix();
                for r in 0..2 {
                    for s in 0..2 {
                        let want = scale * rhs[r][s];
                        assert!(
                            (lhs[r][s] - want).norm() < 1e-14,
                            "{a}*{b}: entry ({r},{s})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn commutation_matches_table() {
        for &a in &Pauli::ALL {
            for &b in &Pauli::ALL {
                let (pab, _) = a.mul(b);
                let (pba, _) = b.mul(a);
                let commute = pab == pba;
                assert_eq!(a.commutes_with(b), commute, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn xz_bits_roundtrip() {
        for &p in &Pauli::ALL {
            let (x, z) = p.xz_bits();
            assert_eq!(Pauli::from_xz_bits(x, z), p);
        }
    }

    #[test]
    fn char_roundtrip() {
        for &p in &Pauli::ALL {
            assert_eq!(Pauli::from_char(p.to_char()), Some(p));
            assert_eq!(Pauli::from_char(p.to_char().to_ascii_lowercase()), Some(p));
        }
        assert_eq!(Pauli::from_char('Q'), None);
    }

    #[test]
    fn paulis_are_hermitian_and_unitary() {
        for &p in &Pauli::ALL {
            let m = p.matrix();
            // Hermitian: m == m†
            for i in 0..2 {
                for j in 0..2 {
                    assert!((m[i][j] - m[j][i].conj()).norm() < 1e-15);
                }
            }
            // Unitary with P² = I.
            let sq = matmul2(m, m);
            for i in 0..2 {
                for j in 0..2 {
                    let want = if i == j { 1.0 } else { 0.0 };
                    assert!((sq[i][j] - Complex64::new(want, 0.0)).norm() < 1e-15);
                }
            }
        }
    }
}
