//! `n`-qubit Pauli strings stored as symplectic bitmask pairs.
//!
//! A string `P = σ_{n−1} ⊗ … ⊗ σ_1 ⊗ σ_0` is stored as two `u64` masks:
//! bit `k` of `x` is set when `σ_k ∈ {X, Y}` and bit `k` of `z` is set when
//! `σ_k ∈ {Z, Y}`. The operator represented is exactly the tensor product of
//! the letters (the `i` factors inside each `Y` are part of the operator, not
//! tracked separately), so every `PauliString` is Hermitian with eigenvalues
//! ±1.

use crate::phase::PhaseI;
use crate::single::Pauli;
use std::fmt;

/// An `n`-qubit Pauli string (tensor product of single-qubit Paulis).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PauliString {
    n: usize,
    x: u64,
    z: u64,
}

/// Precomputed basis-action data of one string, ready for hot expectation
/// loops: `P|b⟩ = phase · (−1)^{|b ∧ z|} |b ⊕ x⟩`.
///
/// Hoisting this out of per-amplitude loops lets fused multi-observable
/// kernels (e.g. `StateVector::expectation_many`) evaluate many strings in
/// one pass over the amplitudes without touching [`PauliString`] methods
/// per element.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BasisKernel {
    /// X-type mask: the basis flip `b → b ⊕ x`.
    pub x: u64,
    /// Z-type mask: the sign `(−1)^{|b ∧ z|}`.
    pub z: u64,
    /// Global phase `i^{#Y}` from the `Y` letters.
    pub phase: PhaseI,
}

impl PauliString {
    /// The identity string on `n` qubits.
    ///
    /// # Panics
    /// Panics if `n` is zero or exceeds [`crate::MAX_QUBITS`].
    pub fn identity(n: usize) -> Self {
        assert!(
            (1..=crate::MAX_QUBITS).contains(&n),
            "unsupported qubit count {n}"
        );
        PauliString { n, x: 0, z: 0 }
    }

    /// A string with a single non-identity letter `p` on `qubit`.
    pub fn single(n: usize, qubit: usize, p: Pauli) -> Self {
        let mut s = Self::identity(n);
        s.set(qubit, p);
        s
    }

    /// Builds a string from per-qubit letters; `letters[k]` acts on qubit `k`.
    pub fn from_letters(letters: &[Pauli]) -> Self {
        let mut s = Self::identity(letters.len());
        for (k, &p) in letters.iter().enumerate() {
            s.set(k, p);
        }
        s
    }

    /// Parses a textual string such as `"XIZY"`.
    ///
    /// The **leftmost character acts on the highest qubit** (matching how
    /// kets are written); `"XI"` is `X` on qubit 1, `I` on qubit 0.
    pub fn parse(text: &str) -> Option<Self> {
        let n = text.len();
        if n == 0 || n > crate::MAX_QUBITS {
            return None;
        }
        let mut s = Self::identity(n);
        for (pos, c) in text.chars().enumerate() {
            let qubit = n - 1 - pos;
            s.set(qubit, Pauli::from_char(c)?);
        }
        Some(s)
    }

    /// Constructs directly from symplectic masks (bits above `n` must be 0).
    pub fn from_masks(n: usize, x: u64, z: u64) -> Self {
        assert!((1..=crate::MAX_QUBITS).contains(&n));
        let valid = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        assert_eq!(x & !valid, 0, "x mask has bits above qubit {n}");
        assert_eq!(z & !valid, 0, "z mask has bits above qubit {n}");
        PauliString { n, x, z }
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The X-type mask (bit `k` set iff letter `k` is `X` or `Y`).
    #[inline]
    pub fn x_mask(&self) -> u64 {
        self.x
    }

    /// The Z-type mask (bit `k` set iff letter `k` is `Z` or `Y`).
    #[inline]
    pub fn z_mask(&self) -> u64 {
        self.z
    }

    /// Mask of qubits on which the string acts non-trivially.
    #[inline]
    pub fn support_mask(&self) -> u64 {
        self.x | self.z
    }

    /// The letter on `qubit`.
    #[inline]
    pub fn get(&self, qubit: usize) -> Pauli {
        assert!(qubit < self.n);
        let x = (self.x >> qubit) & 1 == 1;
        let z = (self.z >> qubit) & 1 == 1;
        Pauli::from_xz_bits(x, z)
    }

    /// Sets the letter on `qubit`.
    pub fn set(&mut self, qubit: usize, p: Pauli) {
        assert!(qubit < self.n);
        let (xb, zb) = p.xz_bits();
        let bit = 1u64 << qubit;
        if xb {
            self.x |= bit;
        } else {
            self.x &= !bit;
        }
        if zb {
            self.z |= bit;
        } else {
            self.z &= !bit;
        }
    }

    /// The *weight* (= *locality* in the paper's sense): the number of
    /// qubits on which the string acts non-trivially.
    #[inline]
    pub fn weight(&self) -> usize {
        self.support_mask().count_ones() as usize
    }

    /// Whether the string is the identity.
    #[inline]
    pub fn is_identity(&self) -> bool {
        self.x == 0 && self.z == 0
    }

    /// The qubits in the support, in ascending order.
    pub fn support(&self) -> Vec<usize> {
        let mut m = self.support_mask();
        let mut out = Vec::with_capacity(self.weight());
        while m != 0 {
            let k = m.trailing_zeros() as usize;
            out.push(k);
            m &= m - 1;
        }
        out
    }

    /// Number of `Y` letters in the string.
    #[inline]
    pub fn y_count(&self) -> usize {
        (self.x & self.z).count_ones() as usize
    }

    /// Product of two strings: `self · rhs = phase · string`.
    ///
    /// The result's masks are the XOR of the operands' masks; the phase is
    /// accumulated exactly letter-by-letter.
    pub fn mul(&self, rhs: &PauliString) -> (PhaseI, PauliString) {
        assert_eq!(self.n, rhs.n, "qubit-count mismatch");
        let mut phase = PhaseI::ONE;
        // Only qubits where both strings are non-identity can contribute a
        // phase; walk those.
        let mut both = self.support_mask() & rhs.support_mask();
        while both != 0 {
            let k = both.trailing_zeros() as usize;
            let (ph, _) = self.get(k).mul(rhs.get(k));
            phase *= ph;
            both &= both - 1;
        }
        (
            phase,
            PauliString {
                n: self.n,
                x: self.x ^ rhs.x,
                z: self.z ^ rhs.z,
            },
        )
    }

    /// Whether two strings commute, via the symplectic form: they commute
    /// iff `|x₁∧z₂| + |z₁∧x₂|` is even.
    #[inline]
    pub fn commutes_with(&self, rhs: &PauliString) -> bool {
        assert_eq!(self.n, rhs.n, "qubit-count mismatch");
        let a = (self.x & rhs.z).count_ones();
        let b = (self.z & rhs.x).count_ones();
        (a + b).is_multiple_of(2)
    }

    /// Precomputes the basis-action kernel (masks and `Y` phase) for hot
    /// expectation loops; see [`BasisKernel`].
    #[inline]
    pub fn basis_kernel(&self) -> BasisKernel {
        BasisKernel {
            x: self.x,
            z: self.z,
            phase: PhaseI::from_power(self.y_count() as u32),
        }
    }

    /// Action on a computational-basis state: `P |b⟩ = λ(b) |b ⊕ x⟩`.
    ///
    /// Returns `(λ(b), b ⊕ x)` where `λ(b) = i^{#Y} · (−1)^{|b ∧ z|}` is a
    /// `PhaseI`. This is the kernel used by the simulator's expectation
    /// routine and by the shadows estimator.
    #[inline]
    pub fn apply_to_basis(&self, b: u64) -> (PhaseI, u64) {
        let sign_flips = (b & self.z).count_ones();
        let phase = PhaseI::from_power(self.y_count() as u32 + 2 * sign_flips);
        (phase, b ^ self.x)
    }

    /// Eigenvalue sign of a computational-basis outcome **after** the string
    /// has been rotated to Z-type: `(−1)^{|outcome ∧ support|}`.
    #[inline]
    pub fn outcome_sign(&self, outcome: u64) -> f64 {
        if (outcome & self.support_mask())
            .count_ones()
            .is_multiple_of(2)
        {
            1.0
        } else {
            -1.0
        }
    }
}

impl fmt::Display for PauliString {
    /// Displays with the highest qubit leftmost, matching [`Self::parse`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for k in (0..self.n).rev() {
            write!(f, "{}", self.get(k))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_display_roundtrip() {
        for s in ["XIZY", "IIII", "ZZ", "Y", "XYZXYZXYZ"] {
            let p = PauliString::parse(s).unwrap();
            assert_eq!(p.to_string(), s);
        }
        assert!(PauliString::parse("").is_none());
        assert!(PauliString::parse("AB").is_none());
    }

    #[test]
    fn parse_orientation() {
        // "XI": X on qubit 1, I on qubit 0.
        let p = PauliString::parse("XI").unwrap();
        assert_eq!(p.get(1), Pauli::X);
        assert_eq!(p.get(0), Pauli::I);
    }

    #[test]
    fn weight_and_support() {
        let p = PauliString::parse("XIZY").unwrap();
        assert_eq!(p.weight(), 3);
        assert_eq!(p.support(), vec![0, 1, 3]); // Y@0, Z@1, X@3
        assert_eq!(p.y_count(), 1);
        assert!(!p.is_identity());
        assert!(PauliString::identity(5).is_identity());
    }

    #[test]
    fn product_letterwise_cross_check() {
        // Compare mask-based product against per-letter products.
        let a = PauliString::parse("XYZI").unwrap();
        let b = PauliString::parse("YYXZ").unwrap();
        let (phase, c) = a.mul(&b);
        let mut want_phase = PhaseI::ONE;
        for k in 0..4 {
            let (ph, letter) = a.get(k).mul(b.get(k));
            want_phase *= ph;
            assert_eq!(c.get(k), letter, "qubit {k}");
        }
        assert_eq!(phase, want_phase);
    }

    #[test]
    fn self_product_is_identity() {
        for s in ["XIZY", "YYYY", "ZXZX"] {
            let p = PauliString::parse(s).unwrap();
            let (phase, sq) = p.mul(&p);
            assert_eq!(phase, PhaseI::ONE, "{s}");
            assert!(sq.is_identity(), "{s}");
        }
    }

    #[test]
    fn commutation_symplectic_vs_product() {
        let strings = ["XXII", "ZIZI", "YXYZ", "IIII", "ZZZZ", "XYIX"];
        for a in strings {
            for b in strings {
                let pa = PauliString::parse(a).unwrap();
                let pb = PauliString::parse(b).unwrap();
                let (pab, _) = pa.mul(&pb);
                let (pba, _) = pb.mul(&pa);
                assert_eq!(pa.commutes_with(&pb), pab == pba, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn apply_to_basis_z_and_x() {
        // Z on qubit 0 of n=2: |01⟩ (b=1) picks up −1, stays in place.
        let z0 = PauliString::single(2, 0, Pauli::Z);
        let (ph, b2) = z0.apply_to_basis(0b01);
        assert_eq!(ph, PhaseI::MINUS_ONE);
        assert_eq!(b2, 0b01);
        // X on qubit 1 flips the bit with no phase.
        let x1 = PauliString::single(2, 1, Pauli::X);
        let (ph, b2) = x1.apply_to_basis(0b01);
        assert_eq!(ph, PhaseI::ONE);
        assert_eq!(b2, 0b11);
        // Y|0⟩ = i|1⟩, Y|1⟩ = −i|0⟩ on qubit 0.
        let y0 = PauliString::single(1, 0, Pauli::Y);
        let (ph, b2) = y0.apply_to_basis(0);
        assert_eq!((ph, b2), (PhaseI::I, 1));
        let (ph, b2) = y0.apply_to_basis(1);
        assert_eq!((ph, b2), (PhaseI::MINUS_I, 0));
    }

    #[test]
    fn basis_kernel_matches_apply_to_basis() {
        for s in ["XIZY", "YYYY", "ZZII", "IXIX", "IIII"] {
            let p = PauliString::parse(s).unwrap();
            let k = p.basis_kernel();
            assert_eq!(k.x, p.x_mask(), "{s}");
            assert_eq!(k.z, p.z_mask(), "{s}");
            for b in 0..16u64 {
                let (phase, b2) = p.apply_to_basis(b);
                assert_eq!(b2, b ^ k.x, "{s} b={b}");
                let sign_power = 2 * (b & k.z).count_ones();
                assert_eq!(phase, k.phase * PhaseI::from_power(sign_power), "{s} b={b}");
            }
        }
    }

    #[test]
    fn outcome_sign_parity() {
        let p = PauliString::parse("ZIZ").unwrap(); // support qubits 0 and 2
        assert_eq!(p.outcome_sign(0b000), 1.0);
        assert_eq!(p.outcome_sign(0b001), -1.0);
        assert_eq!(p.outcome_sign(0b101), 1.0);
        assert_eq!(p.outcome_sign(0b010), 1.0); // qubit 1 not in support
    }

    #[test]
    fn from_masks_rejects_out_of_range() {
        let p = PauliString::from_masks(3, 0b101, 0b010);
        // x bits on 0 and 2 (X letters), z bit on 1 (Z letter) → "XZX".
        assert_eq!(p.to_string(), "XZX");
        assert_eq!(p.get(0), Pauli::X);
        assert_eq!(p.get(1), Pauli::Z);
        assert_eq!(p.get(2), Pauli::X);
    }

    #[test]
    #[should_panic]
    fn from_masks_panics_on_overflow_bits() {
        let _ = PauliString::from_masks(3, 0b1000, 0);
    }
}
