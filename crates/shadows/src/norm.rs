//! Shadow norms.
//!
//! For the random single-qubit Clifford (Pauli-basis) ensemble the shadow
//! norm of a Pauli string `P` is `‖P‖_S² = 3^{|P|}`; the paper quotes the
//! looser bound `‖O‖_S² ≤ 4^L ‖O‖²` for any observable acting on `L`
//! qubits (§II.B).

use pauli::PauliString;

/// Exact shadow-norm squared of a Pauli string under the Pauli-basis
/// ensemble: `3^{weight}`.
pub fn pauli_shadow_norm_sq(p: &PauliString) -> f64 {
    3f64.powi(p.weight() as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pauli_norms() {
        assert_eq!(
            pauli_shadow_norm_sq(&PauliString::parse("IIII").unwrap()),
            1.0
        );
        assert_eq!(
            pauli_shadow_norm_sq(&PauliString::parse("ZIII").unwrap()),
            3.0
        );
        assert_eq!(
            pauli_shadow_norm_sq(&PauliString::parse("ZXIY").unwrap()),
            27.0
        );
    }
}
