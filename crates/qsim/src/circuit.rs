//! Circuit IR: flat gate lists and parameterised circuits.

use crate::gate::Gate;
use std::fmt;

/// A fixed (non-parameterised) quantum circuit on `n` qubits.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Circuit {
    n: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Empty circuit on `n` qubits.
    pub fn new(n: usize) -> Self {
        assert!((1..=pauli::MAX_QUBITS).contains(&n));
        Circuit {
            n,
            gates: Vec::new(),
        }
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The gate list in execution order.
    #[inline]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Number of gates.
    #[inline]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the circuit has no gates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Appends a gate (validating qubit indices).
    pub fn push(&mut self, g: Gate) {
        for q in g.qubits() {
            assert!(q < self.n, "gate {g} addresses qubit {q} of {}", self.n);
        }
        if let Gate::Cnot { control, target } = g {
            assert_ne!(control, target, "CNOT control == target");
        }
        if let Gate::Cz(a, b) | Gate::Swap(a, b) = g {
            assert_ne!(a, b, "two-qubit gate with identical qubits");
        }
        self.gates.push(g);
    }

    /// Builder-style append.
    pub fn with(mut self, g: Gate) -> Self {
        self.push(g);
        self
    }

    /// Appends all gates of another circuit.
    pub fn extend(&mut self, other: &Circuit) {
        assert_eq!(self.n, other.n, "qubit-count mismatch");
        self.gates.extend_from_slice(&other.gates);
    }

    /// The adjoint circuit (gates reversed and inverted) — used for fidelity
    /// pruning (§IV.C: overlap via `S†(x)U†(θ+)U(θ−)S(x)|0⟩`).
    pub fn dagger(&self) -> Circuit {
        Circuit {
            n: self.n,
            gates: self.gates.iter().rev().map(|g| g.dagger()).collect(),
        }
    }

    /// Removes gates that are the identity to tolerance `tol` — the
    /// transpile-time optimisation the paper notes for zero-initialised
    /// ansätze (§VIII: "we can remove gates that evaluate to identity").
    pub fn elide_identities(&self, tol: f64) -> Circuit {
        Circuit {
            n: self.n,
            gates: self
                .gates
                .iter()
                .copied()
                .filter(|g| !g.is_identity(tol))
                .collect(),
        }
    }

    /// Circuit depth: the longest chain of gates over any qubit, computed
    /// with the usual per-qubit frontier sweep.
    pub fn depth(&self) -> usize {
        let mut frontier = vec![0usize; self.n];
        for g in &self.gates {
            let qs = g.qubits();
            let level = qs.iter().map(|&q| frontier[q]).max().unwrap_or(0) + 1;
            for q in qs {
                frontier[q] = level;
            }
        }
        frontier.into_iter().max().unwrap_or(0)
    }

    /// Counts of (single-qubit, two-qubit) gates.
    pub fn gate_counts(&self) -> (usize, usize) {
        let single = self.gates.iter().filter(|g| g.is_single_qubit()).count();
        (single, self.gates.len() - single)
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Circuit[{} qubits, {} gates]:", self.n, self.gates.len())?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

/// Rotation axis of a parameterised gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RotAxis {
    /// `Rx`.
    X,
    /// `Ry`.
    Y,
    /// `Rz`.
    Z,
}

/// One element of a parameterised circuit: either a fixed gate or a Pauli
/// rotation reading its angle from a parameter slot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ParamGate {
    /// A gate with no free parameter.
    Fixed(Gate),
    /// A Pauli rotation whose angle is `θ[param]`.
    Rot {
        /// Rotation axis.
        axis: RotAxis,
        /// Target qubit.
        qubit: usize,
        /// Index into the parameter vector.
        param: usize,
    },
}

/// A circuit with free rotation parameters `θ ∈ R^k` — the paper's ansatz
/// `U(θ)` (Eq. (1)). Binding a concrete `θ` yields a fixed [`Circuit`].
///
/// Every parameterised gate is a single-Pauli rotation, which is exactly the
/// decomposition §IV.A assumes so that the simple ±π/2 parameter-shift rule
/// applies to each parameter independently.
#[derive(Clone, Debug, PartialEq)]
pub struct ParamCircuit {
    n: usize,
    gates: Vec<ParamGate>,
    num_params: usize,
}

impl ParamCircuit {
    /// Empty parameterised circuit.
    pub fn new(n: usize) -> Self {
        assert!((1..=pauli::MAX_QUBITS).contains(&n));
        ParamCircuit {
            n,
            gates: Vec::new(),
            num_params: 0,
        }
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Number of parameter slots `k`.
    #[inline]
    pub fn num_params(&self) -> usize {
        self.num_params
    }

    /// The gate list.
    #[inline]
    pub fn gates(&self) -> &[ParamGate] {
        &self.gates
    }

    /// Appends a fixed gate.
    pub fn push_fixed(&mut self, g: Gate) {
        for q in g.qubits() {
            assert!(q < self.n);
        }
        self.gates.push(ParamGate::Fixed(g));
    }

    /// Appends a parameterised rotation on a **new** parameter slot,
    /// returning the slot index.
    pub fn push_rot(&mut self, axis: RotAxis, qubit: usize) -> usize {
        assert!(qubit < self.n);
        let param = self.num_params;
        self.num_params += 1;
        self.gates.push(ParamGate::Rot { axis, qubit, param });
        param
    }

    /// Appends a rotation bound to an **existing** parameter slot
    /// (parameter sharing / correlated parameters).
    pub fn push_shared_rot(&mut self, axis: RotAxis, qubit: usize, param: usize) {
        assert!(qubit < self.n);
        assert!(param < self.num_params, "unknown parameter slot {param}");
        self.gates.push(ParamGate::Rot { axis, qubit, param });
    }

    /// Binds a parameter vector, producing a fixed circuit.
    ///
    /// # Panics
    /// Panics if `theta.len() != self.num_params()`.
    pub fn bind(&self, theta: &[f64]) -> Circuit {
        assert_eq!(
            theta.len(),
            self.num_params,
            "expected {} parameters",
            self.num_params
        );
        let mut c = Circuit::new(self.n);
        for pg in &self.gates {
            match *pg {
                ParamGate::Fixed(g) => c.push(g),
                ParamGate::Rot { axis, qubit, param } => {
                    let th = theta[param];
                    c.push(match axis {
                        RotAxis::X => Gate::Rx(qubit, th),
                        RotAxis::Y => Gate::Ry(qubit, th),
                        RotAxis::Z => Gate::Rz(qubit, th),
                    });
                }
            }
        }
        c
    }

    /// Binds and drops identity gates — the common case for the paper's
    /// zero-initialised shift grids where most rotations vanish.
    pub fn bind_optimized(&self, theta: &[f64]) -> Circuit {
        self.bind(theta).elide_identities(1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_validates_qubits() {
        let mut c = Circuit::new(2);
        c.push(Gate::H(0));
        c.push(Gate::Cnot {
            control: 0,
            target: 1,
        });
        assert_eq!(c.len(), 2);
    }

    #[test]
    #[should_panic]
    fn push_rejects_out_of_range() {
        let mut c = Circuit::new(2);
        c.push(Gate::H(2));
    }

    #[test]
    #[should_panic]
    fn cnot_rejects_equal_qubits() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cnot {
            control: 1,
            target: 1,
        });
    }

    #[test]
    fn depth_computation() {
        let mut c = Circuit::new(3);
        c.push(Gate::H(0)); // depth 1 on q0
        c.push(Gate::H(1)); // depth 1 on q1
        c.push(Gate::Cnot {
            control: 0,
            target: 1,
        }); // depth 2 on q0,q1
        c.push(Gate::H(2)); // depth 1 on q2
        c.push(Gate::Cnot {
            control: 1,
            target: 2,
        }); // depth 3 on q1,q2
        assert_eq!(c.depth(), 3);
        assert_eq!(c.gate_counts(), (3, 2));
    }

    #[test]
    fn elide_identities_drops_zero_rotations() {
        let mut c = Circuit::new(1);
        c.push(Gate::Rx(0, 0.0));
        c.push(Gate::H(0));
        c.push(Gate::Rz(0, 0.0));
        let e = c.elide_identities(1e-12);
        assert_eq!(e.len(), 1);
        assert_eq!(e.gates()[0], Gate::H(0));
    }

    #[test]
    fn dagger_reverses_and_inverts() {
        let mut c = Circuit::new(2);
        c.push(Gate::S(0));
        c.push(Gate::Cnot {
            control: 0,
            target: 1,
        });
        let d = c.dagger();
        assert_eq!(
            d.gates()[0],
            Gate::Cnot {
                control: 0,
                target: 1
            }
        );
        assert_eq!(d.gates()[1], Gate::Sdg(0));
    }

    #[test]
    fn param_circuit_bind() {
        let mut pc = ParamCircuit::new(2);
        pc.push_fixed(Gate::H(0));
        let p0 = pc.push_rot(RotAxis::Y, 0);
        let p1 = pc.push_rot(RotAxis::Y, 1);
        assert_eq!((p0, p1), (0, 1));
        assert_eq!(pc.num_params(), 2);
        let c = pc.bind(&[0.5, -0.5]);
        assert_eq!(c.gates()[1], Gate::Ry(0, 0.5));
        assert_eq!(c.gates()[2], Gate::Ry(1, -0.5));
    }

    #[test]
    fn shared_params_bind_same_angle() {
        let mut pc = ParamCircuit::new(2);
        let p = pc.push_rot(RotAxis::Z, 0);
        pc.push_shared_rot(RotAxis::Z, 1, p);
        let c = pc.bind(&[1.25]);
        assert_eq!(c.gates()[0], Gate::Rz(0, 1.25));
        assert_eq!(c.gates()[1], Gate::Rz(1, 1.25));
    }

    #[test]
    fn bind_optimized_shrinks_zero_ansatz() {
        let mut pc = ParamCircuit::new(2);
        pc.push_rot(RotAxis::Y, 0);
        pc.push_rot(RotAxis::Y, 1);
        pc.push_fixed(Gate::Cnot {
            control: 0,
            target: 1,
        });
        let c = pc.bind_optimized(&[0.0, 0.0]);
        assert_eq!(c.len(), 1); // only the CNOT survives
    }

    #[test]
    #[should_panic]
    fn bind_wrong_arity_panics() {
        let mut pc = ParamCircuit::new(1);
        pc.push_rot(RotAxis::X, 0);
        let _ = pc.bind(&[0.1, 0.2]);
    }
}
