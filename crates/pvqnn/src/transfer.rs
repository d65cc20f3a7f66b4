//! Exact features in the Heisenberg picture (Pauli-transfer rows).
//!
//! Every exact neuron is `Tr(ρ(x) U_a† O_b U_a)`. Instead of simulating
//! `U_a S(x)|0ⁿ⟩` per row, the observable is moved backwards through the
//! bound ansatz **once per generator**: each gate maps a real-weighted
//! sum of Pauli strings to another, so `U_a† O_b U_a = Σ_k c_k P_k` is a
//! fixed sparse list of strings. Clifford gates (H, X/Y/Z, S/S†, CNOT,
//! CZ, SWAP) send a string to ± one string; Pauli rotations (Rx/Ry/Rz,
//! and Phase/T/T† as Z rotations up to a global phase) send an
//! anticommuting string `P` to `cos θ·P + sin θ·(iGP)`. Rotation angles
//! that are whole multiples of π/2 in floating point — every angle of the
//! paper's shift grid — use exact `(cos, sin) ∈ {0, ±1}²`, so each
//! shifted Fig. 8 ansatz is an exact Clifford map and every neuron of the
//! Table III strategies is one signed string. (Taking `cos(π/2)` in
//! floating point would add a `6e-17`-weighted string per shifted
//! rotation instead.)
//!
//! The Fig. 7 encoding applies single-qubit gates only, so
//! `ρ(x) = ⊗_q ρ_q(x)` is a product state and a string's expectation is
//! the product of per-qubit Bloch components:
//! `⟨P⟩ = Π_{q ∈ supp P} r_q[P_q]`. A feature row is then
//! `Q_j(x) = Σ_k c_{jk} ⟨P_k⟩` — a fixed sparse linear map of the `4ⁿ`
//! product vector of the Bloch vectors, evaluated in microseconds.
//!
//! `TransferPlan::row_into` is the only row kernel: every entry point
//! of the exact backend (batched, per point, standalone) calls it with the
//! plan's fixed term order, so all of them agree bit for bit at any
//! thread count.

use crate::encoding::EncodingPlan;
use crate::strategy::Strategy;
use linalg::Mat;
use qsim::Gate;
use std::collections::HashMap;
use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};

/// Qubits per product table: 4⁴ entries, so a string's letters on one
/// block index its table directly.
const BLOCK_QUBITS: usize = 4;
const BLOCK_ENTRIES: usize = 1 << (2 * BLOCK_QUBITS);

/// A Pauli string as its symplectic `(x, z)` masks (the
/// [`pauli::PauliString`] convention, without the qubit count).
type Masks = (u64, u64);

/// A weighted string of observable `b`'s Heisenberg-picture sum, while
/// one shift's observables are propagated together: `(b, string, w)`.
type Weighted = (usize, Masks, f64);

/// The sparse Pauli-transfer plan of a strategy: for every neuron
/// `j = a·q + b`, the strings and real coefficients of `U_a† O_b U_a`,
/// stored flat. Feature `j` owns terms `offsets[j]..offsets[j + 1]`
/// (sorted by `(x, z)` mask); term `k` has coefficient `coeffs[k]` and
/// reads one product-table entry per qubit block,
/// `entries[k·blocks..(k + 1)·blocks]`.
#[derive(Clone, Debug)]
pub struct TransferPlan {
    n: usize,
    offsets: Vec<usize>,
    coeffs: Vec<f64>,
    entries: Vec<u16>,
}

impl TransferPlan {
    /// Propagates every observable of `strategy` backwards through every
    /// bound, identity-elided shift of its ansatz.
    ///
    /// # Panics
    /// Panics above 64 qubits (the width of a [`pauli::PauliString`]).
    pub fn new(strategy: &Strategy) -> Self {
        let n = strategy.num_qubits();
        assert!(n <= 64, "transfer plans hold at most 64 qubits");
        let m = strategy.num_neurons();
        let mut plan = TransferPlan {
            n,
            offsets: Vec::with_capacity(m + 1),
            coeffs: Vec::with_capacity(m),
            entries: Vec::with_capacity(m * n.div_ceil(BLOCK_QUBITS)),
        };
        plan.offsets.push(0);
        let mut sum: Vec<Weighted> = Vec::new();
        for shift in strategy.shifts() {
            let ops: Vec<Op> = match strategy.ansatz() {
                Some(a) => a
                    .bind_optimized(shift)
                    .gates()
                    .iter()
                    .rev()
                    .map(Op::new)
                    .collect(),
                None => Vec::new(),
            };
            // All observables of the shift travel together, each string
            // tagged with its observable's index.
            sum.clear();
            sum.extend(
                strategy
                    .observables()
                    .iter()
                    .enumerate()
                    .map(|(b, o)| (b, (o.x_mask(), o.z_mask()), 1.0)),
            );
            for op in &ops {
                op.conjugate(&mut sum);
            }
            merge(&mut sum);
            let mut terms = sum.iter().peekable();
            for b in 0..strategy.num_observables() {
                while let Some(&(_, p, coeff)) = terms.next_if(|t| t.0 == b) {
                    plan.push_term(p, coeff);
                }
                plan.offsets.push(plan.coeffs.len());
            }
        }
        plan
    }

    /// Appends one term: its coefficient and, per block, the flat index
    /// of its letters' product-table entry (two bits per qubit,
    /// `x_bit | z_bit << 1`, so I, X, Z, Y are 0–3, the block's lowest
    /// qubit in the lowest bits).
    fn push_term(&mut self, (x, z): Masks, coeff: f64) {
        self.coeffs.push(coeff);
        for block in 0..self.n.div_ceil(BLOCK_QUBITS) {
            let qubits = block * BLOCK_QUBITS..self.n.min((block + 1) * BLOCK_QUBITS);
            let code = qubits.rev().fold(0, |code, q| {
                code << 2 | (bit(x, q) | bit(z, q) << 1) as usize
            });
            let entry = block * BLOCK_ENTRIES + code;
            self.entries
                .push(u16::try_from(entry).expect("64 qubits index below 2^16"));
        }
    }

    /// Feature count `m` (one per neuron).
    pub(crate) fn num_features(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total stored strings across all neurons.
    fn num_terms(&self) -> usize {
        self.coeffs.len()
    }

    /// One exact feature row for the raw point `x` (length a positive
    /// multiple of the qubit count), written into `out`.
    ///
    /// Per qubit, the Bloch vector of `S_q(x)|0⟩ = (a, b)` is
    /// `⟨X⟩ = 2Re(a*b)`, `⟨Y⟩ = 2Im(a*b)`, `⟨Z⟩ = |a|² − |b|²`. Each block
    /// of four qubits gets the table of all 4⁴ products of its qubits'
    /// components (the block's factor of the `4ⁿ` product vector); a term
    /// is its coefficient times one table entry per block, in ascending
    /// block order, and terms add in plan order.
    pub(crate) fn row_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), self.num_features(), "row length mismatch");
        let encoding = EncodingPlan::new(x.len(), self.n);
        let blocks = self.n.div_ceil(BLOCK_QUBITS);
        let mut tables = vec![0.0; blocks * BLOCK_ENTRIES];
        for (block, table) in tables.chunks_exact_mut(BLOCK_ENTRIES).enumerate() {
            table[0] = 1.0;
            let mut len = 1;
            for q in block * BLOCK_QUBITS..self.n.min((block + 1) * BLOCK_QUBITS) {
                let m = encoding.qubit_matrix(x, q);
                let (a, b) = (m[0][0], m[1][0]);
                let ab = a.conj() * b;
                let r = [2.0 * ab.re, a.norm_sqr() - b.norm_sqr(), 2.0 * ab.im];
                for (letter, component) in r.into_iter().enumerate() {
                    let (lower, upper) = table.split_at_mut((letter + 1) * len);
                    for (dst, src) in upper[..len].iter_mut().zip(&lower[..len]) {
                        *dst = src * component;
                    }
                }
                len *= 4;
            }
        }
        for (j, value) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in self.offsets[j]..self.offsets[j + 1] {
                let mut prod = self.coeffs[k];
                for &e in &self.entries[k * blocks..(k + 1) * blocks] {
                    prod *= tables[usize::from(e)];
                }
                acc += prod;
            }
            *value = acc;
        }
    }

    /// The transfer rank: the numerical rank of the `m × D` coefficient
    /// matrix `C` over the `D` distinct strings the plan uses, where
    /// `Q(x) = C · z(x)` and `z(x)` holds the strings' product-state
    /// expectations — how many linearly independent functions of `x` the
    /// `m` exact features span.
    pub fn rank(&self) -> usize {
        let blocks = self.n.div_ceil(BLOCK_QUBITS);
        let string = |k: usize| &self.entries[k * blocks..(k + 1) * blocks];
        let mut column: HashMap<&[u16], usize> = HashMap::new();
        for k in 0..self.num_terms() {
            let next = column.len();
            column.entry(string(k)).or_insert(next);
        }
        let mut c = Mat::zeros(self.num_features(), column.len().max(1));
        for j in 0..self.num_features() {
            for k in self.offsets[j]..self.offsets[j + 1] {
                c[(j, column[string(k)])] += self.coeffs[k];
            }
        }
        linalg::svd::rank(&c)
    }
}

/// One gate, prepared for conjugating Pauli sums. Letters are coded
/// `x_bit | z_bit << 1`: I = 0, X = 1, Z = 2, Y = 3.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Hadamard: X ↔ Z, Y → −Y.
    H(usize),
    /// CNOT(control, target).
    Cnot(usize, usize),
    /// CZ = H_b · CNOT(a→b) · H_b.
    Cz(usize, usize),
    /// SWAP: the two qubits' letters trade places.
    Swap(usize, usize),
    /// `exp(−iθσ/2)` on `qubit` with `σ` the letter `axis`, as `cos θ`
    /// and `sin θ`. Pauli, S/S†, T/T† and Phase gates are rotations up to
    /// a global phase, which conjugation cancels.
    Rotation {
        qubit: usize,
        axis: u64,
        cos: f64,
        sin: f64,
    },
}

const X: u64 = 1;
const Z: u64 = 2;
const Y: u64 = 3;

/// The letter after each in the cyclic order X → Y → Z → X: `σ·L = iM`
/// for `L = NEXT[σ]`, and `σ·L = −iM` for the reverse pairs.
const NEXT: [u64; 4] = [0, Y, X, Z];

impl Op {
    fn new(g: &Gate) -> Op {
        let rotation = |qubit, axis, (cos, sin)| Op::Rotation {
            qubit,
            axis,
            cos,
            sin,
        };
        match *g {
            Gate::H(q) => Op::H(q),
            Gate::Cnot { control, target } => Op::Cnot(control, target),
            Gate::Cz(a, b) => Op::Cz(a, b),
            Gate::Swap(a, b) => Op::Swap(a, b),
            Gate::X(q) => rotation(q, X, (-1.0, 0.0)),
            Gate::Y(q) => rotation(q, Y, (-1.0, 0.0)),
            Gate::Z(q) => rotation(q, Z, (-1.0, 0.0)),
            Gate::S(q) => rotation(q, Z, (0.0, 1.0)),
            Gate::Sdg(q) => rotation(q, Z, (0.0, -1.0)),
            Gate::T(q) => rotation(q, Z, (FRAC_PI_4.cos(), FRAC_PI_4.sin())),
            Gate::Tdg(q) => rotation(q, Z, (FRAC_PI_4.cos(), -FRAC_PI_4.sin())),
            Gate::Rx(q, th) => rotation(q, X, cos_sin(th)),
            Gate::Ry(q, th) => rotation(q, Y, cos_sin(th)),
            Gate::Rz(q, th) | Gate::Phase(q, th) => rotation(q, Z, cos_sin(th)),
        }
    }

    /// `g† (Σ w·P) g` for every observable's sum, in place. A Clifford
    /// maps each string to ± one string; a rotation may append strings,
    /// and the sums are re-merged when it did.
    fn conjugate(&self, sum: &mut Vec<Weighted>) {
        let (qubit, axis, cos, sin) = match *self {
            Op::H(q) => return map_strings(sum, |p| hadamard(p, q)),
            Op::Cnot(c, t) => return map_strings(sum, |p| cnot(p, c, t)),
            Op::Cz(a, b) => {
                return map_strings(sum, |p| {
                    let (s1, p) = hadamard(p, b);
                    let (s2, p) = cnot(p, a, b);
                    let (s3, p) = hadamard(p, b);
                    (s1 * s2 * s3, p)
                })
            }
            Op::Swap(a, b) => {
                let swap = move |m: u64| {
                    let d = bit(m, a) ^ bit(m, b);
                    m ^ (d << a) ^ (d << b)
                };
                return map_strings(sum, |(x, z)| (1.0, (swap(x), swap(z))));
            }
            Op::Rotation {
                qubit,
                axis,
                cos,
                sin,
            } => (qubit, axis, cos, sin),
        };
        // R(θ) = exp(−iθσ/2): R† P R = P when [σ, P] = 0, otherwise
        // cos θ·P + sin θ·(iσP). On the qubit, iσL = ∓M with M's bits
        // those of σ xor L: −M when L follows σ cyclically.
        let before = sum.len();
        for i in 0..before {
            let (b, (x, z), w) = sum[i];
            let letter = bit(x, qubit) | bit(z, qubit) << 1;
            if letter == 0 || letter == axis {
                continue;
            }
            let image = (x ^ (axis & 1) << qubit, z ^ (axis >> 1) << qubit);
            let sign = if letter == NEXT[axis as usize] {
                -1.0
            } else {
                1.0
            };
            let rotated = (b, image, w * sin * sign);
            match (cos != 0.0, sin != 0.0) {
                (true, true) => {
                    sum[i].2 = w * cos;
                    sum.push(rotated);
                }
                (true, false) => sum[i].2 = w * cos,
                (false, _) => sum[i] = rotated,
            }
        }
        if sum.len() > before {
            merge(sum);
        }
    }
}

/// Applies a Clifford string map `P → sign·P'` to every term.
fn map_strings(sum: &mut [Weighted], f: impl Fn(Masks) -> (f64, Masks)) {
    for (_, p, w) in sum.iter_mut() {
        let (sign, image) = f(*p);
        *p = image;
        *w *= sign;
    }
}

/// `H P H` on qubit `q`: X ↔ Z (swap the mask bits), Y → −Y.
fn hadamard((x, z): Masks, q: usize) -> (f64, Masks) {
    let d = (bit(x, q) ^ bit(z, q)) << q;
    let sign = if bit(x & z, q) == 1 { -1.0 } else { 1.0 };
    (sign, (x ^ d, z ^ d))
}

/// `CNOT P CNOT`: `x_t ^= x_c`, `z_c ^= z_t`, with sign `−1` iff
/// `x_c z_t (x_t ⊕ z_c ⊕ 1)` (Aaronson–Gottesman).
fn cnot((x, z): Masks, c: usize, t: usize) -> (f64, Masks) {
    let (xc, zc, xt, zt) = (bit(x, c), bit(z, c), bit(x, t), bit(z, t));
    let sign = if xc & zt & (xt ^ zc ^ 1) == 1 {
        -1.0
    } else {
        1.0
    };
    (sign, (x ^ (xc << t), z ^ (zt << c)))
}

/// `(cos θ, sin θ)`, exact at whole multiples of π/2.
fn cos_sin(th: f64) -> (f64, f64) {
    let quarters = th / FRAC_PI_2;
    if quarters != quarters.round() {
        return (th.cos(), th.sin());
    }
    match (quarters as i64).rem_euclid(4) {
        0 => (1.0, 0.0),
        1 => (0.0, 1.0),
        2 => (-1.0, 0.0),
        _ => (0.0, -1.0),
    }
}

/// Bit `q` of mask `m`.
fn bit(m: u64, q: usize) -> u64 {
    (m >> q) & 1
}

/// Sorts by observable, then `(x, z)` mask; adds equal strings of one
/// observable in order and drops exact zeros, so every plan entry has
/// one canonical term order.
fn merge(terms: &mut Vec<Weighted>) {
    terms.sort_by_key(|&(b, p, _)| (b, p));
    let mut kept = 0;
    for i in 0..terms.len() {
        let (b, p, w) = terms[i];
        if kept > 0 && (terms[kept - 1].0, terms[kept - 1].1) == (b, p) {
            terms[kept - 1].2 += w;
        } else {
            terms[kept] = terms[i];
            kept += 1;
        }
    }
    terms.truncate(kept);
    terms.retain(|&(_, _, w)| w != 0.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ansatz::fig8_ansatz;
    use crate::encoding::column_encoding;
    use pauli::PauliString;
    use qsim::{Circuit, StateVector};

    fn point(n: usize, seed: usize) -> Vec<f64> {
        (0..4 * n)
            .map(|j| 0.3 + 0.37 * ((seed * 7 + j * 5) % 17) as f64)
            .collect()
    }

    /// Every gate variant, at angles that are not multiples of π/2.
    fn every_gate(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for q in 0..n {
            let r = (q + 1) % n;
            for g in [
                Gate::H(q),
                Gate::Rx(q, 0.3 + q as f64),
                Gate::X(q),
                Gate::Ry(r, -1.1),
                Gate::Y(q),
                Gate::Z(r),
                Gate::S(q),
                Gate::Cnot {
                    control: q,
                    target: r,
                },
                Gate::Sdg(r),
                Gate::T(q),
                Gate::Rz(q, 0.7),
                Gate::Tdg(r),
                Gate::Phase(q, -0.45),
                Gate::Cz(q, r),
                Gate::Swap(q, r),
            ] {
                c.push(g);
            }
        }
        c
    }

    #[test]
    fn conjugation_matches_the_state_vector_for_every_gate() {
        // One gate at a time, then the whole every-gate circuit: the
        // Heisenberg sum measured on a product state must equal the
        // Schrödinger expectation.
        let n = 3;
        let circuit = every_gate(n);
        let x = point(n, 2);
        let encoded = column_encoding(&x, n);
        let rho = StateVector::from_circuit(&encoded);
        let product_expect = |sum: &[Weighted]| -> f64 {
            sum.iter()
                .map(|&(_, (x, z), w)| w * rho.expectation(&PauliString::from_masks(n, x, z)))
                .sum()
        };
        for k in 1..=circuit.len() {
            let gates = &circuit.gates()[..k];
            let mut full = encoded.clone();
            for g in gates {
                full.push(*g);
            }
            let state = StateVector::from_circuit(&full);
            for o in pauli::local_paulis(n, 2) {
                let mut sum = vec![(0, (o.x_mask(), o.z_mask()), 1.0)];
                for g in gates.iter().rev() {
                    Op::new(g).conjugate(&mut sum);
                }
                let got = product_expect(&sum);
                let want = state.expectation(&o);
                assert!((got - want).abs() < 1e-12, "{o}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn shift_grid_angles_are_exact_cliffords() {
        assert_eq!(cos_sin(FRAC_PI_2), (0.0, 1.0));
        assert_eq!(cos_sin(-FRAC_PI_2), (0.0, -1.0));
        assert_eq!(cos_sin(2.0 * FRAC_PI_2), (-1.0, 0.0));
        assert_eq!(cos_sin(0.3), (0.3f64.cos(), 0.3f64.sin()));
        // Every Table III neuron is then one signed string.
        for s in [
            Strategy::hybrid(fig8_ansatz(4), 2, 1),
            Strategy::hybrid(fig8_ansatz(4), 1, 2),
            Strategy::observable_construction(4, 3),
        ] {
            let plan = TransferPlan::new(&s);
            assert_eq!(plan.num_features(), s.num_neurons());
            assert_eq!(plan.num_terms(), s.num_neurons());
        }
    }

    #[test]
    fn rank_counts_independent_features() {
        // Observable construction: every neuron is a distinct string.
        let obs = TransferPlan::new(&Strategy::observable_construction(4, 1));
        assert_eq!(obs.rank(), 13);
        // The hybrid shifts re-express 1-local observables through the
        // Clifford ansatz; duplicates and sign flips cannot add rank.
        let hybrid = TransferPlan::new(&Strategy::hybrid(fig8_ansatz(4), 1, 1));
        let r = hybrid.rank();
        assert!((13..=hybrid.num_features()).contains(&r), "rank {r}");
    }
}
