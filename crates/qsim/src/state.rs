//! State vectors and gate-application kernels.
//!
//! Layout: amplitude `amps[b]` is the coefficient of basis ket `|b⟩` where
//! bit `k` of `b` is the state of qubit `k` (qubit 0 is the least
//! significant bit).
//!
//! ## Parallelism
//!
//! Three kernel shapes, all switching to rayon above
//! [`PARALLEL_THRESHOLD`] amplitudes:
//!
//! * **diagonal** gates touch each amplitude once → `par_iter_mut`;
//! * **dense single-qubit** gates pair amplitudes `(i, i + 2^q)`. We walk
//!   blocks of `2^{q+1}` contiguous amplitudes; for low `q` there are many
//!   blocks (parallelise over blocks), for high `q` few blocks but long
//!   halves (split each block at its midpoint and zip the halves in
//!   parallel) — both shapes stay safe-Rust;
//! * **controlled** gates reuse the block walk with a per-index control-bit
//!   test.

use crate::circuit::Circuit;
use crate::compile::{CompiledCircuit, FusedOp, Mat2, Mat4};
use crate::gate::Gate;
use crate::C64;
use pauli::PauliString;
use rayon::prelude::*;

/// Tolerance below which a rotation angle counts as the identity and its
/// gate is skipped by [`StateVector::apply_circuit`]; matches the
/// transpile-time `Circuit::elide_identities` default.
const IDENTITY_TOL: f64 = 1e-12;

/// Amplitude count above which kernels use rayon. The vendored rayon runs
/// a **persistent** work-stealing pool, so dispatching a parallel call is
/// a handful of queue pushes plus a condvar wake (~1–3 µs total) instead
/// of the ~10–25 µs/worker scoped-spawn cost that used to force this up
/// to 2^16. A dense 2^13-amp kernel runs in ~15 µs single-thread
/// (~1.8 ns/amp), so fan-out starts paying for itself right around 2^13
/// amplitudes (128 KiB of doubles). Re-validated by `exp_scaling`'s
/// `thread_pool_speedup` and `gate_*_ns_per_amp` metrics, recorded in
/// `BENCH_scaling.json`.
pub const PARALLEL_THRESHOLD: usize = 1 << 13;

/// Fixed amplitude-chunk size for the fused multi-observable kernel: 2^11
/// doubles ≈ 32 KiB keeps a chunk L1-resident while every observable's
/// tight loop re-reads it. Chunk boundaries must not depend on the thread
/// count so partial sums combine in a deterministic order (bit-for-bit
/// reproducible results for any thread count).
const EXPECTATION_CHUNK: usize = 1 << 11;

/// A pure `n`-qubit state.
#[derive(Clone, Debug)]
pub struct StateVector {
    n: usize,
    amps: Vec<C64>,
}

impl StateVector {
    /// The all-zeros ket `|0…0⟩`.
    pub fn zero_state(n: usize) -> Self {
        assert!((1..=30).contains(&n), "state vector limited to 30 qubits");
        let mut amps = vec![C64::new(0.0, 0.0); 1usize << n];
        amps[0] = C64::new(1.0, 0.0);
        StateVector { n, amps }
    }

    /// Builds a state from raw amplitudes (must have power-of-two length and
    /// unit norm to `1e-8`).
    pub fn from_amplitudes(amps: Vec<C64>) -> Self {
        let len = amps.len();
        assert!(len.is_power_of_two() && len >= 2, "length must be 2^n");
        let n = len.trailing_zeros() as usize;
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        assert!(
            (norm - 1.0).abs() < 1e-8,
            "state not normalised: ‖ψ‖² = {norm}"
        );
        StateVector { n, amps }
    }

    /// Runs `circuit` on `|0…0⟩`.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let mut s = Self::zero_state(circuit.num_qubits());
        s.apply_circuit(circuit);
        s
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The raw amplitudes.
    #[inline]
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// `‖ψ‖²` (should stay 1 under unitary evolution; drift is a bug).
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Probability of observing basis state `b`.
    #[inline]
    pub fn probability(&self, b: u64) -> f64 {
        self.amps[b as usize].norm_sqr()
    }

    /// All `2^n` outcome probabilities.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Inner product `⟨self|other⟩`.
    pub fn inner(&self, other: &StateVector) -> C64 {
        assert_eq!(self.n, other.n, "qubit-count mismatch");
        if self.amps.len() >= PARALLEL_THRESHOLD {
            self.amps
                .par_iter()
                .zip(other.amps.par_iter())
                .map(|(a, b)| a.conj() * b)
                .sum()
        } else {
            self.amps
                .iter()
                .zip(other.amps.iter())
                .map(|(a, b)| a.conj() * b)
                .sum()
        }
    }

    /// Fidelity `|⟨self|other⟩|²` between two pure states — the quantity
    /// the hybrid strategy's pruning test measures (§IV.C, Eq. (25)).
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner(other).norm_sqr()
    }

    /// Applies a single gate in place.
    pub fn apply_gate(&mut self, g: &Gate) {
        match *g {
            Gate::Cnot { control, target } => self.apply_cnot(control, target),
            Gate::Cz(a, b) => self.apply_cz(a, b),
            Gate::Swap(a, b) => self.apply_swap(a, b),
            _ => {
                let q = g.qubits()[0];
                let m = g.matrix1().expect("single-qubit gate");
                if g.is_diagonal() {
                    self.apply_diagonal(q, m[0][0], m[1][1]);
                } else {
                    self.apply_single(q, m);
                }
            }
        }
    }

    /// Applies every gate of a circuit in order, skipping gates that are
    /// the identity to tolerance (zero-angle rotations from the paper's
    /// zero-initialised shift grids) — a full state pass saved per elided
    /// gate, even for circuits that never went through
    /// `Circuit::elide_identities`.
    pub fn apply_circuit(&mut self, c: &Circuit) {
        assert_eq!(c.num_qubits(), self.n, "qubit-count mismatch");
        for g in c.gates() {
            if g.is_identity(IDENTITY_TOL) {
                continue;
            }
            self.apply_gate(g);
        }
    }

    /// Executes a [`CompiledCircuit`]: the same state the source circuit
    /// produces, in far fewer amplitude sweeps (each fused run is one
    /// kernel pass). Produced by [`crate::compile::compile`].
    pub fn apply_compiled(&mut self, cc: &CompiledCircuit) {
        assert_eq!(cc.num_qubits(), self.n, "qubit-count mismatch");
        for op in cc.ops() {
            match op {
                FusedOp::Unary {
                    qubit,
                    matrix,
                    diagonal,
                } => {
                    if *diagonal {
                        self.apply_diagonal(*qubit, matrix[0][0], matrix[1][1]);
                    } else {
                        self.apply_single(*qubit, *matrix);
                    }
                }
                FusedOp::Binary {
                    low,
                    high,
                    matrix,
                    diagonal,
                } => {
                    if *diagonal {
                        self.apply_two_diagonal(
                            *low,
                            *high,
                            [matrix[0][0], matrix[1][1], matrix[2][2], matrix[3][3]],
                        );
                    } else {
                        self.apply_two(*low, *high, matrix);
                    }
                }
                FusedOp::Gate(g) => self.apply_gate(g),
            }
        }
    }

    /// Runs a compiled circuit on `|0…0⟩`.
    pub fn from_compiled(cc: &CompiledCircuit) -> Self {
        let mut s = Self::zero_state(cc.num_qubits());
        s.apply_compiled(cc);
        s
    }

    /// Applies an arbitrary dense 2×2 to qubit `q` — the entry point for
    /// externally fused single-qubit runs (e.g. `pvqnn`'s encoding plan).
    /// Bit-for-bit identical to the kernel `apply_compiled` uses for
    /// dense unary ops.
    pub fn apply_unary(&mut self, q: usize, m: &Mat2) {
        self.apply_single(q, *m);
    }

    /// Dense 2×2 kernel on qubit `q`.
    fn apply_single(&mut self, q: usize, m: [[C64; 2]; 2]) {
        assert!(q < self.n);
        let half = 1usize << q;
        let block = half << 1;
        let len = self.amps.len();
        let [[a, b], [c, d]] = m;

        let pair = move |lo: &mut C64, hi: &mut C64| {
            let (x, y) = (*lo, *hi);
            *lo = a * x + b * y;
            *hi = c * x + d * y;
        };

        if len < PARALLEL_THRESHOLD {
            for chunk in self.amps.chunks_mut(block) {
                let (lo, hi) = chunk.split_at_mut(half);
                for i in 0..half {
                    pair(&mut lo[i], &mut hi[i]);
                }
            }
        } else if len / block >= 2 * rayon::current_num_threads() {
            // Many blocks: parallelise across blocks.
            self.amps.par_chunks_mut(block).for_each(|chunk| {
                let (lo, hi) = chunk.split_at_mut(half);
                for i in 0..half {
                    pair(&mut lo[i], &mut hi[i]);
                }
            });
        } else {
            // Few long blocks (high q): parallelise inside each block.
            for chunk in self.amps.chunks_mut(block) {
                let (lo, hi) = chunk.split_at_mut(half);
                lo.par_iter_mut()
                    .zip(hi.par_iter_mut())
                    .for_each(|(l, h)| pair(l, h));
            }
        }
    }

    /// Diagonal kernel: multiplies amplitudes by `d0`/`d1` according to the
    /// bit of qubit `q`.
    fn apply_diagonal(&mut self, q: usize, d0: C64, d1: C64) {
        assert!(q < self.n);
        let bit = 1usize << q;
        let f = move |i: usize, amp: &mut C64| {
            *amp *= if i & bit == 0 { d0 } else { d1 };
        };
        if self.amps.len() < PARALLEL_THRESHOLD {
            for (i, amp) in self.amps.iter_mut().enumerate() {
                f(i, amp);
            }
        } else {
            self.amps
                .par_iter_mut()
                .enumerate()
                .for_each(|(i, amp)| f(i, amp));
        }
    }

    /// Dense 4×4 kernel on the qubit pair `low < high`. An amplitude's
    /// local basis index is `bit(low) + 2·bit(high)`; every quad of
    /// amplitudes sharing their other bits is mixed by `m` in one load.
    fn apply_two(&mut self, low: usize, high: usize, m: &Mat4) {
        assert!(low < high && high < self.n);
        let ma = 1usize << low;
        let mb = 1usize << high;
        let block = mb << 1;
        let len = self.amps.len();
        let mm = *m;
        // One pass over paired half-slices: `lo` holds a block's
        // high-bit-0 amplitudes, `hi` its high-bit-1 ones; within each,
        // indices with the low bit clear are the quad representatives.
        // Requires both slices to be equal-length, aligned multiples of
        // 2^{low+1}, so quads never straddle a slice boundary.
        let quads = move |lo: &mut [C64], hi: &mut [C64]| {
            let count = lo.len() >> 1;
            for k in 0..count {
                let j = ((k >> low) << (low + 1)) | (k & (ma - 1));
                let v0 = lo[j];
                let v1 = lo[j + ma];
                let v2 = hi[j];
                let v3 = hi[j + ma];
                lo[j] = mm[0][0] * v0 + mm[0][1] * v1 + mm[0][2] * v2 + mm[0][3] * v3;
                lo[j + ma] = mm[1][0] * v0 + mm[1][1] * v1 + mm[1][2] * v2 + mm[1][3] * v3;
                hi[j] = mm[2][0] * v0 + mm[2][1] * v1 + mm[2][2] * v2 + mm[2][3] * v3;
                hi[j + ma] = mm[3][0] * v0 + mm[3][1] * v1 + mm[3][2] * v2 + mm[3][3] * v3;
            }
        };
        if len < PARALLEL_THRESHOLD {
            for chunk in self.amps.chunks_mut(block) {
                let (lo, hi) = chunk.split_at_mut(mb);
                quads(lo, hi);
            }
        } else if len / block >= 2 * rayon::current_num_threads() {
            // Many blocks: parallelise across blocks.
            self.amps.par_chunks_mut(block).for_each(|chunk| {
                let (lo, hi) = chunk.split_at_mut(mb);
                quads(lo, hi);
            });
        } else {
            // Few long blocks (high `high`): split the halves into
            // aligned power-of-two sub-slices (multiples of 2^{low+1})
            // and zip them in parallel.
            let threads = rayon::current_num_threads().max(1);
            let sub = (mb / (4 * threads)).next_power_of_two().clamp(ma << 1, mb);
            for chunk in self.amps.chunks_mut(block) {
                let (lo, hi) = chunk.split_at_mut(mb);
                lo.par_chunks_mut(sub)
                    .zip(hi.par_chunks_mut(sub))
                    .for_each(|(l, h)| quads(l, h));
            }
        }
    }

    /// Diagonal 4×4 kernel: multiplies each amplitude by the entry its
    /// `(low, high)` bits select — one multiply per amplitude, the cheap
    /// path for fused runs of CZ/Rz-like pairs.
    fn apply_two_diagonal(&mut self, low: usize, high: usize, d: [C64; 4]) {
        assert!(low < high && high < self.n);
        let f = move |i: usize, amp: &mut C64| {
            let l = ((i >> low) & 1) | (((i >> high) & 1) << 1);
            *amp *= d[l];
        };
        if self.amps.len() < PARALLEL_THRESHOLD {
            for (i, amp) in self.amps.iter_mut().enumerate() {
                f(i, amp);
            }
        } else {
            self.amps
                .par_iter_mut()
                .enumerate()
                .for_each(|(i, amp)| f(i, amp));
        }
    }

    /// CNOT kernel: swaps `|…c=1…t=0…⟩ ↔ |…c=1…t=1…⟩`.
    fn apply_cnot(&mut self, control: usize, target: usize) {
        assert!(control < self.n && target < self.n && control != target);
        let cbit = 1usize << control;
        let half = 1usize << target;
        let block = half << 1;
        let work = |base: usize, chunk: &mut [C64]| {
            let (lo, hi) = chunk.split_at_mut(half);
            for i in 0..half {
                if (base + i) & cbit != 0 {
                    std::mem::swap(&mut lo[i], &mut hi[i]);
                }
            }
        };
        if self.amps.len() < PARALLEL_THRESHOLD {
            for (bi, chunk) in self.amps.chunks_mut(block).enumerate() {
                work(bi * block, chunk);
            }
        } else {
            self.amps
                .par_chunks_mut(block)
                .enumerate()
                .for_each(|(bi, chunk)| work(bi * block, chunk));
        }
    }

    /// CZ kernel: flips the sign of amplitudes where both bits are 1.
    fn apply_cz(&mut self, a: usize, b: usize) {
        assert!(a < self.n && b < self.n && a != b);
        let mask = (1usize << a) | (1usize << b);
        let f = move |i: usize, amp: &mut C64| {
            if i & mask == mask {
                *amp = -*amp;
            }
        };
        if self.amps.len() < PARALLEL_THRESHOLD {
            for (i, amp) in self.amps.iter_mut().enumerate() {
                f(i, amp);
            }
        } else {
            self.amps
                .par_iter_mut()
                .enumerate()
                .for_each(|(i, amp)| f(i, amp));
        }
    }

    /// SWAP kernel: exchanges amplitudes whose bits at `a` and `b` differ.
    fn apply_swap(&mut self, a: usize, b: usize) {
        assert!(a < self.n && b < self.n && a != b);
        let (lo_q, hi_q) = if a < b { (a, b) } else { (b, a) };
        let lo_bit = 1usize << lo_q;
        let hi_bit = 1usize << hi_q;
        // Pairs: i with (lo=1, hi=0) ↔ i ^ lo ^ hi. Walk blocks of the high
        // qubit so each pair lives in one block.
        let half = hi_bit;
        let block = half << 1;
        let work = |base: usize, chunk: &mut [C64]| {
            let (lo_half, hi_half) = chunk.split_at_mut(half);
            for i in 0..half {
                // Global index base+i has hi bit 0; partner flips both bits.
                if (base + i) & lo_bit != 0 {
                    std::mem::swap(&mut lo_half[i], &mut hi_half[i ^ lo_bit]);
                }
            }
        };
        if self.amps.len() < PARALLEL_THRESHOLD {
            for (bi, chunk) in self.amps.chunks_mut(block).enumerate() {
                work(bi * block, chunk);
            }
        } else {
            self.amps
                .par_chunks_mut(block)
                .enumerate()
                .for_each(|(bi, chunk)| work(bi * block, chunk));
        }
    }

    /// Exact expectation value `⟨ψ|P|ψ⟩` of a Pauli string.
    ///
    /// Uses the basis action `P|b⟩ = λ(b)|b ⊕ x⟩`:
    /// `⟨ψ|P|ψ⟩ = Σ_b conj(ψ[b⊕x]) λ(b) ψ[b]`, which is real for Hermitian
    /// `P`; the imaginary residue is asserted small in debug builds.
    pub fn expectation(&self, p: &PauliString) -> f64 {
        assert_eq!(p.num_qubits(), self.n, "qubit-count mismatch");
        let x = p.x_mask();
        let z = p.z_mask();
        let y_phase = pauli::PhaseI::from_power(p.y_count() as u32).to_c64();
        let term = move |b: usize, amps: &[C64]| -> C64 {
            let sign = if ((b as u64) & z).count_ones().is_multiple_of(2) {
                1.0
            } else {
                -1.0
            };
            amps[b ^ (x as usize)].conj() * amps[b] * sign
        };
        let total: C64 = if self.amps.len() >= PARALLEL_THRESHOLD {
            (0..self.amps.len())
                .into_par_iter()
                .map(|b| term(b, &self.amps))
                .sum()
        } else {
            (0..self.amps.len()).map(|b| term(b, &self.amps)).sum()
        };
        let val = y_phase * total;
        debug_assert!(
            val.im.abs() < 1e-9,
            "expectation of Hermitian observable has imaginary part {}",
            val.im
        );
        val.re
    }

    /// Exact expectations of **many** Pauli strings in one cache-friendly
    /// sweep over the amplitudes — the fused kernel behind Algorithm 1's
    /// per-state observable batches.
    ///
    /// Per string the basis action is precomputed once
    /// ([`pauli::BasisKernel`]); the sweep walks the amplitudes in
    /// cache-resident chunks and, within each chunk, runs one tight
    /// branch-free loop per string (loop-invariant masks in registers), so
    /// every string reads the chunk while it is still hot instead of
    /// streaming the whole state once per observable. Two structural facts
    /// cut the arithmetic further:
    ///
    /// * **diagonal** strings (`x = 0`) need only `±|ψ[b]|²` — pure real
    ///   arithmetic, no second amplitude load;
    /// * **off-diagonal** strings pair `b ↔ b ⊕ x` into complex-conjugate
    ///   contributions, so only the representative with the highest `x`
    ///   bit clear is visited (half the work) and only the real component
    ///   `2·Re(i^{#Y} · conj(ψ[b⊕x]) ψ[b] (−1)^{|b∧z|})` is accumulated.
    ///
    /// Amplitude chunking is fixed-size and combined in chunk order, so
    /// results are bit-for-bit identical for any thread count.
    pub fn expectation_many(&self, paulis: &[PauliString]) -> Vec<f64> {
        if paulis.is_empty() {
            return Vec::new();
        }
        struct Diag {
            z: usize,
            out: usize,
        }
        struct OffDiag {
            x: usize,
            z: usize,
            /// Highest set bit of `x`: `b` is the pair representative iff
            /// this bit is clear.
            high: usize,
            /// Which component of `t = conj(ψ[b⊕x])·ψ[b]` carries
            /// `Re(i^{#Y}·t)`: `Im(t)` when the `Y` count is odd, `Re(t)`
            /// when even.
            use_im: bool,
            /// Its sign (`Re, −Im, −Re, +Im` for `#Y ≡ 0, 1, 2, 3`).
            coef: f64,
            out: usize,
        }
        let m = paulis.len();
        let mut diags: Vec<Diag> = Vec::new();
        let mut offs: Vec<OffDiag> = Vec::new();
        for (k, p) in paulis.iter().enumerate() {
            assert_eq!(p.num_qubits(), self.n, "qubit-count mismatch");
            let kern = p.basis_kernel();
            if kern.x == 0 {
                diags.push(Diag {
                    z: kern.z as usize,
                    out: k,
                });
            } else {
                // Re(i^{#Y}·t) = Re, −Im, −Re, +Im of t for #Y ≡ 0..3.
                let (use_im, coef) = match kern.phase.power() {
                    0 => (false, 1.0),
                    1 => (true, -1.0),
                    2 => (false, -1.0),
                    _ => (true, 1.0),
                };
                offs.push(OffDiag {
                    x: kern.x as usize,
                    z: kern.z as usize,
                    high: 1usize << (63 - kern.x.leading_zeros()),
                    use_im,
                    coef,
                    out: k,
                });
            }
        }
        let amps = &self.amps;
        // ±1 from the Z-mask parity, branch-free.
        #[inline(always)]
        fn parity_sign(b: usize, z: usize) -> f64 {
            1.0 - 2.0 * ((b & z).count_ones() & 1) as f64
        }
        // Partial sums over amplitudes [lo, hi). `lo` is aligned to the
        // power-of-two length `hi - lo`, which the run decomposition below
        // relies on: over a run of indices sharing their upper bits the
        // Z-parity sign only depends on those upper bits, so it is hoisted
        // out and computed once per run — the inner loops are pure
        // floating-point (for 1-local strings, entirely popcount-free).
        let scan = |lo: usize, hi: usize| -> Vec<f64> {
            let clen = hi - lo;
            let mut acc = vec![0.0f64; m];
            // Norm sum of a contiguous slice (bounds-check-free), reduced
            // over four independent f64 lanes so the FP adds vectorize /
            // pipeline instead of serializing on one accumulator chain.
            // The lane tree is fixed (lanes combined in one order, then
            // the remainder), so the result does not depend on thread
            // count.
            let norms = |base: usize, len: usize| -> f64 {
                let mut l = [0.0f64; 4];
                let mut quads = amps[base..base + len].chunks_exact(4);
                for q in &mut quads {
                    l[0] += q[0].norm_sqr();
                    l[1] += q[1].norm_sqr();
                    l[2] += q[2].norm_sqr();
                    l[3] += q[3].norm_sqr();
                }
                let mut s = (l[0] + l[1]) + (l[2] + l[3]);
                for a in quads.remainder() {
                    s += a.norm_sqr();
                }
                s
            };
            for d in &diags {
                let mut s = 0.0;
                if d.z == 0 {
                    // Identity: plain norm sum.
                    s = norms(lo, clen);
                } else {
                    // Sign is constant over runs below the lowest Z bit and
                    // alternates between adjacent runs; parity over the
                    // remaining Z bits only changes with the run base.
                    let zl = d.z & d.z.wrapping_neg();
                    if zl >= clen {
                        s = parity_sign(lo, d.z) * norms(lo, clen);
                    } else {
                        let z_base = d.z & !(2 * zl - 1);
                        let mut base = lo;
                        while base < hi {
                            let sign = if z_base == 0 {
                                1.0
                            } else {
                                parity_sign(base, z_base)
                            };
                            s += sign * (norms(base, zl) - norms(base + zl, zl));
                            base += 2 * zl;
                        }
                    }
                }
                acc[d.out] = s;
            }
            for o in &offs {
                // Sum of the pair component (Re(t) or Im(t) of
                // t = conj(ψ[b⊕x])·ψ[b]) over one representative run:
                // `cur` holds the representatives, `par` their partners
                // (same run permuted by the low X bits `x_in`), and `z_in`
                // is the Z parity that still varies inside the run.
                let run_sum = |cur_base: usize, par_base: usize, len: usize| -> f64 {
                    let x_in = o.x & (len - 1);
                    let z_in = o.z & (len - 1);
                    let cur = &amps[cur_base..cur_base + len];
                    let par = &amps[par_base..par_base + len];
                    let mut run = 0.0;
                    if x_in == 0 && z_in == 0 {
                        // Common fast path (every ≤2-local string lands
                        // here): two parallel streams, no index math, and
                        // four independent f64 accumulator lanes so the
                        // FP reduction vectorizes (256-bit = 4×f64) and
                        // hides add latency. The lane tree is fixed —
                        // still deterministic for any thread count.
                        let mut l = [0.0f64; 4];
                        let mut cur4 = cur.chunks_exact(4);
                        let mut par4 = par.chunks_exact(4);
                        if o.use_im {
                            for (c, a) in (&mut cur4).zip(&mut par4) {
                                l[0] += a[0].re * c[0].im - a[0].im * c[0].re;
                                l[1] += a[1].re * c[1].im - a[1].im * c[1].re;
                                l[2] += a[2].re * c[2].im - a[2].im * c[2].re;
                                l[3] += a[3].re * c[3].im - a[3].im * c[3].re;
                            }
                            run = (l[0] + l[1]) + (l[2] + l[3]);
                            for (c, a) in cur4.remainder().iter().zip(par4.remainder()) {
                                run += a.re * c.im - a.im * c.re;
                            }
                        } else {
                            for (c, a) in (&mut cur4).zip(&mut par4) {
                                l[0] += a[0].re * c[0].re + a[0].im * c[0].im;
                                l[1] += a[1].re * c[1].re + a[1].im * c[1].im;
                                l[2] += a[2].re * c[2].re + a[2].im * c[2].im;
                                l[3] += a[3].re * c[3].re + a[3].im * c[3].im;
                            }
                            run = (l[0] + l[1]) + (l[2] + l[3]);
                            for (c, a) in cur4.remainder().iter().zip(par4.remainder()) {
                                run += a.re * c.re + a.im * c.im;
                            }
                        }
                    } else {
                        for (t, c) in cur.iter().enumerate() {
                            let a = par[t ^ x_in];
                            let v = if o.use_im {
                                a.re * c.im - a.im * c.re
                            } else {
                                a.re * c.re + a.im * c.im
                            };
                            run += if z_in == 0 {
                                v
                            } else {
                                parity_sign(t, z_in) * v
                            };
                        }
                    }
                    run
                };
                let mut s = 0.0;
                if o.high >= clen {
                    // The `high` bit is constant across this aligned chunk:
                    // either every index is a representative or none is.
                    // Partners live in the mirror chunk at `lo ^ x_out`.
                    if lo & o.high == 0 {
                        let x_out = o.x & !(clen - 1);
                        s = parity_sign(lo, o.z) * run_sum(lo, lo ^ x_out, clen);
                    }
                } else {
                    // Representatives come in runs of `high` (stride
                    // 2·high); the run's upper-bit sign is hoisted. Bits of
                    // Z at or below `high` never contribute to it.
                    let z_base = o.z & !(2 * o.high - 1);
                    let mut base = lo;
                    while base < hi {
                        let sign = if z_base == 0 {
                            1.0
                        } else {
                            parity_sign(base, z_base)
                        };
                        s += sign * run_sum(base, base + o.high, o.high);
                        base += 2 * o.high;
                    }
                }
                acc[o.out] = o.coef * s;
            }
            acc
        };
        let len = amps.len();
        let mut total: Vec<f64> = if len >= PARALLEL_THRESHOLD {
            let chunks = len / EXPECTATION_CHUNK;
            let partials: Vec<Vec<f64>> = (0..chunks)
                .into_par_iter()
                .map(|ci| scan(ci * EXPECTATION_CHUNK, (ci + 1) * EXPECTATION_CHUNK))
                .collect();
            let mut total = vec![0.0f64; m];
            for part in partials {
                for (t, v) in total.iter_mut().zip(part) {
                    *t += v;
                }
            }
            total
        } else {
            scan(0, len)
        };
        for o in &offs {
            total[o.out] *= 2.0;
        }
        total
    }
}

/// A batch of `n`-qubit states in amplitude-major structure-of-arrays
/// layout: `amps[b * batch + l]` is amplitude `b` of lane `l`, so all
/// lanes' copies of one basis amplitude sit contiguously.
///
/// Gate kernels pay the per-basis index math **once** and then sweep the
/// lane dimension in tight contiguous loops — the same 4×f64-lane shape
/// that makes `expectation_many` fast. Per lane, every kernel evaluates
/// the *textually identical* arithmetic expression the [`StateVector`]
/// kernels use, so `batched.lane(l)` is bit-for-bit equal to running the
/// same ops on a standalone state — the invariant the serving layer's
/// "micro-batching never changes a prediction" guarantee rests on.
#[derive(Clone, Debug)]
pub struct BatchedStateVector {
    n: usize,
    batch: usize,
    amps: Vec<C64>,
}

impl BatchedStateVector {
    /// `batch` copies of the all-zeros ket `|0…0⟩`.
    pub fn zero_states(n: usize, batch: usize) -> Self {
        assert!((1..=30).contains(&n), "state vector limited to 30 qubits");
        assert!(batch >= 1, "batch must be non-empty");
        let mut amps = vec![C64::new(0.0, 0.0); (1usize << n) * batch];
        for a in amps.iter_mut().take(batch) {
            *a = C64::new(1.0, 0.0);
        }
        BatchedStateVector { n, batch, amps }
    }

    /// Number of qubits per lane.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Number of lanes.
    #[inline]
    pub fn batch_size(&self) -> usize {
        self.batch
    }

    /// Gathers lane `l` into a standalone [`StateVector`].
    pub fn lane(&self, l: usize) -> StateVector {
        assert!(l < self.batch, "lane out of range");
        let w = self.batch;
        let amps: Vec<C64> = (0..1usize << self.n)
            .map(|b| self.amps[b * w + l])
            .collect();
        StateVector { n: self.n, amps }
    }

    /// Applies one gate to every lane.
    pub fn apply_gate(&mut self, g: &Gate) {
        match *g {
            Gate::Cnot { control, target } => self.apply_cnot(control, target),
            Gate::Cz(a, b) => self.apply_cz(a, b),
            Gate::Swap(a, b) => self.apply_swap(a, b),
            _ => {
                let q = g.qubits()[0];
                let m = g.matrix1().expect("single-qubit gate");
                if g.is_diagonal() {
                    self.apply_diagonal(q, m[0][0], m[1][1]);
                } else {
                    self.apply_single(q, m);
                }
            }
        }
    }

    /// Applies a circuit to every lane, skipping identity gates exactly
    /// like [`StateVector::apply_circuit`].
    pub fn apply_circuit(&mut self, c: &Circuit) {
        assert_eq!(c.num_qubits(), self.n, "qubit-count mismatch");
        for g in c.gates() {
            if g.is_identity(IDENTITY_TOL) {
                continue;
            }
            self.apply_gate(g);
        }
    }

    /// Executes a [`CompiledCircuit`] on every lane; each lane ends up
    /// bit-for-bit equal to [`StateVector::apply_compiled`] on that lane.
    pub fn apply_compiled(&mut self, cc: &CompiledCircuit) {
        assert_eq!(cc.num_qubits(), self.n, "qubit-count mismatch");
        for op in cc.ops() {
            match op {
                FusedOp::Unary {
                    qubit,
                    matrix,
                    diagonal,
                } => {
                    if *diagonal {
                        self.apply_diagonal(*qubit, matrix[0][0], matrix[1][1]);
                    } else {
                        self.apply_single(*qubit, *matrix);
                    }
                }
                FusedOp::Binary {
                    low,
                    high,
                    matrix,
                    diagonal,
                } => {
                    if *diagonal {
                        self.apply_two_diagonal(
                            *low,
                            *high,
                            [matrix[0][0], matrix[1][1], matrix[2][2], matrix[3][3]],
                        );
                    } else {
                        self.apply_two(*low, *high, matrix);
                    }
                }
                FusedOp::Gate(g) => self.apply_gate(g),
            }
        }
    }

    /// Applies a dense 2×2 to qubit `q` of every lane — the shared-matrix
    /// batch entry point mirroring [`StateVector::apply_unary`].
    pub fn apply_unary(&mut self, q: usize, m: &Mat2) {
        self.apply_single(q, *m);
    }

    /// Applies a **different** dense 2×2 to qubit `q` of each lane
    /// (`mats[l]` to lane `l`) — the kernel batched data encoding needs,
    /// since every data point rotates by its own angles. Per lane this is
    /// the same pair expression as [`StateVector::apply_unary`], so lanes
    /// stay bit-for-bit equal to standalone encodes.
    pub fn apply_unary_per_lane(&mut self, q: usize, mats: &[Mat2]) {
        assert!(q < self.n);
        assert_eq!(mats.len(), self.batch, "one matrix per lane");
        let w = self.batch;
        let half = 1usize << q;
        let block = half << 1;
        let work = |lo: &mut [C64], hi: &mut [C64]| {
            for i in 0..half {
                let lo_row = &mut lo[i * w..(i + 1) * w];
                let hi_start = i * w;
                for l in 0..w {
                    let [[a, b], [c, d]] = mats[l];
                    let lo_amp = &mut lo_row[l];
                    let hi_amp = &mut hi[hi_start + l];
                    let (x, y) = (*lo_amp, *hi_amp);
                    *lo_amp = a * x + b * y;
                    *hi_amp = c * x + d * y;
                }
            }
        };
        if self.amps.len() < PARALLEL_THRESHOLD
            || self.amps.len() / (block * w) < 2 * rayon::current_num_threads()
        {
            for chunk in self.amps.chunks_mut(block * w) {
                let (lo, hi) = chunk.split_at_mut(half * w);
                work(lo, hi);
            }
        } else {
            self.amps.par_chunks_mut(block * w).for_each(|chunk| {
                let (lo, hi) = chunk.split_at_mut(half * w);
                work(lo, hi);
            });
        }
    }

    /// Batched dense 2×2 kernel: same shape as [`StateVector`]'s, with the
    /// lane sweep as the innermost contiguous loop.
    fn apply_single(&mut self, q: usize, m: [[C64; 2]; 2]) {
        assert!(q < self.n);
        let w = self.batch;
        let half = 1usize << q;
        let block = half << 1;
        let len = self.amps.len();
        let [[a, b], [c, d]] = m;
        let pair = move |lo: &mut C64, hi: &mut C64| {
            let (x, y) = (*lo, *hi);
            *lo = a * x + b * y;
            *hi = c * x + d * y;
        };
        let rows = move |lo: &mut [C64], hi: &mut [C64]| {
            for (l, h) in lo.iter_mut().zip(hi.iter_mut()) {
                pair(l, h);
            }
        };
        if len < PARALLEL_THRESHOLD {
            for chunk in self.amps.chunks_mut(block * w) {
                let (lo, hi) = chunk.split_at_mut(half * w);
                rows(lo, hi);
            }
        } else if len / (block * w) >= 2 * rayon::current_num_threads() {
            // Many blocks: parallelise across blocks.
            self.amps.par_chunks_mut(block * w).for_each(|chunk| {
                let (lo, hi) = chunk.split_at_mut(half * w);
                rows(lo, hi);
            });
        } else {
            // Few long blocks (high q): parallelise across rows inside
            // each block — row slices are disjoint, so writes never race.
            for chunk in self.amps.chunks_mut(block * w) {
                let (lo, hi) = chunk.split_at_mut(half * w);
                lo.par_chunks_mut(w)
                    .zip(hi.par_chunks_mut(w))
                    .for_each(|(l, h)| rows(l, h));
            }
        }
    }

    /// Batched diagonal 2×2 kernel.
    fn apply_diagonal(&mut self, q: usize, d0: C64, d1: C64) {
        assert!(q < self.n);
        let w = self.batch;
        let bit = 1usize << q;
        let row = move |i: usize, amps: &mut [C64]| {
            for amp in amps {
                *amp *= if i & bit == 0 { d0 } else { d1 };
            }
        };
        if self.amps.len() < PARALLEL_THRESHOLD {
            for (i, amps) in self.amps.chunks_mut(w).enumerate() {
                row(i, amps);
            }
        } else {
            self.amps
                .par_chunks_mut(w)
                .enumerate()
                .for_each(|(i, amps)| row(i, amps));
        }
    }

    /// Batched dense 4×4 kernel on qubit pair `low < high`; per lane the
    /// quad mix is the same left-associated 4-term sums as
    /// [`StateVector`]'s `apply_two`.
    fn apply_two(&mut self, low: usize, high: usize, m: &Mat4) {
        assert!(low < high && high < self.n);
        let w = self.batch;
        let ma = 1usize << low;
        let mb = 1usize << high;
        let block = mb << 1;
        let len = self.amps.len();
        let mm = *m;
        // `lo`/`hi` are paired half-slices measured in rows of `w` lanes;
        // alignment to 2^{low+1} rows keeps quads inside one slice.
        let quads = move |lo: &mut [C64], hi: &mut [C64]| {
            let count = (lo.len() / w) >> 1;
            for k in 0..count {
                let j = ((k >> low) << (low + 1)) | (k & (ma - 1));
                let r0 = j * w;
                let r1 = (j + ma) * w;
                for l in 0..w {
                    let v0 = lo[r0 + l];
                    let v1 = lo[r1 + l];
                    let v2 = hi[r0 + l];
                    let v3 = hi[r1 + l];
                    lo[r0 + l] = mm[0][0] * v0 + mm[0][1] * v1 + mm[0][2] * v2 + mm[0][3] * v3;
                    lo[r1 + l] = mm[1][0] * v0 + mm[1][1] * v1 + mm[1][2] * v2 + mm[1][3] * v3;
                    hi[r0 + l] = mm[2][0] * v0 + mm[2][1] * v1 + mm[2][2] * v2 + mm[2][3] * v3;
                    hi[r1 + l] = mm[3][0] * v0 + mm[3][1] * v1 + mm[3][2] * v2 + mm[3][3] * v3;
                }
            }
        };
        if len < PARALLEL_THRESHOLD {
            for chunk in self.amps.chunks_mut(block * w) {
                let (lo, hi) = chunk.split_at_mut(mb * w);
                quads(lo, hi);
            }
        } else if len / (block * w) >= 2 * rayon::current_num_threads() {
            self.amps.par_chunks_mut(block * w).for_each(|chunk| {
                let (lo, hi) = chunk.split_at_mut(mb * w);
                quads(lo, hi);
            });
        } else {
            // Few long blocks: split the halves into aligned sub-slices
            // of `sub` rows (power of two ≥ 2^{low+1}) and zip them.
            let threads = rayon::current_num_threads().max(1);
            let sub = (mb / (4 * threads)).next_power_of_two().clamp(ma << 1, mb);
            for chunk in self.amps.chunks_mut(block * w) {
                let (lo, hi) = chunk.split_at_mut(mb * w);
                lo.par_chunks_mut(sub * w)
                    .zip(hi.par_chunks_mut(sub * w))
                    .for_each(|(l, h)| quads(l, h));
            }
        }
    }

    /// Batched diagonal 4×4 kernel.
    fn apply_two_diagonal(&mut self, low: usize, high: usize, d: [C64; 4]) {
        assert!(low < high && high < self.n);
        let w = self.batch;
        let row = move |i: usize, amps: &mut [C64]| {
            let l = ((i >> low) & 1) | (((i >> high) & 1) << 1);
            for amp in amps {
                *amp *= d[l];
            }
        };
        if self.amps.len() < PARALLEL_THRESHOLD {
            for (i, amps) in self.amps.chunks_mut(w).enumerate() {
                row(i, amps);
            }
        } else {
            self.amps
                .par_chunks_mut(w)
                .enumerate()
                .for_each(|(i, amps)| row(i, amps));
        }
    }

    /// Batched CNOT kernel: whole-row swaps (exact value moves, so lanes
    /// stay bit-identical to the standalone kernel).
    fn apply_cnot(&mut self, control: usize, target: usize) {
        assert!(control < self.n && target < self.n && control != target);
        let w = self.batch;
        let cbit = 1usize << control;
        let half = 1usize << target;
        let block = half << 1;
        let work = |base: usize, chunk: &mut [C64]| {
            let (lo, hi) = chunk.split_at_mut(half * w);
            for i in 0..half {
                if (base + i) & cbit != 0 {
                    lo[i * w..(i + 1) * w].swap_with_slice(&mut hi[i * w..(i + 1) * w]);
                }
            }
        };
        if self.amps.len() < PARALLEL_THRESHOLD {
            for (bi, chunk) in self.amps.chunks_mut(block * w).enumerate() {
                work(bi * block, chunk);
            }
        } else {
            self.amps
                .par_chunks_mut(block * w)
                .enumerate()
                .for_each(|(bi, chunk)| work(bi * block, chunk));
        }
    }

    /// Batched CZ kernel.
    fn apply_cz(&mut self, a: usize, b: usize) {
        assert!(a < self.n && b < self.n && a != b);
        let w = self.batch;
        let mask = (1usize << a) | (1usize << b);
        let row = move |i: usize, amps: &mut [C64]| {
            if i & mask == mask {
                for amp in amps {
                    *amp = -*amp;
                }
            }
        };
        if self.amps.len() < PARALLEL_THRESHOLD {
            for (i, amps) in self.amps.chunks_mut(w).enumerate() {
                row(i, amps);
            }
        } else {
            self.amps
                .par_chunks_mut(w)
                .enumerate()
                .for_each(|(i, amps)| row(i, amps));
        }
    }

    /// Batched SWAP kernel, mirroring [`StateVector`]'s block walk.
    fn apply_swap(&mut self, a: usize, b: usize) {
        assert!(a < self.n && b < self.n && a != b);
        let w = self.batch;
        let (lo_q, hi_q) = if a < b { (a, b) } else { (b, a) };
        let lo_bit = 1usize << lo_q;
        let half = 1usize << hi_q;
        let block = half << 1;
        let work = |base: usize, chunk: &mut [C64]| {
            let (lo_half, hi_half) = chunk.split_at_mut(half * w);
            for i in 0..half {
                if (base + i) & lo_bit != 0 {
                    let j = i ^ lo_bit;
                    lo_half[i * w..(i + 1) * w].swap_with_slice(&mut hi_half[j * w..(j + 1) * w]);
                }
            }
        };
        if self.amps.len() < PARALLEL_THRESHOLD {
            for (bi, chunk) in self.amps.chunks_mut(block * w).enumerate() {
                work(bi * block, chunk);
            }
        } else {
            self.amps
                .par_chunks_mut(block * w)
                .enumerate()
                .for_each(|(bi, chunk)| work(bi * block, chunk));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pauli::Pauli;

    const EPS: f64 = 1e-12;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-10
    }

    #[test]
    fn zero_state_probabilities() {
        let s = StateVector::zero_state(3);
        assert!(approx(s.probability(0), 1.0));
        assert!(approx(s.norm_sqr(), 1.0));
        assert_eq!(s.amplitudes().len(), 8);
    }

    #[test]
    fn hadamard_creates_uniform_superposition() {
        let mut c = Circuit::new(2);
        c.push(Gate::H(0));
        c.push(Gate::H(1));
        let s = StateVector::from_circuit(&c);
        for b in 0..4 {
            assert!(approx(s.probability(b), 0.25), "b={b}");
        }
    }

    #[test]
    fn x_flips_basis_state() {
        let mut c = Circuit::new(2);
        c.push(Gate::X(1));
        let s = StateVector::from_circuit(&c);
        assert!(approx(s.probability(0b10), 1.0));
    }

    #[test]
    fn bell_state() {
        let mut c = Circuit::new(2);
        c.push(Gate::H(0));
        c.push(Gate::Cnot {
            control: 0,
            target: 1,
        });
        let s = StateVector::from_circuit(&c);
        assert!(approx(s.probability(0b00), 0.5));
        assert!(approx(s.probability(0b11), 0.5));
        assert!(s.probability(0b01) < EPS && s.probability(0b10) < EPS);
        // ZZ expectation of a Bell state is +1, XX is +1, single Z is 0.
        assert!(approx(
            s.expectation(&PauliString::parse("ZZ").unwrap()),
            1.0
        ));
        assert!(approx(
            s.expectation(&PauliString::parse("XX").unwrap()),
            1.0
        ));
        assert!(approx(
            s.expectation(&PauliString::parse("ZI").unwrap()),
            0.0
        ));
        // YY of Φ+ is −1.
        assert!(approx(
            s.expectation(&PauliString::parse("YY").unwrap()),
            -1.0
        ));
    }

    #[test]
    fn rotation_expectations_analytic() {
        // Ry(θ)|0⟩: ⟨Z⟩ = cos θ, ⟨X⟩ = sin θ.
        for &th in &[0.0, 0.3, 1.2, -2.5, std::f64::consts::PI] {
            let mut c = Circuit::new(1);
            c.push(Gate::Ry(0, th));
            let s = StateVector::from_circuit(&c);
            assert!(
                approx(
                    s.expectation(&PauliString::single(1, 0, Pauli::Z)),
                    th.cos()
                ),
                "Z at θ={th}"
            );
            assert!(
                approx(
                    s.expectation(&PauliString::single(1, 0, Pauli::X)),
                    th.sin()
                ),
                "X at θ={th}"
            );
        }
        // Rx(θ)|0⟩: ⟨Z⟩ = cos θ, ⟨Y⟩ = −sin θ.
        for &th in &[0.4, -0.9] {
            let mut c = Circuit::new(1);
            c.push(Gate::Rx(0, th));
            let s = StateVector::from_circuit(&c);
            assert!(approx(
                s.expectation(&PauliString::single(1, 0, Pauli::Z)),
                th.cos()
            ));
            assert!(approx(
                s.expectation(&PauliString::single(1, 0, Pauli::Y)),
                -th.sin()
            ));
        }
    }

    #[test]
    fn cz_and_swap() {
        // CZ on |11⟩ flips sign.
        let mut c = Circuit::new(2);
        c.push(Gate::X(0));
        c.push(Gate::X(1));
        c.push(Gate::Cz(0, 1));
        let s = StateVector::from_circuit(&c);
        assert!((s.amplitudes()[3] + C64::new(1.0, 0.0)).norm() < 1e-10);
        // SWAP moves |01⟩ to |10⟩.
        let mut c = Circuit::new(2);
        c.push(Gate::X(0));
        c.push(Gate::Swap(0, 1));
        let s = StateVector::from_circuit(&c);
        assert!(approx(s.probability(0b10), 1.0));
    }

    #[test]
    fn swap_matches_three_cnots() {
        let mut prep = Circuit::new(3);
        prep.push(Gate::H(0));
        prep.push(Gate::Ry(1, 0.7));
        prep.push(Gate::Cnot {
            control: 0,
            target: 2,
        });

        let mut direct = prep.clone();
        direct.push(Gate::Swap(0, 2));
        let mut viacnot = prep.clone();
        for g in [
            Gate::Cnot {
                control: 0,
                target: 2,
            },
            Gate::Cnot {
                control: 2,
                target: 0,
            },
            Gate::Cnot {
                control: 0,
                target: 2,
            },
        ] {
            viacnot.push(g);
        }
        let a = StateVector::from_circuit(&direct);
        let b = StateVector::from_circuit(&viacnot);
        assert!(approx(a.fidelity(&b), 1.0));
    }

    #[test]
    fn unitarity_preserves_norm() {
        let mut c = Circuit::new(4);
        for q in 0..4 {
            c.push(Gate::H(q));
            c.push(Gate::Rz(q, 0.3 * (q as f64 + 1.0)));
            c.push(Gate::Rx(q, -0.8 + 0.2 * q as f64));
        }
        for q in 0..3 {
            c.push(Gate::Cnot {
                control: q,
                target: q + 1,
            });
        }
        let s = StateVector::from_circuit(&c);
        assert!(approx(s.norm_sqr(), 1.0));
    }

    #[test]
    fn dagger_inverts_circuit() {
        let mut c = Circuit::new(3);
        c.push(Gate::H(0));
        c.push(Gate::Ry(1, 0.9));
        c.push(Gate::Cnot {
            control: 0,
            target: 2,
        });
        c.push(Gate::S(2));
        let mut full = c.clone();
        full.extend(&c.dagger());
        let s = StateVector::from_circuit(&full);
        assert!(approx(s.probability(0), 1.0));
    }

    #[test]
    fn expectation_identity_is_one() {
        let mut c = Circuit::new(3);
        c.push(Gate::H(0));
        c.push(Gate::Cnot {
            control: 0,
            target: 1,
        });
        let s = StateVector::from_circuit(&c);
        assert!(approx(s.expectation(&PauliString::identity(3)), 1.0));
    }

    #[test]
    fn parallel_kernels_match_serial_on_large_state() {
        // 17 qubits crosses PARALLEL_THRESHOLD (2^16 amplitudes); apply a
        // layered circuit on a large register and verify norm, then undo it
        // and verify return to |0⟩.
        let n = 17;
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.push(Gate::H(q));
        }
        c.push(Gate::Ry(7, 1.1));
        for q in 0..n - 1 {
            c.push(Gate::Cnot {
                control: q,
                target: q + 1,
            });
        }
        c.push(Gate::Cz(0, n - 1));
        c.push(Gate::Swap(2, n - 2));
        let s = StateVector::from_circuit(&c);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-9);
        // Undo everything: fidelity with |0⟩ must return to 1.
        let mut full = c.clone();
        full.extend(&c.dagger());
        let s2 = StateVector::from_circuit(&full);
        assert!((s2.probability(0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn expectation_many_matches_per_term() {
        // Entangled 5-qubit state; a family mixing diagonal (I/Z-only),
        // X-type, and Y-bearing strings.
        let mut c = Circuit::new(5);
        for q in 0..5 {
            c.push(Gate::H(q));
            c.push(Gate::Rz(q, 0.31 * (q as f64 + 1.0)));
            c.push(Gate::Ry(q, -0.47 + 0.2 * q as f64));
        }
        for q in 0..4 {
            c.push(Gate::Cnot {
                control: q,
                target: q + 1,
            });
        }
        let s = StateVector::from_circuit(&c);
        let fam: Vec<PauliString> = [
            "IIIII", "ZIIII", "IIZIZ", "ZZZZZ", "XIIII", "IXXII", "YIIII", "IYZIX", "YYIIZ",
            "XYZXY",
        ]
        .iter()
        .map(|t| PauliString::parse(t).unwrap())
        .collect();
        let fused = s.expectation_many(&fam);
        assert_eq!(fused.len(), fam.len());
        for (p, &v) in fam.iter().zip(fused.iter()) {
            assert!(
                (v - s.expectation(p)).abs() < 1e-12,
                "{p}: fused {v} vs per-term {}",
                s.expectation(p)
            );
        }
    }

    #[test]
    fn expectation_many_above_parallel_threshold() {
        // 17 qubits exercises the chunked parallel path of the fused kernel.
        let n = 17;
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.push(Gate::Ry(q, 0.1 + 0.05 * q as f64));
        }
        for q in 0..n - 1 {
            c.push(Gate::Cnot {
                control: q,
                target: q + 1,
            });
        }
        let s = StateVector::from_circuit(&c);
        let fam = vec![
            PauliString::single(n, 0, Pauli::Z),
            PauliString::single(n, n - 1, Pauli::X),
            PauliString::single(n, 7, Pauli::Y),
            PauliString::identity(n),
        ];
        let fused = s.expectation_many(&fam);
        for (p, &v) in fam.iter().zip(fused.iter()) {
            assert!((v - s.expectation(p)).abs() < 1e-10, "{p}");
        }
    }

    #[test]
    fn expectation_many_empty_is_empty() {
        let s = StateVector::zero_state(2);
        assert!(s.expectation_many(&[]).is_empty());
    }

    #[test]
    fn apply_circuit_skips_identity_gates() {
        // A circuit containing exact-zero rotations must act exactly like
        // its elided counterpart.
        let mut c = Circuit::new(3);
        c.push(Gate::H(0));
        c.push(Gate::Rx(1, 0.0));
        c.push(Gate::Ry(2, 0.8));
        c.push(Gate::Rz(0, 0.0));
        c.push(Gate::Cnot {
            control: 0,
            target: 1,
        });
        let full = StateVector::from_circuit(&c);
        let elided = StateVector::from_circuit(&c.elide_identities(1e-12));
        for (a, b) in full.amplitudes().iter().zip(elided.amplitudes()) {
            assert!((a - b).norm() < 1e-15);
        }
    }

    #[test]
    fn from_amplitudes_validates() {
        let amps = vec![
            C64::new(std::f64::consts::FRAC_1_SQRT_2, 0.0),
            C64::new(0.0, std::f64::consts::FRAC_1_SQRT_2),
        ];
        let s = StateVector::from_amplitudes(amps);
        assert_eq!(s.num_qubits(), 1);
    }

    #[test]
    #[should_panic]
    fn from_amplitudes_rejects_unnormalised() {
        let _ = StateVector::from_amplitudes(vec![C64::new(1.0, 0.0), C64::new(1.0, 0.0)]);
    }

    #[test]
    fn inner_product_orthogonal_states() {
        let zero = StateVector::zero_state(2);
        let mut c = Circuit::new(2);
        c.push(Gate::X(0));
        let one = StateVector::from_circuit(&c);
        assert!(zero.inner(&one).norm() < EPS);
        assert!(approx(zero.fidelity(&zero), 1.0));
    }

    /// A circuit exercising every gate kind the kernels dispatch on:
    /// dense/diagonal 1q runs, CNOT both ways, CZ, SWAP, interleaving.
    fn kitchen_sink_circuit(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.push(Gate::H(q));
            c.push(Gate::Rz(q, 0.21 * (q as f64 + 1.0)));
            c.push(Gate::Ry(q, -0.45 + 0.17 * q as f64));
        }
        for q in 0..n - 1 {
            c.push(Gate::Cnot {
                control: q,
                target: q + 1,
            });
        }
        c.push(Gate::Cnot {
            control: n - 1,
            target: 0,
        });
        c.push(Gate::Cz(0, n - 1));
        c.push(Gate::Swap(1, n - 1));
        c.push(Gate::S(0));
        c.push(Gate::T(1));
        c.push(Gate::Rx(2 % n, 0.83));
        c.push(Gate::Phase(0, 0.37));
        c
    }

    #[test]
    fn apply_compiled_matches_apply_circuit() {
        let c = kitchen_sink_circuit(5);
        let direct = StateVector::from_circuit(&c);
        let compiled = StateVector::from_compiled(&crate::compile::compile(&c));
        for (a, b) in direct.amplitudes().iter().zip(compiled.amplitudes()) {
            assert!((a - b).norm() < 1e-12);
        }
    }

    #[test]
    fn apply_two_matches_gate_sequence_on_every_pair() {
        // Force dense 4×4 ops by fusing CNOT·CZ on each pair and compare
        // against the unfused sequence, for every (low, high) placement.
        let n = 4;
        for low in 0..n {
            for high in (low + 1)..n {
                let mut c = Circuit::new(n);
                for q in 0..n {
                    c.push(Gate::Ry(q, 0.3 + 0.2 * q as f64));
                }
                c.push(Gate::Cnot {
                    control: low,
                    target: high,
                });
                c.push(Gate::Cz(low, high));
                let direct = StateVector::from_circuit(&c);
                let cc = crate::compile::compile(&c);
                assert!(
                    cc.ops().iter().any(|op| matches!(
                        op,
                        FusedOp::Binary {
                            diagonal: false,
                            ..
                        }
                    )),
                    "({low},{high}): expected a dense fused pair op"
                );
                let compiled = StateVector::from_compiled(&cc);
                for (a, b) in direct.amplitudes().iter().zip(compiled.amplitudes()) {
                    assert!((a - b).norm() < 1e-12, "pair ({low},{high})");
                }
            }
        }
    }

    #[test]
    fn apply_two_parallel_paths_bit_identical() {
        // 17 qubits crosses PARALLEL_THRESHOLD. Pairs (0,1) take the
        // many-blocks branch; (15,16) takes the inner-split branch.
        let n = 17;
        for &(low, high) in &[(0usize, 1usize), (0, 16), (15, 16)] {
            let mut c = Circuit::new(n);
            for q in 0..n {
                c.push(Gate::H(q));
            }
            c.push(Gate::Cnot {
                control: low,
                target: high,
            });
            c.push(Gate::Cz(low, high));
            let cc = crate::compile::compile(&c);
            let s1 = rayon::with_num_threads(1, || StateVector::from_compiled(&cc));
            let s4 = rayon::with_num_threads(4, || StateVector::from_compiled(&cc));
            for (a, b) in s1.amplitudes().iter().zip(s4.amplitudes()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "pair ({low},{high})");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "pair ({low},{high})");
            }
            let direct = StateVector::from_circuit(&c);
            for (a, b) in direct.amplitudes().iter().zip(s1.amplitudes()) {
                assert!((a - b).norm() < 1e-12, "pair ({low},{high})");
            }
        }
    }

    #[test]
    fn batched_lanes_bit_identical_to_standalone() {
        // Apply the kitchen-sink circuit (covering every kernel kind) to a
        // 3-lane batch and to three standalone states; lanes must agree
        // bit-for-bit, both via apply_circuit and via apply_compiled.
        let n = 5;
        let c = kitchen_sink_circuit(n);
        let cc = crate::compile::compile(&c);
        let mut batch = BatchedStateVector::zero_states(n, 3);
        batch.apply_circuit(&c);
        let solo = StateVector::from_circuit(&c);
        for l in 0..3 {
            let lane = batch.lane(l);
            for (a, b) in lane.amplitudes().iter().zip(solo.amplitudes()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "lane {l}");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "lane {l}");
            }
        }
        let mut batch_cc = BatchedStateVector::zero_states(n, 3);
        batch_cc.apply_compiled(&cc);
        let solo_cc = StateVector::from_compiled(&cc);
        for l in 0..3 {
            let lane = batch_cc.lane(l);
            for (a, b) in lane.amplitudes().iter().zip(solo_cc.amplitudes()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "lane {l}");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "lane {l}");
            }
        }
    }

    #[test]
    fn batched_per_lane_unary_matches_standalone() {
        // Each lane gets its own rotation angles; lanes must equal the
        // standalone states built with the same per-qubit matrices.
        let n = 3;
        let batch = 4;
        let angles: Vec<f64> = (0..batch).map(|l| 0.1 + 0.7 * l as f64).collect();
        let mut b = BatchedStateVector::zero_states(n, batch);
        for q in 0..n {
            let mats: Vec<Mat2> = angles
                .iter()
                .map(|&th| {
                    Gate::Ry(q, th + q as f64 * 0.05)
                        .matrix1()
                        .expect("1q gate")
                })
                .collect();
            b.apply_unary_per_lane(q, &mats);
        }
        for (l, &th) in angles.iter().enumerate() {
            let mut s = StateVector::zero_state(n);
            for q in 0..n {
                let m = Gate::Ry(q, th + q as f64 * 0.05).matrix1().unwrap();
                s.apply_unary(q, &m);
            }
            let lane = b.lane(l);
            for (a, x) in lane.amplitudes().iter().zip(s.amplitudes()) {
                assert_eq!(a.re.to_bits(), x.re.to_bits(), "lane {l}");
                assert_eq!(a.im.to_bits(), x.im.to_bits(), "lane {l}");
            }
        }
    }

    #[test]
    fn batched_parallel_paths_bit_identical_across_thread_counts() {
        // 13 qubits × 16 lanes = 2^17 amplitudes — well past the parallel
        // threshold; every kernel branch must agree across thread counts.
        let n = 13;
        let c = kitchen_sink_circuit(n);
        let cc = crate::compile::compile(&c);
        let b1 = rayon::with_num_threads(1, || {
            let mut b = BatchedStateVector::zero_states(n, 16);
            b.apply_compiled(&cc);
            b
        });
        let b4 = rayon::with_num_threads(4, || {
            let mut b = BatchedStateVector::zero_states(n, 16);
            b.apply_compiled(&cc);
            b
        });
        for l in (0..16).step_by(5) {
            let x = b1.lane(l);
            let y = b4.lane(l);
            for (a, b) in x.amplitudes().iter().zip(y.amplitudes()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
        // And lanes still equal the standalone compiled state.
        let solo = StateVector::from_compiled(&cc);
        let lane = b1.lane(7);
        for (a, b) in lane.amplitudes().iter().zip(solo.amplitudes()) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    #[test]
    fn batched_single_lane_matches_standalone() {
        let c = kitchen_sink_circuit(4);
        let mut b = BatchedStateVector::zero_states(4, 1);
        b.apply_circuit(&c);
        let s = StateVector::from_circuit(&c);
        let lane = b.lane(0);
        for (a, x) in lane.amplitudes().iter().zip(s.amplitudes()) {
            assert_eq!(a.re.to_bits(), x.re.to_bits());
            assert_eq!(a.im.to_bits(), x.im.to_bits());
        }
    }
}
