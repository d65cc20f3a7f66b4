//! Post-variational feature generation (paper Algorithm 1).
//!
//! For every data point `x_i` and every neuron `(θ_a, O_b)` the generator
//! evaluates `Q[i, a·q+b] = ⟨0ⁿ| S†(x_i) U†(θ_a) O_b U(θ_a) S(x_i) |0ⁿ⟩`,
//! where `S` is the Fig. 7 column encoding and `U` the strategy's ansatz.
//!
//! Three measurement backends mirror the paper's error analysis:
//! * [`FeatureBackend::Exact`] — noiseless expectations (infinite shots),
//! * [`FeatureBackend::Shots`] — independent sample-mean estimation per
//!   neuron (Proposition 1's estimator),
//! * [`FeatureBackend::Shadows`] — classical shadows shared across all
//!   observables of one prepared state (Proposition 2's estimator).
//!
//! **Exact rows are computed in the Heisenberg picture.** A
//! [`TransferPlan`] built once per generator holds every neuron's
//! `U_a† O_b U_a` as a sparse sum of Pauli strings; since the Fig. 7
//! encoding prepares a product state, a row is that fixed sparse map
//! applied to the per-qubit Bloch vectors of `S(x)|0ⁿ⟩` — no state vector
//! at all. [`generate`](FeatureGenerator::generate),
//! [`generate_one`](FeatureGenerator::generate_one) and
//! [`generate_rows_standalone`](FeatureGenerator::generate_rows_standalone)
//! all call the one row kernel `TransferPlan::row_into`, so their rows
//! agree bit for bit at any thread count. The result equals the
//! state-vector expectation to 1e-12.
//!
//! The stochastic backends sample prepared states, so they keep the
//! state-vector path (as does the `hpcq` device pool, which runs whole
//! [`circuit_for`](FeatureGenerator::circuit_for) circuits):
//!
//! * the Fig. 7 encoding is executed through a fused
//!   [`EncodingPlan`] — one dense 2×2 sweep per qubit instead of one per
//!   gate — and whole blocks of data points encode together in an
//!   amplitude-major [`qsim::BatchedStateVector`] (see [`ENCODE_BLOCK`]);
//! * the per-shift ansatz tails are bound, identity-elided, and
//!   **gate-fused** once per generator ([`qsim::compile()`]) and cached, so
//!   every row replays compact [`CompiledCircuit`]s;
//! * all shifts of one row are sampled **in a single pass** — one RNG per
//!   row (instead of one per `(row, shift)` pair) and, for `Shots`, one
//!   measurement rotation + CDF sampler per qubit-wise-commuting
//!   observable group (`qsim::estimate_paulis_batched`), so sampler setup
//!   is amortized across the shifts while every neuron still draws its
//!   own independent shots (Proposition 1's estimator).
//!
//! Batched and per-point stochastic rows are **bit-for-bit identical**:
//! the batch kernels evaluate the same arithmetic per lane, and each
//! lane's RNG is seeded and consumed exactly as the standalone row would
//! seed and consume it. The serving layer's "micro-batching never changes
//! a prediction" guarantee is built on this.

use crate::encoding::{column_encoding, EncodingPlan};
use crate::strategy::Strategy;
use crate::transfer::TransferPlan;
use linalg::Mat;
use qsim::{estimate_paulis_batched, Circuit, CompiledCircuit, StateVector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use shadows::{ShadowEstimator, ShadowProtocol};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Rows encoded together per batched simulation block of the stochastic
/// backends: enough lanes to fill wide SIMD sweeps and amortize per-basis
/// index math, small enough that a block of states stays cache-resident
/// and chunk-level rayon parallelism still has work to steal.
pub const ENCODE_BLOCK: usize = 32;

/// How neuron expectations are estimated.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FeatureBackend {
    /// Noiseless expectation values, computed through the generator's
    /// Pauli-transfer plan (see the module docs).
    Exact,
    /// Independent finite-shot sample means, `shots` per neuron
    /// (Proposition 1), drawn in one batched pass per row (rotations and
    /// CDF samplers shared, shots not). Deterministic given `seed`.
    Shots {
        /// Measurement shots per (data point, neuron).
        shots: usize,
        /// Base RNG seed.
        seed: u64,
    },
    /// Classical shadows: `snapshots` random-basis measurements per
    /// prepared state, shared by all observables of that state
    /// (Proposition 2), estimated with `groups`-fold median-of-means.
    Shadows {
        /// Snapshots per (data point, ansatz) state.
        snapshots: usize,
        /// Median-of-means groups.
        groups: usize,
        /// Base RNG seed.
        seed: u64,
    },
}

/// Generates feature matrices from raw `[0, 2π)` feature rows.
#[derive(Clone)]
pub struct FeatureGenerator {
    strategy: Strategy,
    backend: FeatureBackend,
    /// Stochastic backends: per-shift ansatz tails, bound + gate-fused
    /// once on first use (`None` for shifts whose tail elides/fuses away
    /// entirely).
    compiled_shifts: OnceLock<Arc<Vec<Option<CompiledCircuit>>>>,
    /// Exact backend: the Pauli-transfer plan, built once on first use.
    transfer: OnceLock<Arc<TransferPlan>>,
    /// Cached [`Self::fingerprint`].
    fingerprint: OnceLock<u64>,
}

/// Caches are deliberately excluded: the serving layer fingerprints a
/// generator by hashing this representation, so it must spell out exactly
/// the semantic fields (strategy and backend, shots/seeds included) and
/// nothing derived from them.
impl fmt::Debug for FeatureGenerator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FeatureGenerator")
            .field("strategy", &self.strategy)
            .field("backend", &self.backend)
            .finish()
    }
}

/// Derives a stream-independent seed for data row `i`. One RNG serves the
/// whole row — consumed in fixed shift-then-observable order, so results
/// stay deterministic for any thread count — instead of re-seeding per
/// `(row, shift)` pair.
fn derive_row_seed(base: u64, i: usize) -> u64 {
    base ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x1656_67B1_9E37_79F9
}

impl FeatureGenerator {
    /// Couples a strategy with a measurement backend.
    pub fn new(strategy: Strategy, backend: FeatureBackend) -> Self {
        FeatureGenerator {
            strategy,
            backend,
            compiled_shifts: OnceLock::new(),
            transfer: OnceLock::new(),
            fingerprint: OnceLock::new(),
        }
    }

    /// A stable fingerprint of the semantic configuration: equal
    /// generators (same strategy, shifts, observables, backend — shot
    /// counts and seeds included) hash equal. Cached feature rows are
    /// valid only for the generator that produced them, so the serving
    /// layer segments its cache by this value. Built from the `Debug`
    /// representation, which spells out every semantic component and
    /// none of the derived caches.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            use std::hash::{Hash, Hasher};
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            format!("{self:?}").hash(&mut hasher);
            hasher.finish()
        })
    }

    /// The underlying strategy.
    pub fn strategy(&self) -> &Strategy {
        &self.strategy
    }

    /// The measurement backend.
    pub fn backend(&self) -> FeatureBackend {
        self.backend
    }

    /// The full circuit for (features `x`, shift index `a`): encoding plus
    /// the bound (and identity-elided) ansatz.
    pub fn circuit_for(&self, x: &[f64], shift_idx: usize) -> Circuit {
        let n = self.strategy.num_qubits();
        let mut c = column_encoding(x, n);
        if let Some(ansatz) = self.strategy.ansatz() {
            c.extend(&ansatz.bind_optimized(&self.strategy.shifts()[shift_idx]));
        }
        c
    }

    /// The exact backend's Pauli-transfer plan, built **once per
    /// generator** and shared by every row ever fed through it (and by
    /// its clones).
    fn transfer(&self) -> Option<&TransferPlan> {
        matches!(self.backend, FeatureBackend::Exact).then(|| {
            &**self
                .transfer
                .get_or_init(|| Arc::new(TransferPlan::new(&self.strategy)))
        })
    }

    /// The per-shift ansatz circuits of the stochastic backends, bound,
    /// identity-elided, and gate-fused **once per generator** — they are
    /// shared by every data point ever fed through this generator, so the
    /// one-time [`qsim::compile`] pass amortizes across the whole
    /// workload. Shifts whose tail compiles to nothing (e.g. the
    /// all-zeros base shift) are `None`: the encoding state is measured
    /// directly.
    fn compiled_shifts(&self) -> Arc<Vec<Option<CompiledCircuit>>> {
        Arc::clone(self.compiled_shifts.get_or_init(|| {
            Arc::new(match self.strategy.ansatz() {
                Some(ansatz) => self
                    .strategy
                    .shifts()
                    .iter()
                    .map(|s| {
                        let cc = qsim::compile(&ansatz.bind_optimized(s));
                        if cc.is_empty() {
                            None
                        } else {
                            Some(cc)
                        }
                    })
                    .collect(),
                None => vec![None; self.strategy.num_ansatze()],
            })
        }))
    }

    /// The base seed of a stochastic backend.
    fn seed(&self) -> u64 {
        match self.backend {
            FeatureBackend::Shots { seed, .. } | FeatureBackend::Shadows { seed, .. } => seed,
            FeatureBackend::Exact => unreachable!("exact rows go through the transfer plan"),
        }
    }

    /// One stochastic feature row: the encoding state `S(x)|0⟩` is built
    /// **once** through the fused [`EncodingPlan`] and then
    /// cloned-and-extended per compiled ansatz shift, and all shifts are
    /// sampled in one pass through a single row-level RNG.
    fn row_for(&self, i: usize, x: &[f64], shifts: &[Option<CompiledCircuit>]) -> Vec<f64> {
        let m = self.strategy.num_neurons();
        let q = self.strategy.num_observables();
        let n = self.strategy.num_qubits();
        let mut row = vec![0.0; m];
        let encoded = EncodingPlan::new(x.len(), n).encode_one(x);
        let mut rng = StdRng::seed_from_u64(derive_row_seed(self.seed(), i));
        for (a, shifted) in shifts.iter().enumerate() {
            let out = &mut row[a * q..(a + 1) * q];
            match shifted {
                Some(cc) => {
                    let mut state = encoded.clone();
                    state.apply_compiled(cc);
                    self.fill_observables(&state, &mut rng, out);
                }
                // No ansatz (observable construction) or a fully-fused-
                // away shift (the all-zeros base circuit): measure S(x)|0⟩.
                None => self.fill_observables(&encoded, &mut rng, out),
            }
        }
        row
    }

    /// Stochastic feature rows for a block of points that share one
    /// feature length: the whole block encodes in one amplitude-major
    /// [`qsim::BatchedStateVector`] pass, each compiled shift applies to
    /// all lanes at once, and lane `l` is measured with its own RNG seeded
    /// by `indices[l]` and consumed in ascending shift order — exactly the
    /// seeding and consumption order [`Self::row_for`] uses, so each row
    /// is bit-for-bit what the per-point path would have produced.
    fn rows_for_block(
        &self,
        indices: &[usize],
        xs: &[&[f64]],
        shifts: &[Option<CompiledCircuit>],
    ) -> Vec<Vec<f64>> {
        debug_assert_eq!(indices.len(), xs.len());
        let m = self.strategy.num_neurons();
        let q = self.strategy.num_observables();
        let n = self.strategy.num_qubits();
        let encoded = EncodingPlan::new(xs[0].len(), n).encode_batch(xs);
        let mut rngs: Vec<StdRng> = indices
            .iter()
            .map(|&i| StdRng::seed_from_u64(derive_row_seed(self.seed(), i)))
            .collect();
        let mut rows = vec![vec![0.0; m]; xs.len()];
        for (a, shifted) in shifts.iter().enumerate() {
            match shifted {
                Some(cc) => {
                    let mut batch = encoded.clone();
                    batch.apply_compiled(cc);
                    for (l, row) in rows.iter_mut().enumerate() {
                        self.fill_observables(
                            &batch.lane(l),
                            &mut rngs[l],
                            &mut row[a * q..(a + 1) * q],
                        );
                    }
                }
                None => {
                    for (l, row) in rows.iter_mut().enumerate() {
                        self.fill_observables(
                            &encoded.lane(l),
                            &mut rngs[l],
                            &mut row[a * q..(a + 1) * q],
                        );
                    }
                }
            }
        }
        rows
    }

    /// Splits a chunk into consecutive runs of equal feature length (a
    /// [`rows_for_block`](Self::rows_for_block) needs one shared encoding
    /// shape) and concatenates the runs' rows in order.
    fn rows_for_chunk(
        &self,
        indices: &[usize],
        xs: &[&[f64]],
        shifts: &[Option<CompiledCircuit>],
    ) -> Vec<Vec<f64>> {
        let mut out = Vec::with_capacity(xs.len());
        let mut start = 0;
        while start < xs.len() {
            let mut end = start + 1;
            while end < xs.len() && xs[end].len() == xs[start].len() {
                end += 1;
            }
            out.extend(self.rows_for_block(&indices[start..end], &xs[start..end], shifts));
            start = end;
        }
        out
    }

    /// Generates the `d × m` feature matrix `Q` for the given data rows
    /// (each row is a `[0, 2π)` feature vector, length a multiple of the
    /// qubit count). Exact rows are written straight into `Q` by the
    /// transfer kernel, fanned out over rows; stochastic rows encode in
    /// batched blocks of [`ENCODE_BLOCK`]. The result is deterministic
    /// for stochastic backends and independent of both the thread count
    /// and the blocking — each row is bit-for-bit the row the per-point
    /// path computes.
    pub fn generate(&self, data: &[Vec<f64>]) -> Mat {
        assert!(!data.is_empty(), "no data rows");
        if let Some(plan) = self.transfer() {
            let m = plan.num_features();
            let mut q = Mat::zeros(data.len(), m);
            q.data_mut()
                .par_chunks_mut(m)
                .zip(data.par_iter())
                .for_each(|(out, x)| plan.row_into(x, out));
            return q;
        }
        let shifts = self.compiled_shifts();
        let blocks: Vec<Vec<Vec<f64>>> = data
            .par_chunks(ENCODE_BLOCK)
            .enumerate()
            .map(|(ci, chunk)| {
                let refs: Vec<&[f64]> = chunk.iter().map(Vec::as_slice).collect();
                let base = ci * ENCODE_BLOCK;
                let indices: Vec<usize> = (base..base + chunk.len()).collect();
                self.rows_for_chunk(&indices, &refs, &shifts)
            })
            .collect();
        let rows: Vec<Vec<f64>> = blocks.into_iter().flatten().collect();
        Mat::from_rows(&rows)
    }

    /// Estimates all observables of one prepared state into `out`,
    /// drawing the shot noise from the row-level RNG.
    fn fill_observables(&self, state: &StateVector, rng: &mut StdRng, out: &mut [f64]) {
        let obs = self.strategy.observables();
        match self.backend {
            FeatureBackend::Shots { shots, .. } => {
                // One rotation + CDF sampler per commuting observable
                // group; every neuron still draws its own `shots`.
                out.copy_from_slice(&estimate_paulis_batched(state, obs, shots, rng));
            }
            FeatureBackend::Shadows {
                snapshots, groups, ..
            } => {
                let protocol = ShadowProtocol::new(snapshots, 0);
                let est = ShadowEstimator::new(protocol.acquire_with_rng(state, rng), groups);
                let values = est.estimate_many(obs);
                out.copy_from_slice(&values);
            }
            FeatureBackend::Exact => unreachable!("exact rows go through the transfer plan"),
        }
    }

    /// Convenience: generate features for a single sample — the row is
    /// produced directly, with no intermediate data copy or matrix.
    pub fn generate_one(&self, x: &[f64]) -> Vec<f64> {
        match self.transfer() {
            Some(plan) => {
                let mut row = vec![0.0; plan.num_features()];
                plan.row_into(x, &mut row);
                row
            }
            None => self.row_for(0, x, &self.compiled_shifts()),
        }
    }

    /// One feature row per input, each seeded exactly like a standalone
    /// [`Self::generate_one`] call (row index 0) — so a row depends only
    /// on its own data point, never on where it sits in the batch. This
    /// is the batch entry point for online inference: the serving layer
    /// coalesces concurrent single requests into micro-batches and caches
    /// rows by input, which is only sound when the batched row is
    /// bit-for-bit the row a lone request would have produced — which
    /// holds because exact rows share one row kernel and the stochastic
    /// batched kernels are bit-identical per lane.
    ///
    /// Contrast [`Self::generate`], which seeds stochastic backends per
    /// row *index* — right for training datasets (independent noise per
    /// sample), wrong for a cache keyed on the input alone.
    pub fn generate_rows_standalone(&self, xs: &[&[f64]]) -> Vec<Vec<f64>> {
        if xs.is_empty() {
            return Vec::new();
        }
        if self.transfer().is_some() {
            return xs.par_iter().map(|x| self.generate_one(x)).collect();
        }
        let shifts = self.compiled_shifts();
        let blocks: Vec<Vec<Vec<f64>>> = xs
            .par_chunks(ENCODE_BLOCK)
            .map(|chunk| {
                let indices = vec![0usize; chunk.len()];
                self.rows_for_chunk(&indices, chunk, &shifts)
            })
            .collect();
        blocks.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ansatz::fig8_ansatz;
    use crate::strategy::Strategy;
    use qsim::{Gate, ParamCircuit, RotAxis};

    fn toy_data(d: usize) -> Vec<Vec<f64>> {
        (0..d)
            .map(|i| {
                (0..16)
                    .map(|j| 0.3 + 0.11 * ((i * 16 + j) % 19) as f64)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn exact_features_shape_and_range() {
        let s = Strategy::observable_construction(4, 1);
        let generator = FeatureGenerator::new(s, FeatureBackend::Exact);
        let q = generator.generate(&toy_data(5));
        assert_eq!(q.shape(), (5, 13));
        // Expectations of Pauli strings are in [−1, 1]; identity column is 1.
        for i in 0..5 {
            assert!((q[(i, 0)] - 1.0).abs() < 1e-12, "identity column");
            for j in 0..13 {
                assert!(q[(i, j)].abs() <= 1.0 + 1e-9);
            }
        }
    }

    #[test]
    fn hybrid_column_layout_matches_strategy() {
        let s = Strategy::hybrid(fig8_ansatz(4), 1, 1);
        let generator = FeatureGenerator::new(s, FeatureBackend::Exact);
        let data = toy_data(2);
        let q = generator.generate(&data);
        assert_eq!(q.shape(), (2, 17 * 13));
        // Column (a, 0) is the identity observable under any shift → 1.
        let strat = generator.strategy();
        for a in 0..strat.num_ansatze() {
            let col = strat.column_of(a, 0);
            assert!((q[(0, col)] - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn shots_converge_to_exact() {
        let s = Strategy::observable_construction(4, 1);
        let exact = FeatureGenerator::new(s.clone(), FeatureBackend::Exact);
        let shot = FeatureGenerator::new(
            s,
            FeatureBackend::Shots {
                shots: 50_000,
                seed: 3,
            },
        );
        let data = toy_data(2);
        let qe = exact.generate(&data);
        let qs = shot.generate(&data);
        assert!(
            qe.max_abs_diff(&qs) < 0.05,
            "max dev {}",
            qe.max_abs_diff(&qs)
        );
    }

    #[test]
    fn shadows_converge_to_exact() {
        let s = Strategy::observable_construction(4, 1);
        let exact = FeatureGenerator::new(s.clone(), FeatureBackend::Exact);
        let sh = FeatureGenerator::new(
            s,
            FeatureBackend::Shadows {
                snapshots: 30_000,
                groups: 10,
                seed: 5,
            },
        );
        let data = toy_data(2);
        let qe = exact.generate(&data);
        let qs = sh.generate(&data);
        assert!(
            qe.max_abs_diff(&qs) < 0.12,
            "max dev {}",
            qe.max_abs_diff(&qs)
        );
    }

    #[test]
    fn stochastic_backends_are_deterministic() {
        let s = Strategy::observable_construction(4, 1);
        let make = || {
            FeatureGenerator::new(
                s.clone(),
                FeatureBackend::Shots {
                    shots: 100,
                    seed: 9,
                },
            )
            .generate(&toy_data(3))
        };
        assert_eq!(make().data(), make().data());
    }

    #[test]
    fn different_data_different_features() {
        let s = Strategy::observable_construction(4, 2);
        let generator = FeatureGenerator::new(s, FeatureBackend::Exact);
        let q = generator.generate(&toy_data(3));
        // Rows shouldn't be identical for distinct inputs.
        assert!(q.row(0) != q.row(1));
    }

    #[test]
    fn generate_one_matches_batch() {
        let s = Strategy::observable_construction(4, 1);
        let generator = FeatureGenerator::new(s, FeatureBackend::Exact);
        let data = toy_data(3);
        let q = generator.generate(&data);
        let one = generator.generate_one(&data[1]);
        assert_eq!(q.row(1), &one[..]);
    }

    #[test]
    fn standalone_rows_match_generate_one_for_stochastic_backends() {
        // Every row of a standalone batch must be bit-for-bit the row a
        // lone generate_one call produces — including shot noise, which
        // generate() would instead seed by row index.
        let s = Strategy::observable_construction(4, 1);
        let generator = FeatureGenerator::new(
            s,
            FeatureBackend::Shots {
                shots: 200,
                seed: 13,
            },
        );
        let data = toy_data(3);
        let refs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        let rows = generator.generate_rows_standalone(&refs);
        assert_eq!(rows.len(), 3);
        for (x, row) in data.iter().zip(rows.iter()) {
            assert_eq!(row, &generator.generate_one(x));
        }
        assert!(generator.generate_rows_standalone(&[]).is_empty());
    }

    #[test]
    fn batched_generate_bit_identical_across_thread_counts() {
        // Batched rows must be bit-for-bit the per-point rows at 1, 2 and
        // 4 threads. generate_one is the per-point reference; for the
        // exact backend every entry point runs the same transfer row, and
        // for shots generate_rows_standalone goes through the SoA block
        // path (generate seeds shots by row index, so only the exact
        // backend's generate rows equal generate_one's).
        for backend in [
            FeatureBackend::Exact,
            FeatureBackend::Shots {
                shots: 64,
                seed: 21,
            },
        ] {
            let generator = FeatureGenerator::new(Strategy::hybrid(fig8_ansatz(4), 1, 1), backend);
            let data = toy_data(ENCODE_BLOCK + 5);
            let refs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
            let reference: Vec<Vec<f64>> = refs.iter().map(|x| generator.generate_one(x)).collect();
            for threads in [1, 2, 4] {
                let rows =
                    rayon::with_num_threads(threads, || generator.generate_rows_standalone(&refs));
                assert_eq!(rows, reference, "{backend:?}, threads = {threads}");
                if backend == FeatureBackend::Exact {
                    let q = rayon::with_num_threads(threads, || generator.generate(&data));
                    for (i, row) in reference.iter().enumerate() {
                        assert_eq!(q.row(i), &row[..], "threads = {threads}, row {i}");
                    }
                }
            }
        }
    }

    /// An ansatz with every `qsim::Gate` variant: the three rotation axes
    /// as parameters, every other gate fixed.
    fn every_gate_ansatz(n: usize) -> ParamCircuit {
        let mut pc = ParamCircuit::new(n);
        for q in 0..n {
            let r = (q + 1) % n;
            pc.push_rot(RotAxis::X, q);
            for g in [Gate::H(q), Gate::X(r), Gate::Y(q), Gate::Z(r), Gate::S(q)] {
                pc.push_fixed(g);
            }
            pc.push_rot(RotAxis::Y, r);
            for g in [Gate::Sdg(r), Gate::T(q), Gate::Tdg(r), Gate::Phase(q, 0.45)] {
                pc.push_fixed(g);
            }
            pc.push_fixed(Gate::Cnot {
                control: q,
                target: r,
            });
            pc.push_rot(RotAxis::Z, q);
            pc.push_fixed(Gate::Cz(q, r));
            pc.push_fixed(Gate::Swap(q, r));
        }
        pc
    }

    /// Every exact row entry against the state-vector simulation of the
    /// full circuit, to 1e-12.
    fn assert_matches_state_vector(generator: &FeatureGenerator, x: &[f64]) {
        let s = generator.strategy();
        let row = generator.generate_one(x);
        for a in 0..s.num_ansatze() {
            let state = StateVector::from_circuit(&generator.circuit_for(x, a));
            for (b, o) in s.observables().iter().enumerate() {
                let (got, want) = (row[s.column_of(a, b)], state.expectation(o));
                assert!((got - want).abs() < 1e-12, "({a}, {o}): {got} vs {want}");
            }
        }
    }

    #[test]
    fn exact_rows_match_the_state_vector_reference() {
        for n in 2..=5 {
            let z0 = Strategy::default_observable(n);
            let x: Vec<f64> = (0..4 * n).map(|j| 0.2 + 0.41 * (j % 13) as f64).collect();
            let table3 = [
                Strategy::ansatz_expansion(fig8_ansatz(n), 1, z0),
                Strategy::ansatz_expansion(fig8_ansatz(n), 2, z0),
                Strategy::observable_construction(n, 1),
                Strategy::observable_construction(n, 2),
                Strategy::observable_construction(n, 3.min(n)),
                Strategy::hybrid(fig8_ansatz(n), 1, 1),
                Strategy::hybrid(fig8_ansatz(n), 2, 1),
                Strategy::hybrid(fig8_ansatz(n), 1, 2),
            ];
            for s in table3 {
                assert_matches_state_vector(&FeatureGenerator::new(s, FeatureBackend::Exact), &x);
            }
            // Non-Clifford: arbitrary angles through every gate variant.
            let ansatz = every_gate_ansatz(n);
            let k = ansatz.num_params();
            let shifts: Vec<Vec<f64>> = (0..3)
                .map(|a| {
                    (0..k)
                        .map(|i| -2.0 + 0.37 * ((a * k + i) % 11) as f64)
                        .collect()
                })
                .collect();
            let s = Strategy::hybrid(ansatz, 1, 2).with_shifts(shifts);
            assert_matches_state_vector(&FeatureGenerator::new(s, FeatureBackend::Exact), &x);
        }
    }

    #[test]
    fn generate_handles_mixed_feature_lengths() {
        // Blocks split into runs of equal feature length; rows of either
        // length must match their standalone counterparts exactly.
        let s = Strategy::observable_construction(4, 1);
        let generator = FeatureGenerator::new(s, FeatureBackend::Exact);
        let mut data = toy_data(2);
        data.push((0..8).map(|j| 0.4 + 0.09 * j as f64).collect());
        data.push((0..16).map(|j| 0.2 + 0.05 * j as f64).collect());
        let q = generator.generate(&data);
        for (i, x) in data.iter().enumerate() {
            assert_eq!(q.row(i), &generator.generate_one(x)[..], "row {i}");
        }
    }

    #[test]
    fn generate_spanning_multiple_blocks_matches_per_point() {
        // More rows than ENCODE_BLOCK forces multi-chunk fan-out; exact
        // backend rows must still equal generate_one per point.
        let s = Strategy::observable_construction(4, 1);
        let generator = FeatureGenerator::new(s, FeatureBackend::Exact);
        let data = toy_data(ENCODE_BLOCK + 3);
        let q = generator.generate(&data);
        for (i, x) in data.iter().enumerate().step_by(7) {
            assert_eq!(q.row(i), &generator.generate_one(x)[..], "row {i}");
        }
    }

    #[test]
    fn fingerprint_tracks_semantic_config_only() {
        let s = Strategy::observable_construction(4, 1);
        let a = FeatureGenerator::new(s.clone(), FeatureBackend::Exact);
        let b = FeatureGenerator::new(s.clone(), FeatureBackend::Exact);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Warming the transfer-plan cache must not change the print.
        let _ = a.generate_one(&[0.3; 16]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = FeatureGenerator::new(s, FeatureBackend::Shots { shots: 10, seed: 1 });
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn zero_shift_base_circuit_has_no_ansatz_rotations() {
        let s = Strategy::hybrid(fig8_ansatz(4), 1, 1);
        let generator = FeatureGenerator::new(s, FeatureBackend::Exact);
        let x: Vec<f64> = (0..16).map(|i| 0.2 * i as f64).collect();
        let base = generator.circuit_for(&x, 0);
        // Encoding has 16 rotations; zero ansatz leaves only the 8 CNOTs.
        let (single, double) = base.gate_counts();
        assert_eq!(single, 16);
        assert_eq!(double, 8);
        // A shifted circuit keeps its one surviving rotation.
        let shifted = generator.circuit_for(&x, 1);
        assert_eq!(shifted.gate_counts().0, 17);
    }
}
