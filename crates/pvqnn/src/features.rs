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
//! at all. Every entry point calls the one row kernel
//! `TransferPlan::row_into`, and the result equals the state-vector
//! expectation to 1e-12.
//!
//! **Shots rows sample the exact row.** Proposition 1 models neuron `j`
//! as the mean of `s` independent ±1 outcomes with expectation `e_j`, its
//! exact value: each outcome is +1 with probability `(1 + e_j)/2`, so the
//! mean is `(2B − s)/s` with `B ~ Binomial(s, (1 + e_j)/2)`, independently
//! per neuron. A Shots row takes the transfer row and replaces each entry
//! by such a draw, where `B` counts the uniforms `u_k < (1 + e_j)/2` among
//! `s` draws, neuron by neuron in column order. That is the distribution
//! of rotating the prepared state into the observable's eigenbasis and
//! sampling it `s` times, without the state. The identity neuron
//! (`e = 1`) returns exactly 1.
//!
//! **Shadows rows keep the state-vector path**, since a snapshot measures
//! a prepared state: `S(x)|0ⁿ⟩` is built once per row through the fused
//! [`EncodingPlan`] and cloned per ansatz shift, whose tail is bound,
//! identity-elided and gate-fused once per generator ([`qsim::compile()`]).
//!
//! A stochastic row draws all its noise from one RNG seeded by its row
//! index — [`generate`](FeatureGenerator::generate) passes the index in
//! the data, [`generate_one`](FeatureGenerator::generate_one) and
//! [`generate_rows_standalone`](FeatureGenerator::generate_rows_standalone)
//! pass 0 — so every row is bit-for-bit the same whatever the batch or
//! thread count that produced it. The serving layer's "micro-batching
//! never changes a prediction" guarantee is built on this.

use crate::encoding::{column_encoding, EncodingPlan};
use crate::strategy::Strategy;
use crate::transfer::TransferPlan;
use linalg::Mat;
use qsim::{Circuit, CompiledCircuit, StateVector};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rayon::prelude::*;
use shadows::{ShadowEstimator, ShadowProtocol};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// How neuron expectations are estimated.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FeatureBackend {
    /// Noiseless expectation values, computed through the generator's
    /// Pauli-transfer plan (see the module docs).
    Exact,
    /// Independent finite-shot sample means, `shots` per neuron
    /// (Proposition 1): each exact transfer-row entry `e` becomes
    /// `(2B − shots)/shots` with `B ~ Binomial(shots, (1 + e)/2)`, one
    /// Bernoulli count per neuron. Deterministic given `seed`.
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
    /// Shadows backend: per-shift ansatz tails, bound + gate-fused once
    /// on first use (`None` for shifts whose tail elides/fuses away
    /// entirely).
    compiled_shifts: OnceLock<Arc<Vec<Option<CompiledCircuit>>>>,
    /// Exact and Shots backends: the Pauli-transfer plan, built once on
    /// first use.
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
/// whole row, consumed in column order, so results stay deterministic
/// for any thread count.
fn derive_row_seed(base: u64, i: usize) -> u64 {
    base ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x1656_67B1_9E37_79F9
}

/// Proposition 1's estimate of a neuron with exact value `e`: the mean of
/// `shots` ±1 outcomes, `(2B − shots)/shots`, where `B` counts the draws
/// `u < (1 + e)/2` — a Bernoulli count, one uniform per shot.
fn shot_mean(e: f64, shots: usize, rng: &mut StdRng) -> f64 {
    let p = 0.5 * (1.0 + e);
    let hits = (0..shots).filter(|_| rng.random::<f64>() < p).count();
    (2.0 * hits as f64 - shots as f64) / shots as f64
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

    /// The Pauli-transfer plan of the Exact and Shots backends, built
    /// **once per generator** and shared by every row ever fed through it
    /// (and by its clones).
    fn transfer(&self) -> &TransferPlan {
        self.transfer
            .get_or_init(|| Arc::new(TransferPlan::new(&self.strategy)))
    }

    /// The per-shift ansatz circuits of the Shadows backend, bound,
    /// identity-elided, and gate-fused **once per generator** — they are
    /// shared by every data point ever fed through this generator, so the
    /// one-time [`qsim::compile`] pass amortizes across the whole
    /// workload. Shifts whose tail compiles to nothing (e.g. the
    /// all-zeros base shift) are `None`: the encoding state is measured
    /// directly.
    fn compiled_shifts(&self) -> &[Option<CompiledCircuit>] {
        self.compiled_shifts.get_or_init(|| {
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
        })
    }

    /// The feature row of point `x` as data row `i` (the seed of its shot
    /// or snapshot noise), written into `out`.
    fn row_into(&self, i: usize, x: &[f64], out: &mut [f64]) {
        match self.backend {
            FeatureBackend::Exact => self.transfer().row_into(x, out),
            FeatureBackend::Shots { shots, seed } => {
                assert!(shots > 0, "need at least one shot");
                self.transfer().row_into(x, out);
                let mut rng = StdRng::seed_from_u64(derive_row_seed(seed, i));
                for e in out.iter_mut() {
                    *e = shot_mean(*e, shots, &mut rng);
                }
            }
            FeatureBackend::Shadows {
                snapshots,
                groups,
                seed,
            } => {
                let encoded = EncodingPlan::new(x.len(), self.strategy.num_qubits()).encode_one(x);
                let mut rng = StdRng::seed_from_u64(derive_row_seed(seed, i));
                let protocol = ShadowProtocol::new(snapshots, 0);
                let mut estimate = |state: &StateVector, out: &mut [f64]| {
                    let est =
                        ShadowEstimator::new(protocol.acquire_with_rng(state, &mut rng), groups);
                    out.copy_from_slice(&est.estimate_many(self.strategy.observables()));
                };
                let q = self.strategy.num_observables();
                for (shifted, out) in self.compiled_shifts().iter().zip(out.chunks_exact_mut(q)) {
                    match shifted {
                        Some(cc) => {
                            let mut state = encoded.clone();
                            state.apply_compiled(cc);
                            estimate(&state, out);
                        }
                        // No ansatz (observable construction) or a fully-
                        // fused-away shift (the all-zeros base circuit):
                        // measure S(x)|0⟩.
                        None => estimate(&encoded, out),
                    }
                }
            }
        }
    }

    /// Generates the `d × m` feature matrix `Q` for the given data rows
    /// (each row is a `[0, 2π)` feature vector, length a multiple of the
    /// qubit count), fanned out over rows and written straight into `Q`.
    /// Stochastic rows are seeded by their row index, so the result is
    /// deterministic and independent of the thread count.
    pub fn generate(&self, data: &[Vec<f64>]) -> Mat {
        assert!(!data.is_empty(), "no data rows");
        let m = self.strategy.num_neurons();
        let mut q = Mat::zeros(data.len(), m);
        q.data_mut()
            .par_chunks_mut(m)
            .zip(data.par_iter())
            .enumerate()
            .for_each(|(i, (out, x))| self.row_into(i, x, out));
        q
    }

    /// Convenience: generate features for a single sample — the row is
    /// produced directly, with no intermediate data copy or matrix.
    pub fn generate_one(&self, x: &[f64]) -> Vec<f64> {
        let mut row = vec![0.0; self.strategy.num_neurons()];
        self.row_into(0, x, &mut row);
        row
    }

    /// One feature row per input, each seeded exactly like a standalone
    /// [`Self::generate_one`] call (row index 0) — so a row depends only
    /// on its own data point, never on where it sits in the batch. This
    /// is the batch entry point for online inference: the serving layer
    /// coalesces concurrent single requests into micro-batches and caches
    /// rows by input, which is only sound because the batched row is
    /// bit-for-bit the row a lone request would have produced.
    ///
    /// Contrast [`Self::generate`], which seeds stochastic backends per
    /// row *index* — right for training datasets (independent noise per
    /// sample), wrong for a cache keyed on the input alone.
    pub fn generate_rows_standalone(&self, xs: &[&[f64]]) -> Vec<Vec<f64>> {
        xs.par_iter().map(|x| self.generate_one(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ansatz::fig8_ansatz;
    use crate::strategy::Strategy;
    use qsim::{estimate_pauli_with_shots, Gate, ParamCircuit, RotAxis};

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
        for (i, x) in data.iter().enumerate() {
            assert_eq!(q.row(i), &generator.generate_one(x)[..], "row {i}");
        }
    }

    #[test]
    fn generate_spanning_multiple_blocks_matches_per_point() {
        // Enough rows that the parallel fan-out splits them across many
        // work chunks; exact rows must still equal generate_one per point.
        let s = Strategy::observable_construction(4, 1);
        let generator = FeatureGenerator::new(s, FeatureBackend::Exact);
        let data = toy_data(35);
        let q = generator.generate(&data);
        for (i, x) in data.iter().enumerate() {
            assert_eq!(q.row(i), &generator.generate_one(x)[..], "row {i}");
        }
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
        // generate_one is the per-point reference: standalone rows equal
        // it at 1, 2 and 4 threads for both backends, and so do exact
        // generate rows. Shots generate rows are seeded by row index
        // instead, so they must equal the 1-thread generate.
        for backend in [
            FeatureBackend::Exact,
            FeatureBackend::Shots {
                shots: 64,
                seed: 21,
            },
        ] {
            let generator = FeatureGenerator::new(Strategy::hybrid(fig8_ansatz(4), 1, 1), backend);
            let data = toy_data(37);
            let refs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
            let reference: Vec<Vec<f64>> = refs.iter().map(|x| generator.generate_one(x)).collect();
            let serial = rayon::with_num_threads(1, || generator.generate(&data));
            if backend == FeatureBackend::Exact {
                for (i, row) in reference.iter().enumerate() {
                    assert_eq!(serial.row(i), &row[..], "row {i}");
                }
            }
            for threads in [1, 2, 4] {
                let rows =
                    rayon::with_num_threads(threads, || generator.generate_rows_standalone(&refs));
                assert_eq!(rows, reference, "{backend:?}, threads = {threads}");
                let q = rayon::with_num_threads(threads, || generator.generate(&data));
                assert_eq!(q.data(), serial.data(), "{backend:?}, threads = {threads}");
            }
        }
    }

    /// The Shots tests' cases, both with the identity neuron in column 0:
    /// a Table III strategy (every neuron one string) and one off-grid
    /// shift of the Fig. 8 ansatz (multi-string neurons).
    fn shot_cases() -> [Strategy; 2] {
        let ansatz = fig8_ansatz(4);
        let shift = (0..ansatz.num_params())
            .map(|i| 0.3 + 0.41 * i as f64)
            .collect();
        [
            Strategy::observable_construction(4, 1),
            Strategy::hybrid(ansatz, 1, 1).with_shifts(vec![shift]),
        ]
    }

    /// `rows` Shots rows of one point, each seeded by its row index, and
    /// the point's exact row.
    fn shot_rows(s: &Strategy, shots: usize, seed: u64, rows: usize) -> (Mat, Vec<f64>) {
        let x = toy_data(1).remove(0);
        let exact = FeatureGenerator::new(s.clone(), FeatureBackend::Exact).generate_one(&x);
        let generator = FeatureGenerator::new(s.clone(), FeatureBackend::Shots { shots, seed });
        (generator.generate(&vec![x; rows]), exact)
    }

    #[test]
    fn shots_rows_have_the_binomial_moments() {
        // Entry j of a Shots row is (2B − s)/s with B ~ Binomial(s, p),
        // p = (1 + e)/2: mean e and variance (1 − e²)/s. Over N rows the
        // sample mean is within 3σ/√N of e, and the sample variance
        // within 3 standard errors, σ²·√((2 + κ)/N) with κ the excess
        // kurtosis (1 − 6pq)/(s·pq) of a Binomial mean.
        let (shots, rows) = (16, 4000);
        for s in shot_cases() {
            let (q, exact) = shot_rows(&s, shots, 2027, rows);
            assert_eq!(exact[0], 1.0);
            for (j, &e) in exact.iter().enumerate() {
                let column: Vec<f64> = (0..rows).map(|i| q[(i, j)]).collect();
                if e == 1.0 {
                    assert!(column.iter().all(|&v| v == 1.0), "identity column {j}");
                    continue;
                }
                let n = rows as f64;
                let mean = column.iter().sum::<f64>() / n;
                let var = column.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
                let sigma2 = (1.0 - e * e) / shots as f64;
                assert!(
                    (mean - e).abs() <= 3.0 * (sigma2 / n).sqrt(),
                    "column {j}: mean {mean} vs e = {e}"
                );
                let pq = (1.0 - e * e) / 4.0;
                let kurtosis = (1.0 - 6.0 * pq) / (shots as f64 * pq);
                assert!(
                    (var - sigma2).abs() <= 3.0 * sigma2 * ((2.0 + kurtosis) / n).sqrt(),
                    "column {j}: variance {var} vs {sigma2}"
                );
            }
        }
    }

    #[test]
    fn shot_counts_match_the_state_vector_sampler() {
        // Two-sample χ² at α = 0.001: per neuron, the counts B of N Shots
        // rows against N counts from the state-vector sampler (rotate
        // U_a S(x)|0⟩ into O_b's eigenbasis, draw s outcomes). Bins are
        // pooled left to right until each holds ≥ 10 of the 2N counts; a
        // short tail joins the last bin.
        let (shots, rows) = (8, 2000);
        let count = |v: f64| ((v + 1.0) * shots as f64 / 2.0).round() as usize;
        let mut rng = StdRng::seed_from_u64(12);
        for s in shot_cases() {
            let (q, _) = shot_rows(&s, shots, 11, rows);
            let x = toy_data(1).remove(0);
            let generator = FeatureGenerator::new(s.clone(), FeatureBackend::Exact);
            for a in 0..s.num_ansatze() {
                let state = StateVector::from_circuit(&generator.circuit_for(&x, a));
                for (b, o) in s.observables().iter().enumerate().skip(1) {
                    let j = s.column_of(a, b);
                    let mut hist = vec![(0.0, 0.0); shots + 1];
                    for i in 0..rows {
                        hist[count(q[(i, j)])].0 += 1.0;
                        let reference = estimate_pauli_with_shots(&state, o, shots, &mut rng);
                        hist[count(reference)].1 += 1.0;
                    }
                    let (mut bins, mut pool) = (Vec::new(), (0.0, 0.0));
                    for (u, v) in hist {
                        pool = (pool.0 + u, pool.1 + v);
                        if pool.0 + pool.1 >= 10.0 {
                            bins.push(std::mem::take(&mut pool));
                        }
                    }
                    let last = bins.last_mut().expect("2N ≥ 10 counts");
                    *last = (last.0 + pool.0, last.1 + pool.1);
                    let stat: f64 = bins.iter().map(|(u, v)| (u - v) * (u - v) / (u + v)).sum();
                    // Wilson–Hilferty: the χ² quantile at z = 3.09.
                    let df = (bins.len() - 1).max(1) as f64;
                    let h = 2.0 / (9.0 * df);
                    let critical = df * (1.0 - h + 3.09 * h.sqrt()).powi(3);
                    assert!(stat <= critical, "{o} (column {j}): χ² {stat} > {critical}");
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
        // Rows of either feature length must match their standalone
        // counterparts exactly.
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
