//! Property-based tests (proptest) on the core invariants that everything
//! else leans on: Pauli algebra, simulator unitarity, SVD/pinv axioms,
//! shift-grid combinatorics, and loss bounds.

use postvar::linalg::{lstsq, pinv, Mat};
use postvar::pauli::{PauliString, PhaseI};
use postvar::prelude::{fig7_encoding, fig8_ansatz, FeatureBackend, FeatureGenerator, StateVector};
use postvar::pvqnn::strategy::Strategy as PvStrategy;
use postvar::qsim::{self, BatchedStateVector, Gate, ParamCircuit, RotAxis};
use proptest::prelude::*;

/// Strategy: a random Pauli string on `n` qubits as (x, z) masks.
fn pauli_string(n: usize) -> impl proptest::strategy::Strategy<Value = PauliString> {
    let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    (0..=mask, 0..=mask).prop_map(move |(x, z)| PauliString::from_masks(n, x, z))
}

/// Strategy: a random short circuit on `n` qubits.
fn circuit(n: usize, max_gates: usize) -> impl proptest::strategy::Strategy<Value = qsim::Circuit> {
    let gate = (0..6u8, 0..n, 0..n, -3.0f64..3.0).prop_map(move |(kind, q, q2, angle)| {
        let q2 = if q2 == q { (q + 1) % n } else { q2 };
        match kind {
            0 => Gate::H(q),
            1 => Gate::Rx(q, angle),
            2 => Gate::Ry(q, angle),
            3 => Gate::Rz(q, angle),
            4 => Gate::Cnot {
                control: q,
                target: q2,
            },
            _ => Gate::Cz(q, q2),
        }
    });
    proptest::collection::vec(gate, 1..max_gates).prop_map(move |gates| {
        let mut c = qsim::Circuit::new(n);
        for g in gates {
            c.push(g);
        }
        c
    })
}

/// Strategy: a random circuit drawing from the full gate set the
/// compiler fuses — mixed dense/diagonal single-qubit runs, repeated and
/// interleaved two-qubit pairs, and identity-skippable gates (kind 13
/// emits a zero-angle `Rx`, which `compile` drops from the source count).
fn fusion_circuit(
    n: usize,
    max_gates: usize,
) -> impl proptest::strategy::Strategy<Value = qsim::Circuit> {
    let gate = (0..14u8, 0..n, 0..n, -3.0f64..3.0).prop_map(move |(kind, q, q2, angle)| {
        let q2 = if q2 == q { (q + 1) % n } else { q2 };
        match kind {
            0 => Gate::H(q),
            1 => Gate::X(q),
            2 => Gate::Y(q),
            3 => Gate::Z(q),
            4 => Gate::S(q),
            5 => Gate::T(q),
            6 => Gate::Rx(q, angle),
            7 => Gate::Ry(q, angle),
            8 => Gate::Rz(q, angle),
            9 => Gate::Phase(q, angle),
            10 => Gate::Cnot {
                control: q,
                target: q2,
            },
            11 => Gate::Cz(q, q2),
            12 => Gate::Swap(q, q2),
            _ => Gate::Rx(q, 0.0),
        }
    });
    proptest::collection::vec(gate, 1..max_gates).prop_map(move |gates| {
        let mut c = qsim::Circuit::new(n);
        for g in gates {
            c.push(g);
        }
        c
    })
}

/// Strategy: a random device fault schedule — up to two windows, each an
/// outage or a degraded phase with a 1.5–8× latency multiplier.
fn chaos_schedule() -> impl proptest::strategy::Strategy<Value = postvar::hpcq::FaultSchedule> {
    // `kind10 < 15` selects an outage; otherwise it is the latency
    // multiplier ×10 of a degraded phase (1.5–8×).
    proptest::collection::vec((0u64..400_000, 1u64..300_000, 0u32..80), 0..3).prop_map(|windows| {
        let mut s = postvar::hpcq::FaultSchedule::none();
        for (start, len, kind10) in windows {
            s = if kind10 < 15 {
                s.with_outage(start, start + len)
            } else {
                s.with_degraded(start, start + len, kind10 as f64 / 10.0)
            };
        }
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pauli_product_is_involutive_up_to_phase(a in pauli_string(5), b in pauli_string(5)) {
        // (AB)(BA) = A B B A = A·A = I with total phase product 1.
        let (ph_ab, ab) = a.mul(&b);
        let (ph_ba, ba) = b.mul(&a);
        let (ph_final, product) = ab.mul(&ba);
        prop_assert!(product.is_identity());
        prop_assert_eq!(ph_ab * ph_ba * ph_final, PhaseI::ONE);
    }

    #[test]
    fn pauli_commutation_symmetry(a in pauli_string(6), b in pauli_string(6)) {
        prop_assert_eq!(a.commutes_with(&b), b.commutes_with(&a));
        // Everything commutes with itself and the identity.
        prop_assert!(a.commutes_with(&a));
        prop_assert!(a.commutes_with(&PauliString::identity(6)));
    }

    #[test]
    fn pauli_weight_subadditive(a in pauli_string(6), b in pauli_string(6)) {
        let (_, c) = a.mul(&b);
        prop_assert!(c.weight() <= a.weight() + b.weight());
    }

    #[test]
    fn random_circuits_preserve_norm(c in circuit(4, 20)) {
        let s = StateVector::from_circuit(&c);
        prop_assert!((s.norm_sqr() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dagger_inverts_random_circuits(c in circuit(3, 15)) {
        let mut full = c.clone();
        full.extend(&c.dagger());
        let s = StateVector::from_circuit(&full);
        prop_assert!((s.probability(0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn expectations_bounded_by_one(c in circuit(3, 15), p in pauli_string(3)) {
        let s = StateVector::from_circuit(&c);
        let e = s.expectation(&p);
        prop_assert!(e.abs() <= 1.0 + 1e-9, "⟨P⟩ = {} out of range", e);
    }

    #[test]
    fn pinv_satisfies_first_moore_penrose_axiom(
        data in proptest::collection::vec(-1.0f64..1.0, 20),
    ) {
        let a = Mat::from_vec(5, 4, data);
        let ap = pinv(&a, None);
        let back = a.matmul(&ap).matmul(&a);
        prop_assert!(back.max_abs_diff(&a) < 1e-8);
    }

    #[test]
    fn lstsq_residual_is_orthogonal_to_columns(
        data in proptest::collection::vec(-1.0f64..1.0, 24),
        rhs in proptest::collection::vec(-1.0f64..1.0, 6),
    ) {
        let a = Mat::from_vec(6, 4, data);
        let x = lstsq(&a, &rhs);
        let ax = a.matvec(&x);
        let resid: Vec<f64> = ax.iter().zip(rhs.iter()).map(|(p, q)| p - q).collect();
        let grad = a.t_matvec(&resid);
        for g in grad {
            prop_assert!(g.abs() < 1e-7, "normal equations violated: {}", g);
        }
    }

    #[test]
    fn shift_grids_have_bounded_support(k in 1usize..7, r in 0usize..4) {
        let shifts = postvar::pvqnn::shifts::enumerate_shifts(k, r);
        prop_assert_eq!(shifts.len() as u128, postvar::pvqnn::shifts::shift_count(k, r));
        for s in &shifts {
            let nz = s.iter().filter(|&&v| v != 0.0).count();
            prop_assert!(nz <= r.min(k));
        }
    }

    #[test]
    fn rmse_dominates_mae(
        y in proptest::collection::vec(-2.0f64..2.0, 1..30),
    ) {
        let y_hat: Vec<f64> = y.iter().map(|v| v * 0.5 + 0.1).collect();
        let rmse = postvar::ml::rmse_loss(&y, &y_hat);
        let mae = postvar::ml::mae_loss(&y, &y_hat);
        // Paper Eq. (13): MAE ≤ RMSE.
        prop_assert!(mae <= rmse + 1e-12);
    }

    #[test]
    fn encoded_features_give_normalised_states(
        raw in proptest::collection::vec(0.0f64..std::f64::consts::TAU, 16),
    ) {
        let s = StateVector::from_circuit(&fig7_encoding(&raw));
        prop_assert!((s.norm_sqr() - 1.0).abs() < 1e-10);
        // All probabilities valid.
        for b in 0..16u64 {
            let p = s.probability(b);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&p));
        }
    }

    #[test]
    fn identity_feature_column_is_always_one(
        raw in proptest::collection::vec(0.0f64..std::f64::consts::TAU, 16),
    ) {
        let generator = FeatureGenerator::new(
            PvStrategy::observable_construction(4, 1),
            FeatureBackend::Exact,
        );
        let row = generator.generate_one(&raw);
        prop_assert!((row[0] - 1.0).abs() < 1e-12);
        for v in &row {
            prop_assert!(v.abs() <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn apply_compiled_matches_apply_circuit(c in fusion_circuit(4, 30)) {
        // Gate fusion reassociates the floating-point work (runs collapse
        // into one matrix product), so the contract is 1e-12 agreement,
        // not bit equality — plus preserved unitarity.
        let compiled = qsim::compile(&c);
        let direct = StateVector::from_circuit(&c);
        let fused = StateVector::from_compiled(&compiled);
        prop_assert!((fused.norm_sqr() - 1.0).abs() < 1e-9);
        for (a, b) in direct.amplitudes().iter().zip(fused.amplitudes()) {
            prop_assert!((a - b).norm() < 1e-12, "direct {} vs fused {}", a, b);
        }
    }

    #[test]
    fn batched_lanes_bit_identical_to_standalone(c in fusion_circuit(4, 24)) {
        // Batching is a layout change, not a math change: every lane must
        // reproduce the standalone simulation bit-for-bit, through both
        // the gate-by-gate and the compiled execution paths.
        let direct = StateVector::from_circuit(&c);
        let compiled = qsim::compile(&c);
        let fused = StateVector::from_compiled(&compiled);
        let lanes = 3;
        let mut batch = BatchedStateVector::zero_states(4, lanes);
        batch.apply_circuit(&c);
        let mut batch_compiled = BatchedStateVector::zero_states(4, lanes);
        batch_compiled.apply_compiled(&compiled);
        for l in 0..lanes {
            for (a, b) in batch.lane(l).amplitudes().iter().zip(direct.amplitudes()) {
                prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
                prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
            for (a, b) in batch_compiled.lane(l).amplitudes().iter().zip(fused.amplitudes()) {
                prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
                prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    #[test]
    fn batched_feature_rows_bit_identical_to_per_point(
        raws in proptest::collection::vec(
            proptest::collection::vec(0.0f64..std::f64::consts::TAU, 16), 1..4),
        seed in 0u64..1000,
    ) {
        // The serving invariant end to end: standalone-seeded batched rows
        // (the cache-miss path) equal one-at-a-time `generate_one` exactly
        // at 1, 2 and 4 threads, for the exact transfer rows and for the
        // stochastic finite-shot backend. Exact `generate` rows equal
        // them too (shots seed `generate` by row index instead).
        for backend in [FeatureBackend::Exact, FeatureBackend::Shots { shots: 32, seed }] {
            let generator = FeatureGenerator::new(PvStrategy::hybrid(fig8_ansatz(4), 1, 1), backend);
            let refs: Vec<&[f64]> = raws.iter().map(Vec::as_slice).collect();
            let lone: Vec<Vec<f64>> = refs.iter().map(|x| generator.generate_one(x)).collect();
            for threads in [1, 2, 4] {
                let rows = rayon::with_num_threads(threads, || generator.generate_rows_standalone(&refs));
                prop_assert_eq!(&rows, &lone);
                if backend == FeatureBackend::Exact {
                    let q = rayon::with_num_threads(threads, || generator.generate(&raws));
                    for (i, row) in lone.iter().enumerate() {
                        prop_assert_eq!(q.row(i), &row[..]);
                    }
                }
            }
        }
    }

    #[test]
    fn expectation_many_matches_per_term(
        c in circuit(4, 16),
        paulis in proptest::collection::vec(pauli_string(4), 1..12),
    ) {
        let s = StateVector::from_circuit(&c);
        let fused = s.expectation_many(&paulis);
        prop_assert_eq!(fused.len(), paulis.len());
        for (p, &v) in paulis.iter().zip(fused.iter()) {
            let per_term = s.expectation(p);
            prop_assert!(
                (v - per_term).abs() < 1e-10,
                "{}: fused {} vs per-term {}", p, v, per_term
            );
        }
    }
}

/// An ansatz using every `qsim::Gate` variant: the three rotation axes as
/// parameters (3 per qubit), every other gate fixed.
fn every_gate_ansatz(n: usize) -> ParamCircuit {
    let mut pc = ParamCircuit::new(n);
    for q in 0..n {
        let r = (q + 1) % n;
        pc.push_rot(RotAxis::X, q);
        for g in [
            Gate::H(q),
            Gate::X(r),
            Gate::Y(q),
            Gate::Z(r),
            Gate::S(q),
            Gate::Sdg(r),
        ] {
            pc.push_fixed(g);
        }
        pc.push_rot(RotAxis::Y, r);
        for g in [Gate::T(q), Gate::Tdg(r), Gate::Phase(q, 0.9)] {
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

/// The Table III strategies on `n` qubits (locality capped at `n`).
fn table3_strategies(n: usize) -> Vec<PvStrategy> {
    let z0 = PvStrategy::default_observable(n);
    vec![
        PvStrategy::ansatz_expansion(fig8_ansatz(n), 1, z0),
        PvStrategy::ansatz_expansion(fig8_ansatz(n), 2, z0),
        PvStrategy::observable_construction(n, 1),
        PvStrategy::observable_construction(n, 2),
        PvStrategy::observable_construction(n, 3.min(n)),
        PvStrategy::hybrid(fig8_ansatz(n), 1, 1),
        PvStrategy::hybrid(fig8_ansatz(n), 2, 1),
        PvStrategy::hybrid(fig8_ansatz(n), 1, 2),
    ]
}

/// Exact (transfer) rows against a state-vector simulation of every
/// neuron's full circuit: the largest deviation.
fn transfer_vs_state_vector(generator: &FeatureGenerator, x: &[f64]) -> f64 {
    let s = generator.strategy();
    let row = generator.generate_one(x);
    let mut worst = 0.0f64;
    for a in 0..s.num_ansatze() {
        let state = StateVector::from_circuit(&generator.circuit_for(x, a));
        for (b, o) in s.observables().iter().enumerate() {
            worst = worst.max((row[s.column_of(a, b)] - state.expectation(o)).abs());
        }
    }
    worst
}

// Exact features in the Heisenberg picture ≡ the Schrödinger-picture
// state-vector reference, to 1e-12.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn exact_rows_match_state_vector_on_table3_strategies(
        n in 2usize..6,
        which in 0usize..8,
        raw in proptest::collection::vec(0.0f64..std::f64::consts::TAU, 20),
    ) {
        let strategy = table3_strategies(n).swap_remove(which);
        let generator = FeatureGenerator::new(strategy, FeatureBackend::Exact);
        let worst = transfer_vs_state_vector(&generator, &raw[..4 * n]);
        prop_assert!(worst < 1e-12, "n = {}, strategy {}: {}", n, which, worst);
    }

    #[test]
    fn exact_rows_match_state_vector_at_arbitrary_shift_angles(
        n in 2usize..6,
        raw in proptest::collection::vec(0.0f64..std::f64::consts::TAU, 20),
        angles in proptest::collection::vec(-3.2f64..3.2, 45),
    ) {
        // Non-Clifford ansätze: every gate variant, any rotation angles.
        let ansatz = every_gate_ansatz(n);
        let k = ansatz.num_params();
        let shifts: Vec<Vec<f64>> = angles.chunks(15).map(|c| c[..k].to_vec()).collect();
        let strategy = PvStrategy::hybrid(ansatz, 1, 2).with_shifts(shifts);
        let generator = FeatureGenerator::new(strategy, FeatureBackend::Exact);
        let worst = transfer_vs_state_vector(&generator, &raw[..4 * n]);
        prop_assert!(worst < 1e-12, "n = {}: {}", n, worst);
    }
}

// Thread-count determinism needs states above PARALLEL_THRESHOLD (2^16
// amplitudes → 17 qubits), so these run with fewer cases.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn parallel_kernels_bit_identical_across_thread_counts(c in circuit(17, 10)) {
        // Gate kernels write disjoint items and reductions use fixed
        // chunking, so 1-thread and 4-thread runs must agree bit-for-bit.
        let s1 = rayon::with_num_threads(1, || StateVector::from_circuit(&c));
        let s4 = rayon::with_num_threads(4, || StateVector::from_circuit(&c));
        for (a, b) in s1.amplitudes().iter().zip(s4.amplitudes()) {
            prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
            prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        let p = PauliString::from_masks(17, 0b1, 0b10);
        let e1 = rayon::with_num_threads(1, || s1.expectation(&p));
        let e4 = rayon::with_num_threads(4, || s1.expectation(&p));
        prop_assert_eq!(e1.to_bits(), e4.to_bits());
        let i1 = rayon::with_num_threads(1, || s1.inner(&s4));
        let i4 = rayon::with_num_threads(4, || s1.inner(&s4));
        prop_assert_eq!(i1.re.to_bits(), i4.re.to_bits());
        prop_assert_eq!(i1.im.to_bits(), i4.im.to_bits());
    }

    #[test]
    fn apply_compiled_bit_identical_across_thread_counts(c in fusion_circuit(17, 8)) {
        // The fused kernels keep the fixed chunking of the direct path,
        // so compiled execution is thread-count invariant too.
        let compiled = qsim::compile(&c);
        let s1 = rayon::with_num_threads(1, || StateVector::from_compiled(&compiled));
        let s4 = rayon::with_num_threads(4, || StateVector::from_compiled(&compiled));
        for (a, b) in s1.amplitudes().iter().zip(s4.amplitudes()) {
            prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
            prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    #[test]
    fn expectation_many_bit_identical_across_thread_counts(
        c in circuit(17, 10),
        paulis in proptest::collection::vec(pauli_string(17), 1..6),
    ) {
        let s = StateVector::from_circuit(&c);
        let v1 = rayon::with_num_threads(1, || s.expectation_many(&paulis));
        let v4 = rayon::with_num_threads(4, || s.expectation_many(&paulis));
        for (a, b) in v1.iter().zip(v4.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

// Chaos determinism: random fault schedules (outages, degraded phases,
// transient failure rates) replayed over the QPU pool must resolve every
// job exactly once — bit-for-bit identical results or the same typed
// error — under any executor thread count.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn chaos_outcomes_bit_identical_across_threads(
        schedules in proptest::collection::vec(chaos_schedule(), 2..4),
        fail_milli in 0u32..400,
        n_jobs in 1usize..10,
    ) {
        use postvar::hpcq::{
            outcome_id, CircuitJob, FaultPolicy, QpuConfig, QpuPool, RetryPolicy,
        };
        let jobs: Vec<CircuitJob> = (0..n_jobs as u64)
            .map(|id| {
                let mut c = qsim::Circuit::new(4);
                for q in 0..4 {
                    c.push(Gate::Ry(q, 0.3 + 0.11 * (id as f64 + q as f64)));
                }
                c.push(Gate::Cnot { control: 0, target: 1 });
                CircuitJob::new(id, c, vec![PauliString::from_masks(4, 0b1, 0)], None)
            })
            .collect();
        let run = |threads: usize| {
            rayon::with_num_threads(threads, || {
                let configs = schedules
                    .iter()
                    .map(|f| QpuConfig {
                        fail_prob: fail_milli as f64 / 1000.0,
                        faults: f.clone(),
                        ..Default::default()
                    })
                    .collect();
                let mut pool = QpuPool::heterogeneous(configs).with_fault_policy(FaultPolicy {
                    retry: RetryPolicy {
                        max_attempts_total: 8,
                        ..Default::default()
                    },
                    ..Default::default()
                });
                pool.execute_batch(jobs.clone()).0
            })
        };
        let base = run(1);
        // Every job resolves exactly once: no lost, no duplicated.
        prop_assert_eq!(base.len(), n_jobs);
        for (i, o) in base.iter().enumerate() {
            prop_assert_eq!(outcome_id(o), i as u64);
        }
        for threads in [2usize, 4] {
            let other = run(threads);
            for (a, b) in base.iter().zip(other.iter()) {
                match (a, b) {
                    (Ok(x), Ok(y)) => {
                        prop_assert_eq!(x.device, y.device);
                        prop_assert_eq!(x.sim_completed_ns, y.sim_completed_ns);
                        for (u, v) in x.values.iter().zip(y.values.iter()) {
                            prop_assert_eq!(u.to_bits(), v.to_bits());
                        }
                    }
                    (Err(x), Err(y)) => {
                        prop_assert_eq!(x.attempts, y.attempts);
                        prop_assert_eq!(x.kind, y.kind);
                    }
                    _ => prop_assert!(false, "Ok/Err divergence at {} threads", threads),
                }
            }
        }
    }
}

// Weighted-fair admission: the brownout ladder's fairness invariant,
// driven with random weights and random interleaved admit/release
// sequences against a shadow occupancy model. The whole suite runs
// under CI's POSTVAR_NUM_THREADS = 1, 2, 4 matrix; the controller sits
// inside the server's queue mutex, so its decisions must be a pure
// function of the admit/release sequence regardless of thread count.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn admission_is_weighted_fair_and_occupancy_exact(
        weights in proptest::collection::vec(1u32..5, 1..6),
        capacity in 8usize..64,
        high_frac_milli in 100u32..1200,
        ops in proptest::collection::vec((0usize..6, 0u8..4), 1..200),
    ) {
        use postvar::serve::{AdmissionController, BrownoutLevel, Rejected, TenantId};
        let high_water = ((capacity as u64 * high_frac_milli as u64) / 1000).max(1) as usize;
        let mut c = AdmissionController::new(capacity, high_water);
        let n = weights.len();
        for (i, &w) in weights.iter().enumerate() {
            c.set_tenant_weight(TenantId(i as u32), w);
        }
        let mut shadow = vec![0usize; n];
        let mut total = 0usize;
        for (t, action) in ops {
            let tenant = TenantId((t % n) as u32);
            let idx = t % n;
            if action == 3 {
                // Release one of this tenant's queued requests, if any.
                if shadow[idx] > 0 {
                    c.release(tenant);
                    shadow[idx] -= 1;
                    total -= 1;
                }
                continue;
            }
            let has_deadline = action != 1;
            let pre_level = c.level();
            let share = c.brownout_share(tenant);
            match c.admit(tenant, has_deadline) {
                Ok(()) => {
                    // Fairness, admit side: while shedding, only
                    // under-share tenants get in.
                    if pre_level >= BrownoutLevel::ShedOverShare {
                        prop_assert!(
                            shadow[idx] < share,
                            "over-share {tenant} admitted while shedding \
                             (depth {} ≥ share {share})", shadow[idx]
                        );
                    }
                    prop_assert!(total < capacity, "admission past the hard bound");
                    shadow[idx] += 1;
                    total += 1;
                }
                Err(Rejected::QueueFull { depth }) => {
                    prop_assert_eq!(total, capacity, "QueueFull below capacity");
                    prop_assert_eq!(depth, capacity);
                }
                Err(Rejected::TenantOverShare { tenant: who, depth, share: s }) => {
                    // Fairness, shed side: a tenant under its fair share
                    // is never shed as over-share.
                    prop_assert_eq!(who, tenant);
                    prop_assert_eq!(depth, shadow[idx]);
                    prop_assert_eq!(s, share);
                    prop_assert!(
                        shadow[idx] >= share,
                        "under-share {tenant} shed (depth {} < share {share})", shadow[idx]
                    );
                    prop_assert!(pre_level >= BrownoutLevel::ShedOverShare);
                }
                Err(Rejected::Deferred { .. }) => {
                    prop_assert!(!has_deadline, "deadline traffic deferred");
                    prop_assert_eq!(pre_level, BrownoutLevel::DeferSlack);
                    prop_assert!(shadow[idx] < share, "defer only reached under share");
                }
                Err(Rejected::Overloaded { .. }) => {
                    prop_assert_eq!(pre_level, BrownoutLevel::GlobalShed);
                }
                Err(other) => prop_assert!(false, "unexpected rejection {other:?}"),
            }
            // The controller's occupancy books must match the shadow
            // model exactly after every operation — the TOCTOU refactor's
            // whole point.
            prop_assert_eq!(c.depth(), total);
            prop_assert_eq!(c.depth_of(tenant), shadow[idx]);
        }
        for (i, &d) in shadow.iter().enumerate() {
            prop_assert_eq!(c.depth_of(TenantId(i as u32)), d);
        }
    }
}

/// Strategy: a trace time in µs — small, at the edge of what u64
/// nanoseconds can hold (`u64::MAX / 1000`), or anywhere in u64.
fn trace_us() -> impl proptest::strategy::Strategy<Value = u64> {
    (0..3u8, 0..u64::MAX).prop_map(|(kind, v)| match kind {
        0 => v % 100_000,
        1 => u64::MAX / 1000 - 2 + v % 5,
        _ => v,
    })
}

/// Strategy: one trace as two JSONL spellings of the same records. The
/// first rotates the field order, spells an absent deadline as omitted
/// or `null` and puts blank and comment lines between records; the
/// second writes every record in schema order with no filler. Tenants
/// straddle the u32 limit.
fn trace_texts() -> impl proptest::strategy::Strategy<Value = (String, String)> {
    let tenant = (0..2u8, 0..8u64).prop_map(|(wide, t)| {
        if wide == 0 {
            t
        } else {
            u32::MAX as u64 - 3 + t
        }
    });
    let record = (
        trace_us(),
        tenant,
        0..1000u64,
        (0..3u8, trace_us()),
        0..4usize,
        0..8u8,
    );
    proptest::collection::vec(record, 0..6).prop_map(|records| {
        let mut varied = String::new();
        let mut plain = String::new();
        for (at, tenant, point, (deadline_kind, deadline), rot, filler) in records {
            let filler = ["\n", "# comment\n"].get(filler as usize).unwrap_or(&"");
            let mut fields = vec![
                format!("\"at_us\": {at}"),
                format!("\"tenant\": {tenant}"),
                format!("\"point\": {point}"),
            ];
            match deadline_kind {
                0 => {}
                1 => fields.push("\"deadline_us\": null".to_string()),
                _ => fields.push(format!("\"deadline_us\": {deadline}")),
            }
            let plain_deadline = if deadline_kind > 1 {
                format!(", \"deadline_us\": {deadline}")
            } else {
                String::new()
            };
            plain.push_str(&format!(
                "{{\"at_us\": {at}, \"tenant\": {tenant}, \"point\": {point}{plain_deadline}}}\n"
            ));
            let rot = rot % fields.len();
            fields.rotate_left(rot);
            varied.push_str(&format!("{filler}{{{}}}\n", fields.join(", ")));
        }
        (varied, plain)
    })
}

/// Every trace the parsers accept serializes back to itself.
fn assert_round_trips(trace: &postvar::serve::ArrivalTrace) {
    let back = postvar::serve::ArrivalTrace::from_jsonl(&trace.to_jsonl())
        .expect("to_jsonl output must parse");
    assert_eq!(back.events(), trace.events());
}

// Trace parsers read hand-edited files: they must never panic, and every
// trace they accept must survive to_jsonl → from_jsonl unchanged.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn trace_parsers_never_panic_on_arbitrary_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..96),
    ) {
        use postvar::serve::ArrivalTrace;
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(t) = ArrivalTrace::from_jsonl(&text) {
            assert_round_trips(&t);
        }
    }

    #[test]
    fn accepted_traces_round_trip_and_formats_agree((varied, plain) in trace_texts()) {
        use postvar::serve::ArrivalTrace;
        let from_varied = ArrivalTrace::from_jsonl(&varied);
        let from_plain = ArrivalTrace::from_jsonl(&plain);
        if let Ok(t) = &from_varied {
            assert_round_trips(t);
        }
        prop_assert_eq!(
            from_varied.map(|t| t.events().to_vec()).ok(),
            from_plain.map(|t| t.events().to_vec()).ok()
        );
    }
}

// The cache-key contract (`serve::cache` module docs), per coordinate on
// the scaled values `v · quant_scale`: identical points share a key, a
// shared key means less than one grid step apart, and one step or more
// apart always means a different key.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn quantized_keys_shared_only_within_one_grid_step(
        scale_exp in 0i32..9,
        coords in proptest::collection::vec((-1.0f64..1.0, 0i32..7, -2.0f64..2.0), 1..6),
    ) {
        use postvar::serve::{quantize_key, MAX_COORDINATE};
        let s = 10f64.powi(scale_exp);
        let a: Vec<f64> = coords.iter().map(|&(u, mag, _)| u * 10f64.powi(mag)).collect();
        let b: Vec<f64> = coords
            .iter()
            .zip(&a)
            .map(|(&(_, _, steps), &x)| (x + steps / s).clamp(-MAX_COORDINATE, MAX_COORDINATE))
            .collect();
        let (ka, kb) = (quantize_key(&a, s), quantize_key(&b, s));
        prop_assert_eq!(&quantize_key(&a, s), &ka);
        let gaps: Vec<f64> = a.iter().zip(&b).map(|(x, y)| (x * s - y * s).abs()).collect();
        if ka == kb {
            prop_assert!(gaps.iter().all(|&g| g < 1.0), "shared key {ka:?} at gaps {gaps:?}");
        }
        for (i, &g) in gaps.iter().enumerate() {
            if g >= 1.0 {
                prop_assert_ne!(ka[i], kb[i], "gap {} steps shares a key", g);
            }
        }
    }
}
