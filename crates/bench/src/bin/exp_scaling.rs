//! The SC-system experiment: strong scaling of the quantum feature stage
//! over the simulated QPU pool, scheduler comparison, and the hybrid
//! pipeline's stage breakdown — plus the single-node kernel metrics that
//! are written to `BENCH_scaling.json` so CI can track the performance
//! trajectory across PRs.
//!
//! Run: `cargo run -p bench --bin exp_scaling --release`
//! Smoke mode (kernel metrics + JSON only, used by CI):
//!      `cargo run -p bench --bin exp_scaling --release -- --smoke`
//! Regression gate (CI): `-- --smoke --baseline <committed BENCH_scaling.json>`
//!      exits nonzero when a gated same-run ratio regresses by more than
//!      25%. Absolute wall-clock figures are reported but never gated:
//!      they move with the runner, a ratio of two kernels timed side by
//!      side does not.

use bench::{
    ab_compare, baseline_gate_failures, binary_task, feature_data, layer_circuit, mixed_pool_jobs,
    naive_feature_sweep, oversubscribed_batch, time_secs, ScalingReport, TablePrinter,
};
use hpcq::{strong_scaling, CircuitJob, HybridPipeline, QpuConfig, QpuPool, SchedulePolicy};
use pauli::local_paulis;
use pvqnn::ansatz::fig8_ansatz;
use pvqnn::features::{FeatureBackend, FeatureGenerator};
use pvqnn::strategy::Strategy;
use pvqnn::EncodingPlan;
use qsim::StateVector;
use std::path::Path;

/// Tracked metrics for the CI regression gate: `(key, higher_is_better)`.
/// Every one is a same-run ratio (optimized ÷ reference kernel, timed in
/// interleaved pairs); a >25% move in the losing direction fails the
/// smoke job.
const GATED_METRICS: [(&str, bool); 4] = [
    ("gate_fused_speedup", true),
    ("expectation_many_speedup", true),
    ("feature_reuse_speedup", true),
    ("encode_batched_speedup", true),
];

/// Interleaved A/B pairs behind each gated ratio (the median is kept).
const AB_PAIRS: usize = 11;

/// Allowed relative regression before the gate trips.
const REGRESSION_TOLERANCE: f64 = 0.25;

/// Host cores needed before the absolute multicore gates apply: below
/// this the speedup factors read ~1.0× by construction (a 1-core
/// container cannot scale), so the gate would only measure the runner.
const MULTICORE_GATE_MIN_THREADS: usize = 4;

/// Builds the full Algorithm-1 job batch for the hybrid 1-order+1-local
/// strategy: one job per (data point, shift), all 13 observables shared.
fn feature_jobs(data: &[Vec<f64>], shots: Option<usize>) -> (Vec<CircuitJob>, usize) {
    let strategy = Strategy::hybrid(fig8_ansatz(4), 1, 1);
    let generator = FeatureGenerator::new(strategy, FeatureBackend::Exact);
    let p = generator.strategy().num_ansatze();
    let observables = generator.strategy().observables().to_vec();
    let mut jobs = Vec::with_capacity(data.len() * p);
    let mut id = 0u64;
    for (i, x) in data.iter().enumerate() {
        for a in 0..p {
            jobs.push(CircuitJob::new(
                id,
                generator.circuit_for(x, a),
                observables.clone(),
                shots,
            ));
            id += 1;
        }
        let _ = i;
    }
    (jobs, p)
}

/// A heavier device-scale workload for the strong-scaling sweep: 13-qubit
/// encoded states (8 k amplitudes — deliberately *below* qsim's internal
/// rayon threshold so per-job kernels stay serial and parallelism comes
/// only from the device pool) with a 1-local observable family. Each job
/// costs milliseconds, the regime an actual QPU pool operates in.
fn heavy_jobs(count: usize) -> Vec<CircuitJob> {
    let n = 13;
    let observables: Vec<pauli::PauliString> = pauli::local_paulis(n, 1);
    (0..count as u64)
        .map(|id| {
            let x: Vec<f64> = (0..4 * n)
                .map(|j| 0.2 + 0.31 * ((id as usize * 7 + j * 3) % 17) as f64)
                .collect();
            let mut c = pvqnn::encoding::column_encoding(&x, n);
            for q in 0..n {
                c.push(qsim::Gate::Cnot {
                    control: q,
                    target: (q + 1) % n,
                });
            }
            CircuitJob::new(id, c, observables.clone(), None)
        })
        .collect()
}

/// Measures the single-node kernel metrics and writes `BENCH_scaling.json`.
///
/// Gated same-run ratios: fused ÷ unfused gate apply, fused ÷ per-term
/// expectation, encoding-state reuse ÷ re-simulation per shift, and
/// batched-SoA ÷ pointwise encode (the last two single-thread).
/// Informational: gate-apply ns/amplitude (raw and fused), encode
/// states/s, feature rows/s (exact and batched finite-shot backends),
/// shadow estimates/s, the thread-pool scaling factor on a large gate
/// kernel, and the shared-executor vs oversubscribed device-pool
/// comparison on mixed job sizes.
fn kernel_metrics() -> ScalingReport {
    println!("-- single-node kernel metrics (written to BENCH_scaling.json) --");
    let threads = rayon::current_num_threads();
    let host_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut report = ScalingReport::new();
    report.put_str("schema", "postvar.bench_scaling.v1");
    report.put("threads", threads as f64);
    // The physical core count decides whether the absolute multicore
    // gates (thread_pool_speedup, pool_shared_speedup) are meaningful on
    // this runner.
    report.put("host_threads", host_threads as f64);

    // Gate application cost per amplitude: one dense layer on 2^18 amps,
    // raw and through the one-time compiler (single-qubit runs collapse
    // to one 2×2 per wire, entanglers pass through to their specialized
    // kernels). Both are normalized by *source* gates (the sweeps the
    // uncompiled path performs), so the two ns/amp figures compare
    // directly; the gate is their same-run ratio.
    let n = 18;
    let circuit = layer_circuit(n);
    let compiled = qsim::compile(&circuit);
    let amps = (1usize << n) as f64;
    let fusion = ab_compare(
        AB_PAIRS,
        || StateVector::from_circuit(&circuit),
        || StateVector::from_compiled(&compiled),
    );
    let gate_ns_per_amp = fusion.a_secs * 1e9 / (amps * circuit.len() as f64);
    let fused_ns_per_amp = fusion.b_secs * 1e9 / (amps * compiled.source_gates() as f64);
    let fusion_ratio = compiled.source_gates() as f64 / compiled.num_ops() as f64;
    println!(
        "gate apply:          {gate_ns_per_amp:>9.3} ns/amp ({} gates, 2^{n} amps)",
        circuit.len()
    );
    println!(
        "gate apply (fused):  {fused_ns_per_amp:>9.3} ns/amp ({} ops from {} gates, {fusion_ratio:.2}x fusion, {:.2}x faster)",
        compiled.num_ops(),
        compiled.source_gates(),
        fusion.speedup
    );
    assert!(
        fusion.speedup > 1.0,
        "fused apply must beat the unfused path (median speedup {:.3}x)",
        fusion.speedup
    );
    report.put("gate_apply_ns_per_amp", gate_ns_per_amp);
    report.put("gate_fused_ns_per_amp", fused_ns_per_amp);
    report.put("gate_fused_speedup", fusion.speedup);
    report.put("gate_fusion_ratio", fusion_ratio);

    // Thread-pool scaling on the same workload (1 thread vs all).
    let t1 = rayon::with_num_threads(1, || time_secs(3, || StateVector::from_circuit(&circuit)));
    let tn = time_secs(3, || StateVector::from_circuit(&circuit));
    let pool_speedup = t1 / tn.max(1e-12);
    println!("thread pool:         {pool_speedup:>9.2}x speedup at {threads} thread(s)");
    report.put("thread_pool_speedup", pool_speedup);

    // Fused multi-observable expectation vs the per-term loop: 16-qubit
    // state, all 49 one-local Paulis (the acceptance workload).
    let state = StateVector::from_circuit(&layer_circuit(16));
    let fam = local_paulis(16, 1);
    let fused_speedup = ab_compare(
        AB_PAIRS,
        || fam.iter().map(|p| state.expectation(p)).sum::<f64>(),
        || state.expectation_many(&fam).iter().sum::<f64>(),
    )
    .speedup;
    println!(
        "expectation_many:    {fused_speedup:>9.2}x vs per-term ({} observables, 16 qubits)",
        fam.len()
    );
    report.put("expectation_many_speedup", fused_speedup);
    report.put("expectation_many_observables", fam.len() as f64);

    // Feature generation throughput (hybrid 1-order + 1-local, exact), and
    // the encoding-state-reuse win over re-simulating S(x) per shift —
    // both pinned to one thread so the ratio isolates the reuse.
    let data = feature_data(16);
    let generator = FeatureGenerator::new(
        Strategy::hybrid(fig8_ansatz(4), 1, 1),
        FeatureBackend::Exact,
    );
    let reuse_speedup = rayon::with_num_threads(1, || {
        ab_compare(
            AB_PAIRS,
            || naive_feature_sweep(&generator, &data),
            || generator.generate(&data),
        )
    })
    .speedup;
    let rows_per_s = data.len() as f64 / time_secs(3, || generator.generate(&data));
    println!("feature rows:        {rows_per_s:>9.1} rows/s (hybrid 1o+1l, exact)");
    println!("encoding reuse:      {reuse_speedup:>9.2}x vs re-simulating per shift (1 thread)");
    report.put("features_rows_per_s", rows_per_s);
    report.put("feature_reuse_speedup", reuse_speedup);

    // Batched finite-shot feature throughput: the Shots backend samples
    // all shifts of a row in one pass (one RNG per row, one rotation +
    // CDF sampler per commuting observable group).
    let shot_generator = FeatureGenerator::new(
        Strategy::hybrid(fig8_ansatz(4), 1, 1),
        FeatureBackend::Shots {
            shots: 128,
            seed: 7,
        },
    );
    let shot_rows_per_s = data.len() as f64 / time_secs(3, || shot_generator.generate(&data));
    println!("feature rows (shots): {shot_rows_per_s:>8.1} rows/s (128 shots, batched sampling)");
    report.put("features_shots_rows_per_s", shot_rows_per_s);

    // Batched SoA encoding vs point-by-point: the serving shape (16
    // features on 4 qubits, the fig. 7 column encoding) over 256 points,
    // pinned to one thread so the ratio isolates the amplitude-major
    // layout rather than rayon fan-out.
    let enc_points = feature_data(256);
    let enc_refs: Vec<&[f64]> = enc_points.iter().map(Vec::as_slice).collect();
    let plan = EncodingPlan::new(16, 4);
    let encode = rayon::with_num_threads(1, || {
        ab_compare(
            AB_PAIRS,
            || {
                enc_refs
                    .iter()
                    .map(|x| plan.encode_one(x))
                    .collect::<Vec<_>>()
            },
            || plan.encode_batch(&enc_refs),
        )
    });
    let encode_point_rows_per_s = enc_refs.len() as f64 / encode.a_secs.max(1e-12);
    let encode_batched_rows_per_s = enc_refs.len() as f64 / encode.b_secs.max(1e-12);
    println!(
        "encode (pointwise):  {encode_point_rows_per_s:>9.0} states/s (16 features, 4 qubits, 1 thread)"
    );
    println!(
        "encode (batched):    {encode_batched_rows_per_s:>9.0} states/s ({:.2}x median, amplitude-major SoA)",
        encode.speedup
    );
    assert!(
        encode.speedup > 1.0,
        "batched SoA encode must beat the point-by-point path (median speedup {:.3}x)",
        encode.speedup
    );
    report.put("encode_pointwise_rows_per_s", encode_point_rows_per_s);
    report.put("encode_batched_rows_per_s", encode_batched_rows_per_s);
    report.put("encode_batched_speedup", encode.speedup);

    // Devices + kernels sharing one executor vs the oversubscribed
    // baseline (private device threads, uncapped kernel fan-out) on a
    // mixed-size batch.
    let mixed = mixed_pool_jobs(17, 10, 4, 6, 8);
    let n_dev = 4;
    let t_shared = time_secs(2, || {
        let mut pool =
            QpuPool::homogeneous(n_dev, QpuConfig::default(), SchedulePolicy::WorkStealing);
        pool.execute_batch(mixed.clone())
    });
    let t_oversub = time_secs(2, || oversubscribed_batch(&mixed, n_dev));
    let pool_shared_speedup = t_oversub / t_shared.max(1e-12);
    println!(
        "pool executor share:  {pool_shared_speedup:>8.2}x vs oversubscribed ({n_dev} devices, mixed 17q/10q jobs)"
    );
    report.put("pool_shared_speedup", pool_shared_speedup);

    // Executor contention: many tiny scoped tasks, where virtually all
    // the time is queue traffic — the workload the lock-free Chase-Lev
    // deques and batched steals target. The steal-counter diff makes the
    // batching visible: tasks moved per successful steal operation.
    let tiny_tasks = 50 * 64;
    let tiny_round = || {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let hits = AtomicUsize::new(0);
        for _ in 0..50 {
            rayon::scope(|s| {
                for _ in 0..64 {
                    let hits = &hits;
                    s.spawn(move || {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
        assert_eq!(hits.load(Ordering::Relaxed), tiny_tasks);
    };
    let (ops_before, moved_before) = rayon::executor_steal_stats();
    let t_tiny = time_secs(3, tiny_round);
    let (ops_after, moved_after) = rayon::executor_steal_stats();
    let tiny_per_s = tiny_tasks as f64 / t_tiny.max(1e-12);
    let steal_ops = ops_after.saturating_sub(ops_before);
    let tasks_per_op = if steal_ops > 0 {
        moved_after.saturating_sub(moved_before) as f64 / steal_ops as f64
    } else {
        // No steals at all (e.g. a 1-thread pool running everything
        // inline on the owner) — report the neutral ratio.
        1.0
    };
    println!("executor tiny tasks: {tiny_per_s:>9.0} tasks/s (64-task scopes, no kernel work)");
    println!(
        "steal batching:      {tasks_per_op:>9.2} tasks moved per steal op ({steal_ops} steals)"
    );
    report.put("executor_tiny_tasks_per_s", tiny_per_s);
    report.put("executor_steal_tasks_per_op", tasks_per_op);

    // Shadow estimation throughput: estimates/s over a shared snapshot set.
    let shadow_state = StateVector::from_circuit(&layer_circuit(4));
    let snapshots = shadows::ShadowProtocol::new(20_000, 7).acquire(&shadow_state);
    let est = shadows::ShadowEstimator::new(snapshots, 10);
    let shadow_fam = local_paulis(4, 2);
    let t_shadow = time_secs(3, || est.estimate_many(&shadow_fam));
    let est_per_s = shadow_fam.len() as f64 / t_shadow.max(1e-12);
    println!(
        "shadow estimates:    {est_per_s:>9.1} est/s ({} observables, 20k snapshots)\n",
        shadow_fam.len()
    );
    report.put("shadows_est_per_s", est_per_s);

    let path = Path::new("BENCH_scaling.json");
    match report.write_to(path) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
    report
}

/// Diffs the fresh metrics against a committed baseline report and
/// returns the human-readable failures (direction-aware, >25% moves in
/// the losing direction only — improvements never fail the gate).
fn baseline_regressions(fresh: &ScalingReport, baseline_path: &Path) -> Vec<String> {
    baseline_gate_failures(fresh, baseline_path, &GATED_METRICS, REGRESSION_TOLERANCE)
}

/// Absolute multicore scaling gates — only meaningful when the runner
/// actually has cores to scale over. On a ≥4-core host the shared
/// executor must deliver `thread_pool_speedup ≥ 2×` on the big gate
/// kernel and `pool_shared_speedup > 1×` against the oversubscribed
/// device-pool baseline; below that the check is skipped with a notice
/// (the factors read ~1.0× by construction in a 1-core container).
fn multicore_gate_failures(fresh: &ScalingReport) -> Vec<String> {
    let host_threads = fresh.get("host_threads").unwrap_or(1.0) as usize;
    if host_threads < MULTICORE_GATE_MIN_THREADS {
        println!(
            "multicore gate: skipped — runner has {host_threads} core(s), \
             needs ≥{MULTICORE_GATE_MIN_THREADS} for the speedup targets to apply"
        );
        return Vec::new();
    }
    let mut failures = Vec::new();
    match fresh.get("thread_pool_speedup") {
        Some(v) if v >= 2.0 => {}
        Some(v) => failures.push(format!(
            "thread_pool_speedup {v:.2} < 2.0 on a {host_threads}-core runner"
        )),
        None => failures.push("thread_pool_speedup missing from fresh report".to_string()),
    }
    match fresh.get("pool_shared_speedup") {
        Some(v) if v > 1.0 => {}
        Some(v) => failures.push(format!(
            "pool_shared_speedup {v:.2} ≤ 1.0 on a {host_threads}-core runner"
        )),
        None => failures.push("pool_shared_speedup missing from fresh report".to_string()),
    }
    if failures.is_empty() {
        println!("multicore gate: passed on {host_threads} cores (pool ≥2x, sharing >1x)");
    }
    failures
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let report = kernel_metrics();
    if let Some(pos) = args.iter().position(|a| a == "--baseline") {
        let path = args
            .get(pos + 1)
            .expect("--baseline needs a path to the committed BENCH_scaling.json");
        let mut failures = baseline_regressions(&report, Path::new(path));
        failures.extend(multicore_gate_failures(&report));
        if failures.is_empty() {
            println!(
                "baseline check: all gated metrics within {:.0}%",
                REGRESSION_TOLERANCE * 100.0
            );
        } else {
            for f in &failures {
                eprintln!("baseline check FAILED: {f}");
            }
            std::process::exit(1);
        }
    }
    if args.iter().any(|a| a == "--smoke") {
        return;
    }
    println!("\n== HPC-QC system: strong scaling of the quantum feature stage ==\n");
    let task = binary_task(50, 0, 3);
    let (jobs, p) = feature_jobs(&task.train_x, Some(256));
    println!(
        "pipeline workload: {} jobs ({} samples × {p} shifted circuits), 13 observables, 256 shots each",
        jobs.len(),
        task.train_x.len()
    );

    // --- Strong scaling with the work-stealing scheduler on the heavy
    //     (14-qubit) workload.
    let heavy = heavy_jobs(256);
    println!(
        "scaling workload: {} jobs, 13-qubit states, {} observables each\n",
        heavy.len(),
        heavy[0].observables.len()
    );
    println!("-- strong scaling (work stealing, 13-qubit jobs) --");
    println!(
        "   host has {} cores: wall-clock speedup caps there; the QPU-side metric",
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    );
    println!("   is the simulated pool makespan (devices are the parallel resource)\n");
    let counts = [1usize, 2, 4, 8];
    let points = strong_scaling(
        &heavy,
        &counts,
        QpuConfig::default(),
        SchedulePolicy::WorkStealing,
    );
    let base_makespan = points[0].sim_makespan_secs;
    let mut table = TablePrinter::new(&[
        "devices",
        "wall s",
        "wall speedup",
        "QPU makespan s",
        "QPU speedup",
        "QPU efficiency",
    ]);
    for pt in &points {
        let qpu_speedup = base_makespan / pt.sim_makespan_secs.max(1e-12);
        table.row(&[
            pt.devices.to_string(),
            format!("{:.3}", pt.wall_secs),
            format!("{:.2}×", pt.speedup),
            format!("{:.4}", pt.sim_makespan_secs),
            format!("{qpu_speedup:.2}×"),
            format!("{:.0}%", qpu_speedup / pt.devices as f64 * 100.0),
        ]);
    }
    table.print();

    // --- Scheduler comparison at 4 devices.
    println!("\n-- scheduler comparison (4 devices) --");
    let mut table = TablePrinter::new(&[
        "policy",
        "wall s",
        "sim makespan s",
        "utilization",
        "jobs/device (min..max)",
    ]);
    for policy in [
        SchedulePolicy::RoundRobin,
        SchedulePolicy::LeastLoaded,
        SchedulePolicy::WorkStealing,
    ] {
        let mut pool = QpuPool::homogeneous(4, QpuConfig::default(), policy);
        let (_, report) = pool.execute_batch(jobs.clone());
        let min = report.jobs_per_device.iter().min().unwrap();
        let max = report.jobs_per_device.iter().max().unwrap();
        table.row(&[
            format!("{policy:?}"),
            format!("{:.3}", report.wall_secs),
            format!("{:.3}", report.sim_makespan_secs),
            format!("{:.0}%", report.utilization * 100.0),
            format!("{min}..{max}"),
        ]);
    }
    table.print();

    // --- Hybrid pipeline stage breakdown.
    println!("\n-- hybrid pipeline: quantum stage vs classical convex stage --");
    let pool = QpuPool::homogeneous(4, QpuConfig::default(), SchedulePolicy::WorkStealing);
    let mut pipeline = HybridPipeline::new(pool);
    let labels = task.train_y.clone();
    let samples = task.train_x.len();
    let ((), report) = pipeline
        .run(jobs, |results| {
            // Classical stage: assemble Q (samples × p·q) and fit the head.
            let q_per_job = results[0].values.len();
            let rows: Vec<Vec<f64>> = (0..samples)
                .map(|i| {
                    let mut row = Vec::with_capacity(p * q_per_job);
                    for a in 0..p {
                        row.extend_from_slice(&results[i * p + a].values);
                    }
                    row
                })
                .collect();
            let mat = linalg::Mat::from_rows(&rows);
            let _model = ml::LogisticRegression::fit(&mat, &labels, ml::LogisticConfig::default());
        })
        .expect("healthy pool completes every job");
    println!(
        "quantum stage: {:.3}s ({:.0}% of total) | classical stage: {:.3}s | device util {:.0}%",
        report.quantum_secs,
        report.quantum_fraction() * 100.0,
        report.classical_secs,
        report.pool.utilization * 100.0
    );
    println!("\nSC framing: one non-interactive quantum batch (Table I) scales across the pool;");
    println!("the classical convex fit is a single host-side solve — no hybrid feedback loop.");
}
