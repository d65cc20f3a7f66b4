//! The fault-injection experiment: deterministic chaos schedules
//! replayed against the simulated QPU pool, measuring availability and
//! the recovery machinery's activity while devices die, flap, and
//! straggle.
//!
//! Run:        `cargo run -p bench --bin exp_faults --release`
//! Smoke (CI): `cargo run -p bench --bin exp_faults --release -- --smoke`
//! Gate (CI):  `-- --smoke --baseline <committed BENCH_scaling.json>`
//!
//! Every schedule is a [`hpcq::FaultSchedule`] pinned to simulated time,
//! so the chaos — outage windows, degraded phases, flapping — replays
//! bit-for-bit on any host. Four scenarios:
//!
//! 1. **single-device outage** — one device of four goes dark mid-batch;
//!    retries + failover must keep availability ≥ 99% (gated metric).
//! 2. **rolling outages** — each device takes its turn being down.
//! 3. **straggler storm** — half the pool runs 5× slow; hedged dispatch
//!    races replicas on the healthy half.
//! 4. **flapping device** — short on/off outage bursts; the circuit
//!    breaker quarantines the flapper and probes it back in.
//!
//! The headline metric `faults_availability` (scenario 1's completed ÷
//! offered, higher is better) is merged into `BENCH_scaling.json` under
//! the 25% regression gate, on top of its hard 99% floor. Latencies
//! here would come from the pool's simulated device model, not a
//! measurement, so none is reported.

use bench::{baseline_gate_failures, read_numbers, ScalingReport, TablePrinter};
use hpcq::{outcome_id, CircuitJob, FaultSchedule, JobOutcome, PoolReport, QpuConfig, QpuPool};
use pauli::{local_paulis, PauliString};
use qsim::{Circuit, Gate};
use std::path::Path;

/// Gate tolerance, matching exp_scaling's.
const REGRESSION_TOLERANCE: f64 = 0.25;

/// `(key, higher_is_better)` for the baseline gate.
const GATED_METRICS: [(&str, bool); 1] = [("faults_availability", true)];

/// Pool size for every scenario.
const DEVICES: usize = 4;

/// Single-device outage window (simulated ns): device 0 is dark from
/// 100 µs to 600 µs — long enough that its queued jobs must fail over.
const OUTAGE_START_NS: u64 = 100_000;
const OUTAGE_END_NS: u64 = 600_000;

/// One 8-qubit circuit job per id — heavy enough that the latency model
/// dominates scheduling noise, light enough for the CI smoke budget.
fn chaos_jobs(n: usize) -> Vec<CircuitJob> {
    let obs = local_paulis(8, 1);
    (0..n as u64)
        .map(|id| {
            let mut c = Circuit::new(8);
            for layer in 0..4 {
                for q in 0..8 {
                    c.push(Gate::Ry(q, 0.07 * (id as f64 + layer as f64 + q as f64)));
                }
                for q in 0..7 {
                    c.push(Gate::Cnot {
                        control: q,
                        target: q + 1,
                    });
                }
            }
            let obs: Vec<PauliString> = obs.clone();
            CircuitJob::new(id, c, obs, None)
        })
        .collect()
}

/// A pool where device `d` carries `schedules[d]`.
fn chaos_pool(schedules: Vec<FaultSchedule>) -> QpuPool {
    let configs: Vec<QpuConfig> = schedules
        .into_iter()
        .map(|faults| QpuConfig {
            faults,
            ..Default::default()
        })
        .collect();
    QpuPool::heterogeneous(configs)
}

/// Per-scenario outcome summary.
struct ScenarioResult {
    completed: usize,
    total: usize,
    report: PoolReport,
    outcomes: Vec<JobOutcome>,
}

impl ScenarioResult {
    fn availability(&self) -> f64 {
        self.completed as f64 / self.total as f64
    }
}

fn run_scenario(schedules: Vec<FaultSchedule>, n_jobs: usize) -> ScenarioResult {
    let mut pool = chaos_pool(schedules);
    let jobs = chaos_jobs(n_jobs);
    let total = jobs.len();
    let (outcomes, report) = pool.execute_batch(jobs);
    assert_eq!(outcomes.len(), total, "no lost or duplicated jobs");
    let completed = outcomes.iter().filter(|o| o.is_ok()).count();
    ScenarioResult {
        completed,
        total,
        report,
        outcomes,
    }
}

/// Scenario 1: device 0 dark for `[OUTAGE_START_NS, OUTAGE_END_NS)`.
fn single_outage_schedules() -> Vec<FaultSchedule> {
    let mut s = vec![FaultSchedule::none(); DEVICES];
    s[0] = FaultSchedule::none().with_outage(OUTAGE_START_NS, OUTAGE_END_NS);
    s
}

/// Scenario 2: each device takes a 250 µs turn being down.
fn rolling_schedules() -> Vec<FaultSchedule> {
    (0..DEVICES as u64)
        .map(|d| FaultSchedule::none().with_outage(d * 250_000, (d + 1) * 250_000))
        .collect()
}

/// Scenario 3: half the pool runs 5× slow for the first 2 ms.
fn straggler_schedules() -> Vec<FaultSchedule> {
    (0..DEVICES)
        .map(|d| {
            if d < DEVICES / 2 {
                FaultSchedule::none().with_degraded(0, 2_000_000, 5.0)
            } else {
                FaultSchedule::none()
            }
        })
        .collect()
}

/// Scenario 4: device 0 flaps — 120 µs down out of every 160 µs. Each
/// down-phase is long enough (6 failed 20 µs submissions) to cross the
/// breaker's consecutive-failure threshold and trip quarantine.
fn flapping_schedules() -> Vec<FaultSchedule> {
    let mut flapper = FaultSchedule::none();
    for k in 0..8u64 {
        flapper = flapper.with_outage(k * 160_000, k * 160_000 + 120_000);
    }
    let mut s = vec![FaultSchedule::none(); DEVICES];
    s[0] = flapper;
    s
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let n_jobs = if smoke { 120 } else { 400 };
    let mut failures: Vec<String> = Vec::new();

    println!("-- chaos replay: {DEVICES} devices, {n_jobs} jobs, deterministic fault schedules --");

    // Reference: the same batch on a fault-free pool. Exact jobs never
    // touch a device rng, so every completed chaos result must be
    // bit-for-bit identical to this.
    let clean = run_scenario(vec![FaultSchedule::none(); DEVICES], n_jobs);
    assert_eq!(
        clean.completed, clean.total,
        "fault-free pool completes all"
    );

    let mut table = TablePrinter::new(&[
        "scenario",
        "availability",
        "retries",
        "failovers",
        "hedges",
        "trips",
        "probes",
    ]);

    let scenarios: [(&str, Vec<FaultSchedule>); 4] = [
        ("single-device outage", single_outage_schedules()),
        ("rolling outages", rolling_schedules()),
        ("straggler storm", straggler_schedules()),
        ("flapping device", flapping_schedules()),
    ];

    let mut headline_availability = 1.0f64;
    for (name, schedules) in scenarios {
        let r = run_scenario(schedules, n_jobs);
        table.row(&[
            name.to_string(),
            format!("{:.2}%", r.availability() * 100.0),
            r.report.faults.retries.to_string(),
            r.report.faults.failovers.to_string(),
            format!(
                "{}/{}",
                r.report.faults.hedges_won, r.report.faults.hedges_launched
            ),
            r.report.faults.breaker_trips.to_string(),
            r.report.faults.probes.to_string(),
        ]);

        // Bit-for-bit: every job the chaos pool completed must carry the
        // values the fault-free pool computed for the same id.
        for (o, c) in r.outcomes.iter().zip(clean.outcomes.iter()) {
            assert_eq!(outcome_id(o), outcome_id(c), "id alignment");
            if let (Ok(chaos), Ok(clean)) = (o, c) {
                if chaos.values != clean.values {
                    failures.push(format!(
                        "{name}: job {} diverged from the fault-free pool",
                        chaos.id
                    ));
                    break;
                }
            }
        }

        if name == "single-device outage" {
            headline_availability = r.availability();
            if r.availability() < 0.99 {
                failures.push(format!(
                    "single-device outage availability {:.2}% below 99%",
                    r.availability() * 100.0
                ));
            }
            if r.report.faults.retries == 0 {
                failures.push("outage scenario exercised zero retries".to_string());
            }
        }
        if name == "straggler storm" && r.report.faults.hedges_launched == 0 {
            failures.push("straggler storm launched zero hedges".to_string());
        }
        if name == "flapping device" && r.report.faults.breaker_trips == 0 {
            failures.push("flapping device tripped zero breakers".to_string());
        }
    }
    table.print();

    // Cross-thread determinism: dispatch runs on the simulated clock, so
    // the same schedule reproduces the same outcomes (placement, values,
    // completion times, typed errors) and fault counters whatever the
    // executor's thread count.
    let replay = |threads: usize| {
        rayon::with_num_threads(threads, || run_scenario(single_outage_schedules(), n_jobs))
    };
    let (a, b) = (replay(1), replay(2));
    if a.outcomes != b.outcomes || a.report.faults != b.report.faults {
        failures.push("chaos replay differed between 1 and 2 threads".to_string());
    }
    for (threads, r) in [(1, &a), (2, &b)] {
        if r.availability() < 0.99 {
            failures.push(format!(
                "{threads}-thread availability {:.2}% below 99% under single-device outage",
                r.availability() * 100.0
            ));
        }
    }
    println!("cross-thread: single-device outage replayed identically at 1 and 2 threads");

    // Merge the fault metrics into BENCH_scaling.json (preserving what
    // exp_scaling / exp_serving already wrote there).
    let path = Path::new("BENCH_scaling.json");
    let mut report = ScalingReport::new();
    report.put_str("schema", "postvar.bench_scaling.v1");
    if let Ok(existing) = read_numbers(path) {
        for (key, value) in existing {
            if !key.starts_with("faults_") {
                report.put(&key, value);
            }
        }
    }
    report.put("faults_availability", headline_availability);
    match report.write_to(path) {
        Ok(()) => println!("merged fault metrics into {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }

    if let Some(pos) = args.iter().position(|a| a == "--baseline") {
        let baseline_path = args
            .get(pos + 1)
            .expect("--baseline needs a path to the committed BENCH_scaling.json");
        failures.extend(baseline_gate_failures(
            &report,
            Path::new(baseline_path),
            &GATED_METRICS,
            REGRESSION_TOLERANCE,
        ));
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("faults check FAILED: {f}");
        }
        std::process::exit(1);
    }
    println!(
        "fault checks passed (availability {:.2}% ≥ 99%, chaos results bit-identical to fault-free)",
        headline_availability * 100.0
    );
}
