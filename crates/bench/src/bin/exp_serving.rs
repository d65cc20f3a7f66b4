//! The serving experiment: deterministic multi-tenant behaviour of the
//! micro-batching inference server — a typed-shed overload burst, a
//! flood-isolation measurement (one tenant at ~10× its fair share must
//! not move a well-behaved tenant's tail), and trace-replay scenarios
//! with windowed time-series output.
//!
//! Run:        `cargo run -p bench --bin exp_serving --release`
//! Smoke (CI): `cargo run -p bench --bin exp_serving --release -- --smoke`
//! Gate (CI):  `-- --smoke --baseline <committed BENCH_scaling.json>`
//! Scenarios:  `-- --smoke --scenario burst|diurnal|flash|overload+outage`
//!
//! The serving metrics are **merged into** `BENCH_scaling.json`
//! (written beforehand by `exp_scaling --smoke` in CI). Everything here
//! runs on the server's simulated clock with seeded workloads, so the
//! metrics are bit-for-bit reproducible across hosts — the smoke
//! assertions (flooded tenants stay isolated; the Zipf stream hits the
//! cache; the healthy path never touches fault recovery; served ≡
//! standalone) and the >25% baseline gate can never flake. These are
//! behavioural checks, not throughput figures: `perfbench`'s
//! `serve_hot` workload measures serving rows/s and latency on the wall
//! clock. Scenario mode replays one named workload and asserts its
//! robustness properties without touching the report.

use bench::{baseline_gate_failures, read_numbers, ScalingReport, TablePrinter};
use pvqnn::features::FeatureBackend;
use pvqnn::model::RegressorMode;
use pvqnn::{FeatureGenerator, PostVarRegressor, Strategy};
use serve::{
    demo_catalogue, replay_trace, synthesize_trace, BrownoutLevel, FeatureEngine, MonitorSample,
    Prediction, RateProfile, Rejected, Server, ServerConfig, ServerStats, TenantId, TenantLoad,
};
use std::path::Path;

/// Gate tolerance, matching exp_scaling's.
const REGRESSION_TOLERANCE: f64 = 0.25;

/// `(key, higher_is_better)` for the baseline gate.
const GATED_METRICS: [(&str, bool); 1] = [("serving_tenant_isolation", false)];

/// Distinct data points the request stream draws from.
const CATALOGUE: usize = 64;

fn catalogue() -> Vec<Vec<f64>> {
    demo_catalogue(CATALOGUE)
}

fn model() -> PostVarRegressor {
    let data = catalogue();
    let y: Vec<f64> = (0..CATALOGUE).map(|i| (i as f64 * 0.31).sin()).collect();
    let generator = FeatureGenerator::new(
        Strategy::observable_construction(4, 1),
        FeatureBackend::Exact,
    );
    PostVarRegressor::fit(generator, &data, &y, RegressorMode::Ridge(1e-6))
}

/// Reference predictions per catalogue index, from standalone `predict`
/// calls — the bit-for-bit target every served response is checked
/// against.
fn expected_predictions(m: &PostVarRegressor, points: &[Vec<f64>]) -> Vec<Prediction> {
    points
        .iter()
        .map(|p| Prediction::Value(m.predict(std::slice::from_ref(p))[0]))
        .collect()
}

/// Prints the windowed monitoring series of a replay.
fn print_series(samples: &[MonitorSample]) {
    let mut table = TablePrinter::new(&[
        "t (ms)",
        "depth",
        "level",
        "done",
        "shed",
        "hit rate",
        "per-tenant p99 (ms)",
    ]);
    for s in samples {
        let p99s = s
            .tenant_p99_ms
            .iter()
            .map(|(t, p)| format!("{t} {p:.2}"))
            .collect::<Vec<_>>()
            .join("  ");
        table.row(&[
            format!("{:.0}", s.t_ns as f64 / 1e6),
            s.queue_depth.to_string(),
            s.level.to_string(),
            s.completed.to_string(),
            s.shed.to_string(),
            format!("{:.0}%", s.cache_hit_rate * 100.0),
            p99s,
        ]);
    }
    table.print();
}

/// Prints the per-tenant accounting table of a finished run.
fn print_tenants(stats: &ServerStats) {
    let mut table = TablePrinter::new(&[
        "tenant",
        "offered",
        "served",
        "shed",
        "dropped",
        "avail",
        "p50 ms",
        "p99 ms",
        "cache hits",
    ]);
    for t in &stats.per_tenant {
        table.row(&[
            t.tenant.to_string(),
            t.submitted.to_string(),
            t.completed.to_string(),
            t.shed.to_string(),
            t.dropped.to_string(),
            format!("{:.1}%", t.availability() * 100.0),
            format!("{:.2}", t.p50_ms),
            format!("{:.2}", t.p99_ms),
            t.cache_hits.to_string(),
        ]);
    }
    table.print();
}

/// Serves every catalogue point once so a replay measures steady-state
/// overload, not the cold-cache transient (which would otherwise make
/// the first few batches ~13× slower and dominate a short horizon).
fn warm_cache(server: &Server, points: &[Vec<f64>]) {
    // Chunked so the warmup itself stays under even a small high-water
    // mark instead of tripping the ladder it exists to measure.
    for chunk in points.chunks(8) {
        let warmup: Vec<_> = chunk
            .iter()
            .map(|p| server.submit(p.clone()).expect("warmup admitted"))
            .collect();
        server.drain();
        for h in warmup {
            h.wait().expect("warmup served");
        }
    }
}

/// What the flood-isolation phase measured.
struct IsolationOutcome {
    /// Well-behaved tenant's p99 under attack ÷ its solo-run p99 —
    /// the `serving_tenant_isolation` gate metric (1.0 = unmoved).
    isolation: f64,
    /// Well-behaved tenant's availability under attack.
    availability: f64,
    /// Bitwise prediction divergences across both runs.
    mismatches: u64,
    /// Server stats at the end of the attack run.
    attack: ServerStats,
    /// Whether either run touched the fault machinery (local engine:
    /// it must not).
    fault_activity: bool,
}

/// The flood-isolation measurement behind the acceptance criterion: a
/// well-behaved tenant is replayed solo to get its baseline tail, then
/// replayed again while a flooding tenant offers ~10× its fair share.
/// Weighted-fair admission + WRR batch slots must keep the victim's
/// availability and p99 flat, and every served prediction bit-for-bit.
fn flood_isolation(smoke: bool) -> IsolationOutcome {
    let horizon_ns: u64 = if smoke { 60_000_000 } else { 240_000_000 };
    let window_ns: u64 = horizon_ns / 12;
    let m = model();
    let points = catalogue();
    let expected = expected_predictions(&m, &points);
    let good = TenantLoad {
        tenant: TenantId(1),
        profile: RateProfile::Constant {
            rate_per_s: 20_000.0,
        },
        zipf_s: 1.1,
        deadline_ns: Some(20_000_000),
    };
    // ~10× the fair half-share of a service that sustains ~75k rows/s.
    let flood = TenantLoad {
        tenant: TenantId(2),
        profile: RateProfile::Constant {
            rate_per_s: 400_000.0,
        },
        zipf_s: 1.1,
        deadline_ns: Some(50_000_000),
    };
    // Per-tenant trace streams are independently seeded, so the good
    // tenant's arrivals are identical with and without the flood.
    let solo_trace = synthesize_trace(&[good], horizon_ns, points.len(), 2025);
    let attack_trace = synthesize_trace(&[good, flood], horizon_ns, points.len(), 2025);
    let run = |trace| {
        let server = Server::new(ServerConfig {
            queue_capacity: 256,
            high_water: 128,
            ..Default::default()
        });
        server.deploy(m.clone());
        server.set_tenant_weight(TenantId(1), 1);
        server.set_tenant_weight(TenantId(2), 1);
        warm_cache(&server, &points);
        replay_trace(&server, &points, trace, window_ns, Some(&expected))
    };
    let solo = run(&solo_trace);
    let attack = run(&attack_trace);
    let solo_t = solo.stats.tenant(TenantId(1)).expect("solo tenant row");
    let attack_t = attack.stats.tenant(TenantId(1)).expect("victim row");
    let flood_t = attack.stats.tenant(TenantId(2)).expect("flooder row");
    println!(
        "\n-- flood isolation: tenant 1 (20k/s, deadline 20ms) vs tenant 2 flooding 400k/s --"
    );
    println!(
        "solo:                p99 {:>7.2} ms | {:>6} served | availability {:.2}%",
        solo_t.p99_ms,
        solo_t.completed,
        solo_t.availability() * 100.0
    );
    println!(
        "under attack:        p99 {:>7.2} ms | {:>6} served | availability {:.2}% | flooder shed {} of {}",
        attack_t.p99_ms,
        attack_t.completed,
        attack_t.availability() * 100.0,
        flood_t.shed,
        flood_t.submitted,
    );
    println!(
        "\nattack-run monitor (window {} ms):",
        window_ns / 1_000_000
    );
    print_series(&attack.samples);
    print_tenants(&attack.stats);
    IsolationOutcome {
        isolation: attack_t.p99_ms / solo_t.p99_ms.max(1e-9),
        availability: attack_t.availability(),
        mismatches: solo.mismatches + attack.mismatches,
        fault_activity: solo.stats.any_fault_activity() || attack.stats.any_fault_activity(),
        attack: attack.stats,
    }
}

/// Replays one named scenario and asserts its robustness properties.
/// Scenario mode never touches `BENCH_scaling.json` — it is a chaos /
/// inspection harness, not a metric source.
fn run_scenario(name: &str, smoke: bool) {
    let horizon_ns: u64 = if smoke { 60_000_000 } else { 240_000_000 };
    let window_ns: u64 = horizon_ns / 12;
    let m = model();
    let points = catalogue();
    let expected = expected_predictions(&m, &points);
    let steady = TenantLoad {
        tenant: TenantId(1),
        profile: RateProfile::Constant {
            rate_per_s: 15_000.0,
        },
        zipf_s: 1.1,
        deadline_ns: Some(20_000_000),
    };
    println!(
        "-- scenario {name}: trace replay over {} ms of simulated time --",
        horizon_ns / 1_000_000
    );
    let mut failures: Vec<String> = Vec::new();
    let report;
    let final_level;
    match name {
        "burst" | "flash" => {
            let attacker = if name == "burst" {
                TenantLoad {
                    tenant: TenantId(2),
                    profile: RateProfile::Burst {
                        base_per_s: 5_000.0,
                        burst_per_s: 400_000.0,
                        period_ns: 20_000_000,
                        burst_len_ns: 6_000_000,
                    },
                    zipf_s: 1.1,
                    deadline_ns: Some(50_000_000),
                }
            } else {
                TenantLoad {
                    tenant: TenantId(2),
                    profile: RateProfile::FlashCrowd {
                        base_per_s: 2_000.0,
                        peak_per_s: 500_000.0,
                        at_ns: horizon_ns / 4,
                        decay_ns: horizon_ns / 8,
                    },
                    zipf_s: 1.1,
                    deadline_ns: Some(50_000_000),
                }
            };
            let trace = synthesize_trace(&[steady, attacker], horizon_ns, points.len(), 7);
            let server = Server::new(ServerConfig {
                queue_capacity: 256,
                high_water: 128,
                ..Default::default()
            });
            server.deploy(m.clone());
            server.set_tenant_weight(TenantId(1), 1);
            server.set_tenant_weight(TenantId(2), 1);
            warm_cache(&server, &points);
            report = replay_trace(&server, &points, &trace, window_ns, Some(&expected));
            final_level = server.brownout_level();
            if report.stats.rejected_over_share == 0 {
                failures.push("the overload never tripped the brownout ladder".into());
            }
            if report.mismatches > 0 {
                failures.push(format!("{} bitwise mismatches", report.mismatches));
            }
            let victim = report.stats.tenant(TenantId(1)).expect("victim row");
            if victim.availability() < 0.99 {
                failures.push(format!(
                    "steady tenant availability {:.4} < 0.99 under {name}",
                    victim.availability()
                ));
            }
        }
        "diurnal" => {
            // Many small day/night tenants plus slack (deadline-free)
            // background traffic: the crest pushes the queue deep enough
            // to walk the defer rung, the trough lets it all drain.
            let mut loads: Vec<TenantLoad> = (1..=48)
                .map(|t| TenantLoad {
                    tenant: TenantId(t),
                    profile: RateProfile::Diurnal {
                        mean_per_s: 4_000.0,
                        swing: 1.0,
                        period_ns: horizon_ns / 2,
                    },
                    zipf_s: 1.1,
                    deadline_ns: Some(20_000_000),
                })
                .collect();
            loads.extend((49..=56).map(|t| TenantLoad {
                tenant: TenantId(t),
                profile: RateProfile::Diurnal {
                    mean_per_s: 2_000.0,
                    swing: 1.0,
                    period_ns: horizon_ns / 2,
                },
                zipf_s: 1.1,
                deadline_ns: None,
            }));
            let trace = synthesize_trace(&loads, horizon_ns, points.len(), 7);
            let server = Server::new(ServerConfig {
                queue_capacity: 64,
                high_water: 16,
                ..Default::default()
            });
            server.deploy(m.clone());
            warm_cache(&server, &points);
            report = replay_trace(&server, &points, &trace, window_ns, Some(&expected));
            final_level = server.brownout_level();
            if report.stats.rejected_over_share == 0 {
                failures.push("the crest never tripped the brownout ladder".into());
            }
            if report.stats.rejected_deferred == 0 {
                failures.push("slack traffic was never deferred at the crest".into());
            }
            if report.mismatches > 0 {
                failures.push(format!("{} bitwise mismatches", report.mismatches));
            }
        }
        "overload+outage" => {
            // The composed chaos scenario: a flooding tenant drives the
            // fairness ladder while QPU device 0 is down for the whole
            // run — the fault layer (retry/failover/degraded fallback)
            // and the brownout ladder must compose without a panic, with
            // typed sheds only.
            use hpcq::{FaultPolicy, FaultSchedule, QpuConfig, QpuPool, RetryPolicy};
            use std::sync::Mutex;
            let flood = TenantLoad {
                tenant: TenantId(2),
                profile: RateProfile::Burst {
                    base_per_s: 20_000.0,
                    burst_per_s: 400_000.0,
                    period_ns: 20_000_000,
                    burst_len_ns: 8_000_000,
                },
                zipf_s: 1.1,
                deadline_ns: Some(50_000_000),
            };
            let trace = synthesize_trace(&[steady, flood], horizon_ns, points.len(), 7);
            let mut configs = vec![QpuConfig::default(); 4];
            configs[0].faults = FaultSchedule::none().with_outage(1, u64::MAX);
            let pool = QpuPool::heterogeneous(configs).with_fault_policy(FaultPolicy {
                retry: RetryPolicy {
                    max_attempts_total: 4,
                    ..Default::default()
                },
                ..Default::default()
            });
            let server = Server::with_engine(
                ServerConfig {
                    queue_capacity: 256,
                    high_water: 128,
                    degraded_local_fallback: true,
                    ..Default::default()
                },
                FeatureEngine::Pool(Mutex::new(pool)),
            );
            server.deploy(m.clone());
            server.set_tenant_weight(TenantId(1), 1);
            server.set_tenant_weight(TenantId(2), 1);
            warm_cache(&server, &points);
            // No bitwise reference here: pool-computed rows match the
            // local path to rounding, not to the bit.
            report = replay_trace(&server, &points, &trace, window_ns, None);
            final_level = server.brownout_level();
            let s = &report.stats;
            if !s.any_fault_activity() {
                failures.push("device outage never activated the fault machinery".into());
            }
            if s.rejected_over_share == 0 {
                failures.push("the flood never tripped the brownout ladder".into());
            }
            if s.rejected_backend > 0 {
                failures.push(format!(
                    "{} requests shed BackendUnavailable despite local fallback",
                    s.rejected_backend
                ));
            }
            let victim = s.tenant(TenantId(1)).expect("victim row");
            if victim.availability() < 0.99 {
                failures.push(format!(
                    "steady tenant availability {:.4} < 0.99 under overload+outage",
                    victim.availability()
                ));
            }
            println!(
                "fault taxonomy:      {} retries | {} failovers | {}/{} hedges | {} trips | {} degraded",
                s.faults.retries, s.faults.failovers, s.faults.hedges_won,
                s.faults.hedges_launched, s.faults.breaker_trips, s.degraded_batches,
            );
        }
        other => {
            eprintln!("unknown scenario {other:?}; use burst|diurnal|flash|overload+outage");
            std::process::exit(2);
        }
    }
    println!(
        "offered {} -> served {}, shed {}, dropped {}",
        report.offered, report.completed, report.shed, report.dropped
    );
    println!("\nmonitor (window {} ms):", window_ns / 1_000_000);
    print_series(&report.samples);
    print_tenants(&report.stats);
    // Structural invariants every scenario must satisfy.
    if report.offered != report.completed + report.shed + report.dropped {
        failures.push(format!(
            "arrival accounting broken: {} offered vs {} + {} + {}",
            report.offered, report.completed, report.shed, report.dropped
        ));
    }
    if report.completed == 0 {
        failures.push("scenario served nothing".into());
    }
    if report.samples.is_empty() {
        failures.push("monitor produced no samples".into());
    }
    if final_level != BrownoutLevel::Normal {
        failures.push(format!(
            "server did not recover to normal after the replay drained (level {final_level})"
        ));
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("scenario {name} FAILED: {f}");
        }
        std::process::exit(1);
    }
    println!(
        "scenario {name} passed: typed sheds only, ladder tripped and released, victim isolated"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    if let Some(pos) = args.iter().position(|a| a == "--scenario") {
        let name = args
            .get(pos + 1)
            .expect("--scenario needs one of burst|diurnal|flash|overload+outage");
        run_scenario(name, smoke);
        return;
    }
    let points = catalogue();
    println!("-- serving: typed shedding under an overload burst (simulated time) --");

    // Overload behaviour: a burst beyond the high-water mark is shed
    // with typed rejections, then the queue drains and admission reopens.
    let server = Server::new(ServerConfig {
        queue_capacity: 64,
        high_water: 32,
        default_deadline_ns: 0,
        ..Default::default()
    });
    server.deploy(model());
    let mut admitted = Vec::new();
    let mut shed = 0usize;
    for i in 0..64 {
        match server.submit(points[i % CATALOGUE].clone()) {
            Ok(h) => admitted.push(h),
            Err(Rejected::TenantOverShare { .. }) => shed += 1,
            Err(other) => panic!("unexpected rejection {other}"),
        }
    }
    server.drain();
    let served = admitted
        .into_iter()
        .filter(|h| matches!(h.try_take(), Some(Ok(_))))
        .count();
    println!(
        "overload burst:      64 submitted -> {served} served, {shed} shed at high-water 32, \
         admission reopen: {}",
        server.submit(points[0].clone()).is_ok()
    );
    let _ = server.drain();

    // The multi-tenant isolation measurement (and its gate metric).
    let isolation = flood_isolation(smoke);
    let cache_hit_rate = isolation.attack.cache.hit_rate();
    println!(
        "\nisolation ratio:     {:.3} (attack p99 / solo p99) | {:.1}% cache hits under the flood",
        isolation.isolation,
        cache_hit_rate * 100.0
    );

    // Merge the serving metrics into BENCH_scaling.json (preserving
    // whatever exp_scaling already wrote there).
    let path = Path::new("BENCH_scaling.json");
    let mut report = ScalingReport::new();
    report.put_str("schema", "postvar.bench_scaling.v1");
    if let Ok(existing) = read_numbers(path) {
        for (key, value) in existing {
            if !key.starts_with("serving_") {
                report.put(&key, value);
            }
        }
    }
    report.put("serving_cache_hit_rate", cache_hit_rate);
    report.put("serving_tenant_isolation", isolation.isolation);
    match report.write_to(path) {
        Ok(()) => println!("merged serving metrics into {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }

    // Acceptance assertions — always on, so CI cannot silently lose
    // them.
    let mut failures: Vec<String> = Vec::new();
    if isolation.attack.cache.hits == 0 {
        failures.push("Zipf stream produced zero cache hits".to_string());
    }
    // The healthy local-engine path must never touch the fault
    // machinery: zero retries, failovers, hedges, breaker trips,
    // degraded batches, and backend sheds.
    if isolation.fault_activity {
        let s = &isolation.attack;
        failures.push(format!(
            "healthy serving path activated fault recovery: {:?}, {} degraded batches, \
             {} backend sheds",
            s.faults, s.degraded_batches, s.rejected_backend,
        ));
    }
    // The multi-tenant acceptance criteria, hard-asserted: a flooded
    // well-behaved tenant keeps ≥99% availability, its p99 stays within
    // 2× of its solo baseline, and batching stays invisible in outputs.
    if isolation.availability < 0.99 {
        failures.push(format!(
            "well-behaved tenant availability {:.4} < 0.99 under flood",
            isolation.availability
        ));
    }
    if isolation.isolation > 2.0 {
        failures.push(format!(
            "tenant isolation {:.3} > 2.0 (attack p99 / solo p99)",
            isolation.isolation
        ));
    }
    if isolation.mismatches > 0 {
        failures.push(format!(
            "{} served predictions diverged bitwise from standalone predict",
            isolation.mismatches
        ));
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
            eprintln!("serving check FAILED: {f}");
        }
        std::process::exit(1);
    }
    println!("serving checks passed (flooded tenant isolated, cache hits > 0, no fault activity)");
}
