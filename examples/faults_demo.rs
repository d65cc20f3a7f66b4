//! Fault-domain walkthrough: a QPU device goes dark mid-batch, the pool
//! retries, fails the stranded jobs over to healthy devices, trips the
//! circuit breaker into quarantine — then, after the cooldown, a
//! half-open probe re-admits the recovered device. All on deterministic
//! simulated time, with every completed result bit-for-bit identical to
//! a fault-free pool.
//!
//! Run: `cargo run --release --example faults_demo`

use hpcq::{
    BreakerConfig, CircuitJob, DeviceHealth, FaultPolicy, FaultSchedule, QpuConfig, QpuPool,
};
use pauli::{local_paulis, PauliString};
use qsim::{Circuit, Gate};

/// One 8-qubit circuit job per id.
fn jobs(ids: std::ops::Range<u64>) -> Vec<CircuitJob> {
    let obs: Vec<PauliString> = local_paulis(8, 1);
    ids.map(|id| {
        let mut c = Circuit::new(8);
        for layer in 0..3 {
            for q in 0..8 {
                c.push(Gate::Ry(q, 0.09 * (id as f64 + layer as f64 + q as f64)));
            }
            for q in 0..7 {
                c.push(Gate::Cnot {
                    control: q,
                    target: q + 1,
                });
            }
        }
        CircuitJob::new(id, c, obs.clone(), None)
    })
    .collect()
}

fn health_line(pool: &QpuPool) -> String {
    pool.device_health()
        .iter()
        .enumerate()
        .map(|(d, h)| {
            format!(
                "dev{d}={}",
                match h {
                    DeviceHealth::Healthy => "healthy",
                    DeviceHealth::Degraded => "degraded",
                    DeviceHealth::Quarantined => "QUARANTINED",
                }
            )
        })
        .collect::<Vec<_>>()
        .join("  ")
}

fn main() {
    println!("== fault-domain walkthrough: outage -> failover -> quarantine -> recovery ==\n");

    // Three devices; device 0 is dark from 50 µs to 400 µs of simulated
    // time. The breaker trips after 3 consecutive failures and probes
    // again after a 300 µs cooldown — by then the outage is over.
    let mut configs = vec![QpuConfig::default(); 3];
    configs[0] = QpuConfig {
        faults: FaultSchedule::none().with_outage(50_000, 400_000),
        ..Default::default()
    };
    let mut pool = QpuPool::heterogeneous(configs).with_fault_policy(FaultPolicy {
        breaker: BreakerConfig {
            failure_threshold: 3,
            cooldown_ns: 300_000,
        },
        ..Default::default()
    });

    // A fault-free twin for the bit-for-bit check.
    let mut clean = QpuPool::homogeneous(3, QpuConfig::default());

    println!("phase 1: 24 jobs while device 0 is dark [50 us, 400 us)");
    let (outcomes, report) = pool.execute_batch(jobs(0..24));
    let completed = outcomes.iter().filter(|o| o.is_ok()).count();
    println!("  completed : {completed}/24");
    println!(
        "  recovery  : {} retries, {} failovers, {} breaker trips",
        report.faults.retries, report.faults.failovers, report.faults.breaker_trips
    );
    println!("  health    : {}", health_line(&pool));
    assert!(
        pool.device_health()[0] == DeviceHealth::Quarantined,
        "the dark device must be quarantined"
    );

    let (clean_outcomes, _) = clean.execute_batch(jobs(0..24));
    let identical = outcomes
        .iter()
        .zip(clean_outcomes.iter())
        .all(|(a, b)| match (a, b) {
            (Ok(x), Ok(y)) => x.values == y.values,
            _ => false,
        });
    println!("  bit-check : chaos results identical to fault-free pool: {identical}");
    assert!(identical);

    println!("\nphase 2: 24 more jobs after the cooldown elapses");
    let (outcomes2, report2) = pool.execute_batch(jobs(24..48));
    let completed2 = outcomes2.iter().filter(|o| o.is_ok()).count();
    println!("  completed : {completed2}/24");
    println!(
        "  recovery  : {} half-open probes re-admitted the device",
        pool.fault_stats().probes
    );
    println!("  health    : {}", health_line(&pool));
    println!(
        "  placement : {:?} jobs per device (device 0 serving again)",
        report2.jobs_per_device
    );
    assert_eq!(completed2, 24);
    assert!(
        pool.device_health()[0] == DeviceHealth::Healthy,
        "the recovered device must be re-admitted"
    );
    assert!(pool.fault_stats().probes >= 1, "recovery needs a probe");
    assert_eq!(
        report2.jobs_per_device.iter().sum::<usize>(),
        24,
        "the report places this batch's jobs alone"
    );
    assert!(report2.jobs_per_device[0] > 0, "device 0 must serve again");

    println!("\nevery fault was absorbed by retries, failover, and the breaker —");
    println!("no panics, no lost jobs, and completed values bit-identical throughout.");
}
