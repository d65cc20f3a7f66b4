//! Dataset assembly matching the paper's experimental protocol (§VII.B):
//! binary coat-vs-shirt with 200 train + 50 test per class, and 10-class
//! multiclass with 400 evenly sampled training images — plus the
//! kernel workloads behind the `BENCH_scaling.json` metrics.

use hpcq::{CircuitJob, QpuConfig, QpuDevice};
use pvqnn::features::FeatureGenerator;
use qdata::{fashion_synthetic, preprocess_4x4, Dataset, FashionClass, SynthConfig};
use qsim::{estimate_pauli_with_shots, Circuit, Gate, StateVector};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A dense rotation + entangler layer circuit on `n` qubits — the gate mix
/// `exp_scaling`'s gate metrics apply.
pub fn layer_circuit(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.push(Gate::H(q));
        c.push(Gate::Ry(q, 0.3 + 0.01 * q as f64));
        c.push(Gate::Rz(q, 0.7));
    }
    for q in 0..n - 1 {
        c.push(Gate::Cnot {
            control: q,
            target: q + 1,
        });
    }
    c
}

/// Deterministic feature rows in the Fig. 7 shape (16 features per row).
pub fn feature_data(d: usize) -> Vec<Vec<f64>> {
    (0..d)
        .map(|i| {
            (0..16)
                .map(|j| 0.3 + 0.17 * ((i * 16 + j) % 23) as f64)
                .collect()
        })
        .collect()
}

/// The pre-optimisation feature sweep used as the reuse-speedup baseline:
/// one full circuit simulation from `|0…0⟩` per (row, shift) and one state
/// pass per observable. Returns a value sum so the work can't be elided.
pub fn naive_feature_sweep(generator: &FeatureGenerator, data: &[Vec<f64>]) -> f64 {
    let obs = generator.strategy().observables();
    let p = generator.strategy().num_ansatze();
    let mut acc = 0.0;
    for x in data {
        for a in 0..p {
            let s = StateVector::from_circuit(&generator.circuit_for(x, a));
            for o in obs {
                acc += s.expectation(o);
            }
        }
    }
    acc
}

/// The state-vector reference for Shots rows: per (row, shift) one full
/// circuit simulation, then per observable `shots` outcomes drawn from
/// the state rotated into its eigenbasis (`estimate_pauli_with_shots`,
/// the `hpcq` device's estimator). Returns the sum of the estimates.
pub fn naive_shot_sweep(generator: &FeatureGenerator, data: &[Vec<f64>], shots: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(0);
    let mut acc = 0.0;
    for x in data {
        for a in 0..generator.strategy().num_ansatze() {
            let s = StateVector::from_circuit(&generator.circuit_for(x, a));
            for o in generator.strategy().observables() {
                acc += estimate_pauli_with_shots(&s, o, shots, &mut rng);
            }
        }
    }
    acc
}

/// A mixed-size job batch for the executor-sharing comparisons: `groups`
/// repetitions of one `big_n`-qubit job (sized to cross `qsim`'s parallel
/// threshold, so its kernels want to fan out) followed by `small_per_big`
/// `small_n`-qubit jobs that never do — the regime where private
/// per-device threads with uncapped kernel fan-out used to oversubscribe
/// to devices × cores. Every job measures the first 1-local Paulis, exact.
pub fn mixed_pool_jobs(
    big_n: usize,
    small_n: usize,
    groups: usize,
    small_per_big: usize,
    obs_per_job: usize,
) -> Vec<CircuitJob> {
    let mut jobs = Vec::new();
    let mut id = 0u64;
    let entangled = |n: usize, base: f64| {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.push(Gate::Ry(q, base * (q as f64 + 1.0)));
        }
        for q in 0..n - 1 {
            c.push(Gate::Cnot {
                control: q,
                target: q + 1,
            });
        }
        c
    };
    for group in 0..groups {
        jobs.push(CircuitJob::new(
            id,
            entangled(big_n, 0.07 + 0.01 * group as f64),
            pauli::local_paulis(big_n, 1)[..obs_per_job].to_vec(),
            None,
        ));
        id += 1;
        for k in 0..small_per_big {
            jobs.push(CircuitJob::new(
                id,
                entangled(small_n, 0.11 + 0.01 * k as f64),
                pauli::local_paulis(small_n, 1)[..obs_per_job].to_vec(),
                None,
            ));
            id += 1;
        }
    }
    jobs
}

/// The PR-2 scheduling baseline the shared executor replaced: one private
/// OS thread per device, each executing its round-robin share of `jobs`
/// with **uncapped** kernel fan-out — so every large job's amplitude
/// kernels compete for the whole rayon pool from inside every device
/// thread at once.
pub fn oversubscribed_batch(jobs: &[CircuitJob], n_dev: usize) {
    std::thread::scope(|scope| {
        for d in 0..n_dev {
            scope.spawn(move || {
                let dev = QpuDevice::new(d, QpuConfig::default());
                for job in jobs.iter().skip(d).step_by(n_dev) {
                    std::hint::black_box(dev.execute(job));
                }
            });
        }
    });
}

/// A harder generator setting than the library default: larger positional
/// jitter pushes silhouettes across max-pool cell boundaries, so the 16
/// pooled features stop being linearly separable — closer to the
/// difficulty profile of real Fashion-MNIST (where the paper's linear
/// baseline sits at ~69 % train accuracy).
pub fn hard_synth_config() -> SynthConfig {
    SynthConfig {
        jitter_px: 3.2,
        scale_jitter: 0.2,
        pixel_noise: 0.09,
    }
}

/// The binary Table III task, fully preprocessed into `[0, 2π)^16` rows.
pub struct BinaryTask {
    /// Training feature rows.
    pub train_x: Vec<Vec<f64>>,
    /// Training labels (0 = coat, 1 = shirt).
    pub train_y: Vec<f64>,
    /// Test feature rows.
    pub test_x: Vec<Vec<f64>>,
    /// Test labels.
    pub test_y: Vec<f64>,
}

/// Builds the coat-vs-shirt task: `train_per_class` + `test_per_class`
/// synthetic samples per class, pooled/rescaled with train-set statistics.
pub fn binary_task(train_per_class: usize, test_per_class: usize, seed: u64) -> BinaryTask {
    let per_class = train_per_class + test_per_class;
    let ds = fashion_synthetic(
        &[FashionClass::Coat, FashionClass::Shirt],
        per_class,
        seed,
        &hard_synth_config(),
    );
    // The generator interleaves classes, so a prefix split keeps balance.
    let (train, test) = ds.split_at(2 * train_per_class);
    let (train_x, test_x) = preprocess_4x4(&train, &test);
    let to_binary = |d: &Dataset| -> Vec<f64> {
        d.labels
            .iter()
            .map(|&l| {
                if l == FashionClass::Shirt.label() {
                    1.0
                } else {
                    0.0
                }
            })
            .collect()
    };
    BinaryTask {
        train_x,
        train_y: to_binary(&train),
        test_x,
        test_y: to_binary(&test),
    }
}

/// The multiclass Table IV task.
pub struct MulticlassTask {
    /// Training feature rows.
    pub train_x: Vec<Vec<f64>>,
    /// Training labels 0–9.
    pub train_y: Vec<usize>,
    /// Test feature rows.
    pub test_x: Vec<Vec<f64>>,
    /// Test labels 0–9.
    pub test_y: Vec<usize>,
}

/// Builds the 10-class task with `train_per_class`/`test_per_class`
/// samples per class (paper: 400 training images evenly sampled).
pub fn multiclass_task(train_per_class: usize, test_per_class: usize, seed: u64) -> MulticlassTask {
    let per_class = train_per_class + test_per_class;
    let ds = fashion_synthetic(&[], per_class, seed, &hard_synth_config());
    let (train, test) = ds.split_at(10 * train_per_class);
    let (train_x, test_x) = preprocess_4x4(&train, &test);
    MulticlassTask {
        train_x,
        train_y: train.labels.clone(),
        test_x,
        test_y: test.labels.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_task_shapes_and_balance() {
        let t = binary_task(20, 5, 1);
        assert_eq!(t.train_x.len(), 40);
        assert_eq!(t.test_x.len(), 10);
        let pos = t.train_y.iter().filter(|&&y| y == 1.0).count();
        assert_eq!(pos, 20);
        assert!(t.train_x.iter().all(|r| r.len() == 16));
    }

    #[test]
    fn multiclass_task_shapes() {
        let t = multiclass_task(4, 1, 2);
        assert_eq!(t.train_x.len(), 40);
        assert_eq!(t.test_x.len(), 10);
        for c in 0..10 {
            assert_eq!(t.train_y.iter().filter(|&&l| l == c).count(), 4);
        }
    }
}
