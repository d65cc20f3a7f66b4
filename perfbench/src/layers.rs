//! Single-threaded replays that give each layer its self time, by
//! calling the layers' public functions from the benchmark's own code.

use crate::serve_loop::StepSpan;
use crate::stats::{mean, median};
use crate::stream::point;
use linalg::Mat;
use pvqnn::{EncodingPlan, FeatureGenerator, PostVarClassifier};
use qsim::{CompiledCircuit, FusedOp, StateVector};
use serve::{quantize_key, FeatureCache, FeatureEngine, ServedModel, ServerConfig};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Lanes per replayed miss block: one full `Server` micro-batch.
pub const BLOCK: usize = 16;

/// Median cost of one `Instant::now()` pair, subtracted from every
/// short interval the replays time.
pub fn timer_ns() -> f64 {
    let pairs: Vec<f64> = (0..2001)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            (b - a).as_nanos() as f64
        })
        .collect();
    median(&pairs)
}

/// Nanoseconds from `t0` to now, less the timer's own cost.
fn since(t0: Instant, timer: f64) -> f64 {
    (t0.elapsed().as_nanos() as f64 - timer).max(0.0)
}

/// Per-call self times of the `qsim` kernels on one 16-lane miss block
/// at the served shape, plus the `pvqnn` calls around them.
pub struct QsimReplay {
    pub shifts: usize,
    pub compiled_shifts: usize,
    pub observables: usize,
    pub batch_clone_ns: f64,
    pub apply_compiled_ns: f64,
    pub lane_ns: f64,
    pub expectation_many_ns: f64,
    pub encode_batch_ns_per_row: f64,
    pub rows_standalone_us_per_row: f64,
    pub flop_per_row: f64,
    pub bytes_per_row: f64,
    pub reps: usize,
}

impl QsimReplay {
    /// `qsim` time per row: what a row's share of the block spends in
    /// the four kernels.
    pub fn qsim_ns_per_row(&self) -> f64 {
        (self.batch_clone_ns + self.apply_compiled_ns) * self.compiled_shifts as f64 / BLOCK as f64
            + (self.lane_ns + self.expectation_many_ns) * self.shifts as f64
    }

    /// Row time not spent in the encode or the `qsim` kernels:
    /// allocations and copies.
    pub fn unattributed_us_per_row(&self) -> f64 {
        self.rows_standalone_us_per_row
            - (self.encode_batch_ns_per_row + self.qsim_ns_per_row()) / 1e3
    }
}

/// The generator's per-shift ansatz tails, compiled exactly as the
/// generator compiles them on first use (`None` where nothing is left).
fn compiled_shifts(generator: &FeatureGenerator) -> Vec<Option<CompiledCircuit>> {
    let s = generator.strategy();
    match s.ansatz() {
        Some(ansatz) => s
            .shifts()
            .iter()
            .map(|shift| {
                Some(qsim::compile(&ansatz.bind_optimized(shift))).filter(|cc| !cc.is_empty())
            })
            .collect(),
        None => vec![None; s.num_ansatze()],
    }
}

/// Replays `reps` 16-lane blocks the way `FeatureGenerator` computes a
/// miss block: encode, then per shift clone + apply + gather each lane +
/// evaluate every observable. Reports the median per-call times.
pub fn qsim_replay(generator: &FeatureGenerator, seed: u64, reps: usize, timer: f64) -> QsimReplay {
    let strategy = generator.strategy();
    let obs = strategy.observables();
    let shifts = compiled_shifts(generator);
    let compiled = shifts.iter().flatten().count();
    let n = strategy.num_qubits();
    let (mut clone, mut apply, mut lane, mut expect, mut encode, mut rows) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    for rep in 0..reps {
        let points: Vec<Vec<f64>> = (0..BLOCK as u64)
            .map(|i| point(seed ^ 0x5eed, rep as u64 * BLOCK as u64 + i))
            .collect();
        let xs: Vec<&[f64]> = points.iter().map(Vec::as_slice).collect();
        let t = Instant::now();
        let encoded = EncodingPlan::new(xs[0].len(), n).encode_batch(&xs);
        encode.push(since(t, timer) / BLOCK as f64);
        let (mut c, mut a, mut l, mut e) = (0.0, 0.0, 0.0, 0.0);
        for cc in &shifts {
            let lanes: Vec<StateVector> = match cc {
                Some(cc) => {
                    let t = Instant::now();
                    let mut b = encoded.clone();
                    c += since(t, timer);
                    let t = Instant::now();
                    b.apply_compiled(cc);
                    a += since(t, timer);
                    let t = Instant::now();
                    let lanes = (0..BLOCK).map(|i| b.lane(i)).collect();
                    l += since(t, timer);
                    lanes
                }
                None => {
                    let t = Instant::now();
                    let lanes = (0..BLOCK).map(|i| encoded.lane(i)).collect();
                    l += since(t, timer);
                    lanes
                }
            };
            let t = Instant::now();
            for s in &lanes {
                black_box(s.expectation_many(obs));
            }
            e += since(t, timer);
        }
        let calls = (shifts.len() * BLOCK) as f64;
        clone.push(c / compiled.max(1) as f64);
        apply.push(a / compiled.max(1) as f64);
        lane.push(l / calls);
        expect.push(e / calls);
        let t = Instant::now();
        black_box(generator.generate_rows_standalone(&xs));
        rows.push(since(t, timer) / 1e3 / BLOCK as f64);
    }
    let (flop_per_row, bytes_per_row) = computed_cost(&shifts, n, obs.len());
    QsimReplay {
        shifts: shifts.len(),
        compiled_shifts: compiled,
        observables: obs.len(),
        batch_clone_ns: median(&clone),
        apply_compiled_ns: median(&apply),
        lane_ns: median(&lane),
        expectation_many_ns: median(&expect),
        encode_batch_ns_per_row: median(&encode),
        rows_standalone_us_per_row: median(&rows),
        flop_per_row,
        bytes_per_row,
        reps,
    }
}

/// Floating-point operations and bytes moved per feature row, computed
/// from the sizes (not measured). A complex multiply is 6 flops and an
/// add 2; every kernel sweep reads and writes the whole state once.
fn computed_cost(shifts: &[Option<CompiledCircuit>], n: usize, observables: usize) -> (f64, f64) {
    let amps = (1usize << n) as f64;
    let state_bytes = amps * 16.0;
    let sweep = |flop_per_amp: f64| (flop_per_amp * amps, 2.0 * state_bytes);
    // Encode: one dense 2×2 sweep per qubit (2 mul + 1 add per amp).
    let mut flop = n as f64 * 14.0 * amps;
    let mut bytes = n as f64 * 2.0 * state_bytes;
    for cc in shifts.iter().flatten() {
        bytes += 2.0 * state_bytes; // the clone
        for op in cc.ops() {
            let (f, b) = match op {
                FusedOp::Unary { diagonal: true, .. } | FusedOp::Binary { diagonal: true, .. } => {
                    sweep(6.0)
                }
                FusedOp::Unary { .. } => sweep(14.0),
                FusedOp::Binary { .. } => sweep(30.0),
                FusedOp::Gate(_) => sweep(0.0),
            };
            flop += f;
            bytes += b;
        }
    }
    // Per shift: gather the lane, then one pass per observable
    // (one complex multiply-add per amplitude).
    let per_shift_flop = observables as f64 * 8.0 * amps;
    let per_shift_bytes = 2.0 * state_bytes + observables as f64 * state_bytes;
    flop += shifts.len() as f64 * per_shift_flop;
    bytes += shifts.len() as f64 * per_shift_bytes;
    (flop, bytes)
}

/// The one-time shift compile on first use: a fresh generator's first
/// `generate_one` minus its second. Median over `reps` generators.
pub fn compile_s(make: impl Fn() -> FeatureGenerator, x: &[f64], reps: usize) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let g = make();
            let t = Instant::now();
            black_box(g.generate_one(x));
            let first = t.elapsed().as_secs_f64();
            let t = Instant::now();
            black_box(g.generate_one(x));
            (first - t.elapsed().as_secs_f64()).max(0.0)
        })
        .collect();
    median(&samples)
}

/// Self times of the serve layers, from replaying recorded batches.
pub struct ServeReplay {
    pub batches: usize,
    pub lookups: usize,
    pub lookup_ns: f64,
    pub inserts: usize,
    pub insert_ns: f64,
    pub computed_rows: usize,
    pub compute_rows_us_per_row: f64,
    pub head_rows: usize,
    pub predict_proba_ns_per_row: f64,
    pub step_overhead_us: f64,
}

/// Replays the batches a traced window formed, in order, on this thread:
/// `quantize_key` + `FeatureCache::get` per request, within-batch miss
/// dedupe, `FeatureEngine::compute_rows` for the misses,
/// `FeatureCache::insert` per miss, then `Mat::from_rows` +
/// `ServedModel::predict_batch`. The replay cache is warmed with the same
/// points as the server's. Stops after `budget` of replay time.
pub fn serve_replay(
    model: &PostVarClassifier,
    seed: u64,
    warm: u64,
    batches: &[(StepSpan, Vec<u64>)],
    budget: Duration,
    timer: f64,
) -> ServeReplay {
    let config = ServerConfig::default();
    let served = ServedModel::from(model.clone());
    let engine = FeatureEngine::local();
    let fp = served.generator_fingerprint();
    let mut cache = FeatureCache::new(config.cache_capacity, config.quant_scale);
    let warm_points: Vec<Vec<f64>> = (0..warm).map(|i| point(seed, i)).collect();
    let warm_refs: Vec<&[f64]> = warm_points.iter().map(Vec::as_slice).collect();
    for (x, row) in warm_refs
        .iter()
        .zip(served.generator().generate_rows_standalone(&warm_refs))
    {
        cache.insert(fp, quantize_key(x, config.quant_scale), row);
    }

    let (mut lookup, mut insert, mut compute, mut head) = (0.0, 0.0, 0.0, 0.0);
    let (mut lookups, mut inserts, mut computed, mut heads) = (0, 0, 0, 0);
    let (mut step_us, mut replay_us) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for (step, points) in batches {
        if start.elapsed() > budget || points.is_empty() {
            break;
        }
        let xs: Vec<Vec<f64>> = points.iter().map(|&i| point(seed, i)).collect();
        let mut batch_ns = 0.0;
        let mut rows: Vec<Option<Vec<f64>>> = vec![None; xs.len()];
        let mut miss_of: HashMap<Vec<i64>, usize> = HashMap::new();
        let mut miss_keys: Vec<Vec<i64>> = Vec::new();
        let mut requesters: Vec<Vec<usize>> = Vec::new();
        for (i, x) in xs.iter().enumerate() {
            let t = Instant::now();
            let key = quantize_key(x, config.quant_scale);
            let found = cache.get(fp, &key);
            let dt = since(t, timer);
            rows[i] = found.map(<[f64]>::to_vec);
            lookup += dt;
            batch_ns += dt;
            lookups += 1;
            if rows[i].is_none() {
                match miss_of.get(&key) {
                    Some(&m) => requesters[m].push(i),
                    None => {
                        miss_of.insert(key.clone(), miss_keys.len());
                        miss_keys.push(key);
                        requesters.push(vec![i]);
                    }
                }
            }
        }
        if !miss_keys.is_empty() {
            let miss_xs: Vec<&[f64]> = requesters.iter().map(|r| xs[r[0]].as_slice()).collect();
            let t = Instant::now();
            let out = engine
                .compute_rows(served.generator(), &miss_xs, None)
                .expect("the local engine does not fail");
            let dt = since(t, timer);
            compute += dt;
            batch_ns += dt;
            computed += miss_xs.len();
            for ((key, row), reqs) in miss_keys.into_iter().zip(out.rows).zip(&requesters) {
                let copy = row.clone();
                let t = Instant::now();
                cache.insert(fp, key, copy);
                let dt = since(t, timer);
                insert += dt;
                batch_ns += dt;
                inserts += 1;
                for &i in reqs {
                    rows[i] = Some(row.clone());
                }
            }
        }
        let dense: Vec<Vec<f64>> = rows
            .into_iter()
            .map(|r| r.expect("every row resolved"))
            .collect();
        let t = Instant::now();
        let mat = Mat::from_rows(&dense);
        black_box(served.predict_batch(&mat));
        let dt = since(t, timer);
        head += dt;
        batch_ns += dt;
        heads += dense.len();
        step_us.push((step.end - step.start) as f64 / 1e3);
        replay_us.push(batch_ns / 1e3);
    }
    let per = |total: f64, n: usize| if n == 0 { 0.0 } else { total / n as f64 };
    ServeReplay {
        batches: step_us.len(),
        lookups,
        lookup_ns: per(lookup, lookups),
        inserts,
        insert_ns: per(insert, inserts),
        computed_rows: computed,
        compute_rows_us_per_row: per(compute, computed) / 1e3,
        head_rows: heads,
        predict_proba_ns_per_row: per(head, heads),
        step_overhead_us: mean(&step_us) - mean(&replay_us),
    }
}
