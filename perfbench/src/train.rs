//! The `train_table3` workload: the paper's offline path. One pass
//! generates features for the 400 training rows and fits a logistic
//! head for each of three Table III strategies.

use bench::BinaryTask;
use ml::{LogisticConfig, LogisticRegression};
use pvqnn::{fig8_ansatz, FeatureBackend, FeatureGenerator, PostVarClassifier, Strategy};
use std::time::Instant;

/// The three strategies, by the suffix their per-layer metrics carry.
pub const STRATEGIES: [&str; 3] = ["obs41", "hybrid11", "hybrid21"];

fn strategy(name: &str) -> Strategy {
    match name {
        "obs41" => Strategy::observable_construction(4, 1),
        "hybrid11" => Strategy::hybrid(fig8_ansatz(4), 1, 1),
        "hybrid21" => Strategy::hybrid(fig8_ansatz(4), 2, 1),
        _ => unreachable!("unknown strategy {name}"),
    }
}

/// The dataset and the three compiled feature generators.
pub struct TrainSetup {
    pub task: BinaryTask,
    pub generators: Vec<FeatureGenerator>,
}

/// Builds the task and the generators, compiling their shifts (the
/// one-time cost of first use) so that passes time steady-state work.
/// Returns the set-up and the `binary_task` wall seconds.
pub fn set_up(seed: u64) -> (TrainSetup, f64) {
    let t0 = Instant::now();
    let task = bench::binary_task(200, 50, seed);
    let task_s = t0.elapsed().as_secs_f64();
    let generators: Vec<FeatureGenerator> = STRATEGIES
        .iter()
        .map(|s| FeatureGenerator::new(strategy(s), FeatureBackend::Exact))
        .collect();
    for g in &generators {
        std::hint::black_box(g.generate_one(&task.train_x[0]));
    }
    (TrainSetup { task, generators }, task_s)
}

/// One untraced pass through the public pipeline. Returns the three
/// models and the wall seconds each `PostVarClassifier::fit` took.
pub fn pass(setup: &TrainSetup) -> (Vec<PostVarClassifier>, Vec<f64>) {
    setup
        .generators
        .iter()
        .map(|g| {
            let t = Instant::now();
            let model = PostVarClassifier::fit(
                g.clone(),
                &setup.task.train_x,
                &setup.task.train_y,
                LogisticConfig::default(),
            );
            (model, t.elapsed().as_secs_f64())
        })
        .unzip()
}

/// Wall seconds of the two layer calls of one strategy in a traced pass.
#[derive(Clone, Copy, Debug)]
pub struct StrategySpans {
    pub generate_s: f64,
    pub fit_s: f64,
    pub features: usize,
}

/// One traced pass: the same two calls `PostVarClassifier::fit` makes
/// (`FeatureGenerator::generate`, then `LogisticRegression::fit`), each
/// inside a span.
pub fn traced_pass(setup: &TrainSetup) -> Vec<StrategySpans> {
    setup
        .generators
        .iter()
        .map(|g| {
            let t0 = Instant::now();
            let q = g.generate(&setup.task.train_x);
            let t1 = Instant::now();
            let head = LogisticRegression::fit(&q, &setup.task.train_y, LogisticConfig::default());
            let t2 = Instant::now();
            std::hint::black_box(head);
            StrategySpans {
                generate_s: (t1 - t0).as_secs_f64(),
                fit_s: (t2 - t1).as_secs_f64(),
                features: q.cols(),
            }
        })
        .collect()
}

/// Lowest accuracies a model may reach before the run fails. Over seeds
/// 1–24 the three strategies scored 0.57–0.79 on the 400 training rows
/// and 0.51–0.74 on the 100 test rows; a constant predictor scores
/// exactly 0.5 on either, since both halves of the task are balanced.
const TRAIN_ACCURACY_FLOOR: f64 = 0.52;
const TEST_ACCURACY_FLOOR: f64 = 0.40;

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Correctness outside the timed window, on the models the timed passes
/// produced. Batched `generate` rows must equal pointwise `generate_one`
/// rows bit for bit; each model's test predictions must equal, bit for
/// bit, those of a `LogisticRegression::fit` on those rows; each
/// accuracy must reach its floor; and each training loss must beat the
/// constant predictor's ln 2, which any logistic fit starting from zero
/// weights does. Prints what it checked and each model's accuracy;
/// returns whether all of it held.
pub fn check(setup: &TrainSetup, models: &[PostVarClassifier]) -> bool {
    let task = &setup.task;
    let (mut rows, mut bad_rows, mut bad_heads, mut low) = (0, 0, 0, 0);
    for ((name, g), model) in STRATEGIES.iter().zip(&setup.generators).zip(models) {
        let q = g.generate(&task.train_x);
        for (i, x) in task.train_x.iter().enumerate() {
            rows += 1;
            bad_rows += usize::from(!same_bits(q.row(i), &g.generate_one(x)));
        }
        let reference = LogisticRegression::fit(&q, &task.train_y, LogisticConfig::default());
        let test_q = g.generate(&task.test_x);
        let timed = model.predict_proba_features(&test_q);
        bad_heads += usize::from(!same_bits(&timed, &reference.predict_proba(&test_q)));
        let (_, test_acc) = model.evaluate(&task.test_x, &task.test_y);
        let (train_loss, train_acc) = model.evaluate(&task.train_x, &task.train_y);
        low += usize::from(
            train_acc < TRAIN_ACCURACY_FLOOR
                || test_acc < TEST_ACCURACY_FLOOR
                || train_loss >= std::f64::consts::LN_2,
        );
        println!(
            "accuracy {name}: train {:.2}% (loss {train_loss:.4}) test {:.2}% ({} features)",
            train_acc * 100.0,
            test_acc * 100.0,
            q.cols()
        );
    }
    println!(
        "check train_table3: {rows} rows batched == pointwise ({bad_rows} mismatches); \
         {} timed heads == reference fit on the test rows ({bad_heads} mismatches); \
         {low} models below the floors (accuracy train {TRAIN_ACCURACY_FLOOR}, \
         test {TEST_ACCURACY_FLOOR}; training loss under ln 2)",
        models.len()
    );
    bad_rows == 0 && bad_heads == 0 && low == 0
}
