//! Table III's logistic-head rows as a checked artifact.
//!
//! `table3_heads.csv` (next to this crate's manifest) pins, per seed, the
//! "Classical Logistic" row and every post-variational row of Table III:
//! train and test BCE and accuracy plus the regularised objective the head
//! minimises (mean BCE + (λ/2)‖w‖²) and its gradient's ∞-norm. Rows carry
//! the solver that produced them, so a change to the head shows up as a
//! reviewed diff of numbers. Regenerate with
//! `cargo run --release -p bench --bin exp_table3_heads`.

use crate::setup::{binary_task, BinaryTask};
use linalg::Mat;
use ml::{accuracy, bce_loss, LogisticConfig, LogisticRegression};
use pvqnn::{fig8_ansatz, FeatureBackend, FeatureGenerator, Strategy};

/// Seeds the artifact covers: the paper table's, the benchmark's tuning
/// seed and its held-out seed.
pub const PIN_SEEDS: [u64; 3] = [42, 1, 20261016];

/// The committed artifact.
pub const PINNED_CSV: &str = include_str!("../table3_heads.csv");

/// Column names of the artifact, in order.
pub const CSV_HEADER: &str =
    "seed,model,solver,train_loss,train_acc,test_loss,test_acc,objective,grad_inf,iterations";

/// Label of the rows the current head produces.
pub const SOLVER: &str = "lbfgs";

/// Name of the raw-feature baseline row.
pub const CLASSICAL: &str = "Classical Logistic";

/// One logistic-head row of Table III.
#[derive(Debug)]
pub struct HeadRow {
    pub seed: u64,
    pub model: String,
    pub solver: String,
    pub train_loss: f64,
    pub train_acc: f64,
    pub test_loss: f64,
    pub test_acc: f64,
    /// Mean training BCE + (λ/2)‖w‖² at the fitted head.
    pub objective: f64,
    /// ∞-norm of the objective's gradient at the fitted head.
    pub grad_inf: f64,
    /// Solver iterations the fit took.
    pub iterations: usize,
}

impl HeadRow {
    /// The row as one CSV line (shortest round-trip float formatting).
    pub fn to_csv(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{:e},{}",
            self.seed,
            self.model,
            self.solver,
            self.train_loss,
            self.train_acc,
            self.test_loss,
            self.test_acc,
            self.objective,
            self.grad_inf,
            self.iterations
        )
    }

    fn from_csv(line: &str) -> HeadRow {
        let f: Vec<&str> = line.split(',').collect();
        assert_eq!(f.len(), 10, "malformed pinned row: {line}");
        let num = |i: usize| -> f64 { f[i].parse().expect("pinned field is a number") };
        HeadRow {
            seed: f[0].parse().expect("pinned seed is an integer"),
            model: f[1].to_string(),
            solver: f[2].to_string(),
            train_loss: num(3),
            train_acc: num(4),
            test_loss: num(5),
            test_acc: num(6),
            objective: num(7),
            grad_inf: num(8),
            iterations: f[9].parse().expect("pinned iterations is an integer"),
        }
    }
}

/// Every row of the committed artifact.
pub fn pinned() -> Vec<HeadRow> {
    PINNED_CSV
        .lines()
        .skip(1)
        .filter(|l| !l.trim().is_empty())
        .map(HeadRow::from_csv)
        .collect()
}

/// The post-variational rows of Table III, by the names the table prints.
pub fn table3_strategies() -> Vec<(&'static str, Strategy)> {
    let obs = Strategy::default_observable(4);
    vec![
        (
            "Ansatz 1-order",
            Strategy::ansatz_expansion(fig8_ansatz(4), 1, obs),
        ),
        (
            "Ansatz 2-order",
            Strategy::ansatz_expansion(fig8_ansatz(4), 2, obs),
        ),
        (
            "Observable 1-local",
            Strategy::observable_construction(4, 1),
        ),
        (
            "Observable 2-local",
            Strategy::observable_construction(4, 2),
        ),
        (
            "Observable 3-local",
            Strategy::observable_construction(4, 3),
        ),
        (
            "Hybrid 1-order + 1-local",
            Strategy::hybrid(fig8_ansatz(4), 1, 1),
        ),
        (
            "Hybrid 2-order + 1-local",
            Strategy::hybrid(fig8_ansatz(4), 2, 1),
        ),
        (
            "Hybrid 1-order + 2-local",
            Strategy::hybrid(fig8_ansatz(4), 1, 2),
        ),
    ]
}

/// Fits the default logistic head on `train` and scores it on both sets.
pub fn head_row(seed: u64, model: &str, task: &BinaryTask, train: &Mat, test: &Mat) -> HeadRow {
    let head = LogisticRegression::fit(train, &task.train_y, LogisticConfig::default());
    let tr = head.predict_proba(train);
    let te = head.predict_proba(test);
    let (objective, grad_inf) = head.objective(train, &task.train_y);
    HeadRow {
        seed,
        model: model.to_string(),
        solver: SOLVER.to_string(),
        train_loss: bce_loss(&task.train_y, &tr),
        train_acc: accuracy(&task.train_y, &tr),
        test_loss: bce_loss(&task.test_y, &te),
        test_acc: accuracy(&task.test_y, &te),
        objective,
        grad_inf,
        iterations: head.iterations(),
    }
}

/// The named rows for one seed, on the exact backend: `CLASSICAL` fits the
/// 16 raw pooled features, every other name is looked up in
/// [`table3_strategies`].
pub fn head_rows(seed: u64, models: &[&str]) -> Vec<HeadRow> {
    let task = binary_task(200, 50, seed);
    let strategies = table3_strategies();
    models
        .iter()
        .map(|&name| {
            let (train, test) = if name == CLASSICAL {
                (Mat::from_rows(&task.train_x), Mat::from_rows(&task.test_x))
            } else {
                let (_, strategy) = strategies
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("no Table III row named {name}"));
                let g = FeatureGenerator::new(strategy.clone(), FeatureBackend::Exact);
                (g.generate(&task.train_x), g.generate(&task.test_x))
            };
            head_row(seed, name, &task, &train, &test)
        })
        .collect()
}

/// Every logistic-head row of Table III for one seed.
pub fn all_head_rows(seed: u64) -> Vec<HeadRow> {
    let mut names = vec![CLASSICAL];
    names.extend(table3_strategies().iter().map(|(n, _)| *n));
    head_rows(seed, &names)
}
