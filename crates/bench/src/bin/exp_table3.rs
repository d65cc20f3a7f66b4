//! Reproduces **Table III**: effectiveness of the post-variational design
//! principles on binary coat-vs-shirt classification.
//!
//! Paper protocol (§VII.B): 200 train + 50 test per class; rows are the
//! classical logistic baseline, the two-layer MLP, the variational QNN,
//! ansatz expansion at order 1/2, observable construction at locality
//! 1/2/3, and the three hybrid combinations. Columns: train loss, train
//! accuracy, test loss, test accuracy (BCE loss; the variational row
//! reports its own objective, as in the paper the loss is omitted).
//!
//! Run: `cargo run -p bench --bin exp_table3 --release`

use bench::{binary_task, TablePrinter};
use linalg::Mat;
use ml::{accuracy, LogisticConfig, LogisticRegression, Mlp, MlpConfig};
use pvqnn::ansatz::fig8_ansatz;
use pvqnn::features::{FeatureBackend, FeatureGenerator};
use pvqnn::model::PostVarClassifier;
use pvqnn::strategy::Strategy;
use pvqnn::transfer::TransferPlan;
use pvqnn::variational::{VariationalClassifier, VariationalConfig};
use std::time::Instant;

fn fmt_row(name: &str, tr_loss: f64, tr_acc: f64, te_loss: f64, te_acc: f64) -> Vec<String> {
    vec![
        name.to_string(),
        format!("{tr_loss:.4}"),
        format!("{:.2}%", tr_acc * 100.0),
        format!("{te_loss:.4}"),
        format!("{:.2}%", te_acc * 100.0),
    ]
}

fn pv_row(name: &str, strategy: Strategy, task: &bench::BinaryTask, table: &mut TablePrinter) {
    let t0 = Instant::now();
    let m = strategy.num_neurons();
    let rank = TransferPlan::new(&strategy).rank();
    let generator = FeatureGenerator::new(strategy, FeatureBackend::Exact);
    let model = PostVarClassifier::fit(
        generator,
        &task.train_x,
        &task.train_y,
        LogisticConfig::default(),
    );
    let (tr_loss, tr_acc) = model.evaluate(&task.train_x, &task.train_y);
    let (te_loss, te_acc) = model.evaluate(&task.test_x, &task.test_y);
    table.row(&fmt_row(name, tr_loss, tr_acc, te_loss, te_acc));
    eprintln!(
        "  {name}: m = {m} features, transfer rank {rank}, {:.1}s",
        t0.elapsed().as_secs_f64()
    );
}

fn main() {
    println!("== Table III: binary coat-vs-shirt (synthetic Fashion-MNIST substitute) ==");
    println!("   200 train + 50 test per class; 4 qubits; exact-expectation backend\n");
    let task = binary_task(200, 50, 42);
    let train_mat = Mat::from_rows(&task.train_x);
    let test_mat = Mat::from_rows(&task.test_x);
    let mut table =
        TablePrinter::new(&["model", "train loss", "train acc", "test loss", "test acc"]);

    // --- Classical logistic regression on the 16 raw pooled features.
    let logistic = LogisticRegression::fit(&train_mat, &task.train_y, LogisticConfig::default());
    let tr_p = logistic.predict_proba(&train_mat);
    let te_p = logistic.predict_proba(&test_mat);
    table.row(&fmt_row(
        "Classical Logistic",
        ml::bce_loss(&task.train_y, &tr_p),
        accuracy(&task.train_y, &tr_p),
        ml::bce_loss(&task.test_y, &te_p),
        accuracy(&task.test_y, &te_p),
    ));

    // --- Two-layer MLP baseline.
    let mlp_labels: Vec<usize> = task.train_y.iter().map(|&y| y as usize).collect();
    let mlp_test_labels: Vec<usize> = task.test_y.iter().map(|&y| y as usize).collect();
    let mlp_cfg = MlpConfig::default();
    let mut mlp = Mlp::new(16, 1, &mlp_cfg);
    mlp.fit(&train_mat, &mlp_labels, &mlp_cfg);
    let tr_p = mlp.predict_proba_binary(&train_mat);
    let te_p = mlp.predict_proba_binary(&test_mat);
    table.row(&fmt_row(
        "Classical MLP",
        mlp.loss(&train_mat, &mlp_labels),
        accuracy(&task.train_y, &tr_p),
        mlp.loss(&test_mat, &mlp_test_labels),
        accuracy(&task.test_y, &te_p),
    ));

    // --- Variational baseline (paper reports accuracy only).
    let t0 = Instant::now();
    let vqc = VariationalClassifier::fit_binary(
        fig8_ansatz(4),
        Strategy::default_observable(4),
        &task.train_x,
        &task.train_y,
        &VariationalConfig::default(),
    );
    let (_, tr_acc) = vqc.evaluate_binary(&task.train_x, &task.train_y);
    let (_, te_acc) = vqc.evaluate_binary(&task.test_x, &task.test_y);
    table.row(&[
        "Variational".to_string(),
        "-".to_string(),
        format!("{:.2}%", tr_acc * 100.0),
        "-".to_string(),
        format!("{:.2}%", te_acc * 100.0),
    ]);
    eprintln!("  Variational: {:.1}s", t0.elapsed().as_secs_f64());

    // --- Post-variational rows.
    for (name, strategy) in bench::heads::table3_strategies() {
        pv_row(name, strategy, &task, &mut table);
    }

    println!();
    table.print();
    println!("\npaper reference (Table III, real Fashion-MNIST):");
    println!("  Logistic 69.25/65.33, MLP 77.92/67.67, Variational 55.83/50.67,");
    println!("  Ansatz 56.08→57.75, Observable 65.42→78.67, Hybrid up to 78.00 (train acc %)");
}
