//! The variational baseline (paper §III.B and the "Variational" rows of
//! Tables III–IV).
//!
//! A circuit-centric quantum classifier \[7\]: encode `x` with the Fig. 7
//! circuit, apply the Fig. 8 ansatz `U(θ)`, measure an observable. The
//! parameters are trained by gradient descent where every partial
//! derivative comes from the ±π/2 parameter-shift rule [6, 46] — the
//! hybrid quantum-classical feedback loop the post-variational method
//! removes.

use crate::encoding::column_encoding;
use ml::loss::{bce_loss, softmax_ce_loss};
use ml::optim::Adam;
use pauli::PauliString;
use qsim::{ParamCircuit, StateVector};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rayon::prelude::*;
use std::f64::consts::FRAC_PI_2;

/// Training configuration.
#[derive(Clone, Copy, Debug)]
pub struct VariationalConfig {
    /// Full-batch training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Zero-initialise parameters (the paper's identity-block choice \[21\]);
    /// otherwise uniform in `(−π, π)` from `seed`.
    pub init_zero: bool,
    /// Seed for random initialisation.
    pub seed: u64,
}

impl Default for VariationalConfig {
    fn default() -> Self {
        VariationalConfig {
            epochs: 60,
            lr: 0.05,
            init_zero: true,
            seed: 1,
        }
    }
}

/// A trained variational quantum classifier.
#[derive(Clone, Debug)]
pub struct VariationalClassifier {
    ansatz: ParamCircuit,
    theta: Vec<f64>,
    observable: PauliString,
    num_classes: usize,
}

impl VariationalClassifier {
    fn initial_theta(k: usize, config: &VariationalConfig) -> Vec<f64> {
        if config.init_zero {
            vec![0.0; k]
        } else {
            let mut rng = StdRng::seed_from_u64(config.seed);
            (0..k)
                .map(|_| (rng.random::<f64>() * 2.0 - 1.0) * std::f64::consts::PI)
                .collect()
        }
    }

    fn state(&self, x: &[f64], theta: &[f64]) -> StateVector {
        let mut c = column_encoding(x, self.ansatz.num_qubits());
        c.extend(&self.ansatz.bind(theta));
        StateVector::from_circuit(&c)
    }

    /// `⟨O⟩` head value for one sample at parameters `theta`.
    fn head_value(&self, x: &[f64], theta: &[f64]) -> f64 {
        self.state(x, theta).expectation(&self.observable)
    }

    /// Bitstring-partition class probabilities [75]: outcome `b` is
    /// assigned to class `b mod k`, probabilities summed per class.
    fn class_probs(&self, x: &[f64], theta: &[f64], k: usize) -> Vec<f64> {
        let probs = self.state(x, theta).probabilities();
        let mut out = vec![0.0; k];
        for (b, p) in probs.iter().enumerate() {
            out[b % k] += p;
        }
        out
    }

    /// Trains a binary classifier: minimises MSE between `⟨O⟩(x) ∈ [−1,1]`
    /// and labels mapped to ±1, by parameter-shift gradients + Adam.
    pub fn fit_binary(
        ansatz: ParamCircuit,
        observable: PauliString,
        data: &[Vec<f64>],
        labels: &[f64],
        config: &VariationalConfig,
    ) -> Self {
        assert_eq!(data.len(), labels.len());
        assert!(labels.iter().all(|&l| l == 0.0 || l == 1.0));
        let k = ansatz.num_params();
        let mut model = VariationalClassifier {
            ansatz,
            theta: Self::initial_theta(k, config),
            observable,
            num_classes: 1,
        };
        let targets: Vec<f64> = labels.iter().map(|&l| 2.0 * l - 1.0).collect();
        let d = data.len() as f64;
        let mut opt = Adam::new(k, config.lr);

        for _ in 0..config.epochs {
            let theta = model.theta.clone();
            // Per-sample residual and per-parameter shifted evaluations.
            let grads: Vec<f64> = (0..k)
                .into_par_iter()
                .map(|u| {
                    let mut plus = theta.clone();
                    plus[u] += FRAC_PI_2;
                    let mut minus = theta.clone();
                    minus[u] -= FRAC_PI_2;
                    data.par_iter()
                        .zip(targets.par_iter())
                        .map(|(x, &t)| {
                            let f = model.head_value(x, &theta);
                            // Parameter-shift: ∂⟨O⟩/∂θu = (E₊ − E₋)/2.
                            let de =
                                (model.head_value(x, &plus) - model.head_value(x, &minus)) / 2.0;
                            2.0 * (f - t) * de / d
                        })
                        .sum()
                })
                .collect();
            opt.step(&mut model.theta, &grads);
        }
        model
    }

    /// Trains a multiclass classifier with bitstring-partition readout and
    /// cross-entropy loss; gradients again via parameter shift (the class
    /// probabilities are projector expectations, so the rule applies).
    pub fn fit_multiclass(
        ansatz: ParamCircuit,
        data: &[Vec<f64>],
        labels: &[usize],
        num_classes: usize,
        config: &VariationalConfig,
    ) -> Self {
        assert_eq!(data.len(), labels.len());
        assert!(num_classes >= 2);
        let n = ansatz.num_qubits();
        let k = ansatz.num_params();
        let mut model = VariationalClassifier {
            ansatz,
            theta: Self::initial_theta(k, config),
            observable: PauliString::identity(n),
            num_classes,
        };
        let d = data.len() as f64;
        let mut opt = Adam::new(k, config.lr);

        for _ in 0..config.epochs {
            let theta = model.theta.clone();
            let grads: Vec<f64> = (0..k)
                .into_par_iter()
                .map(|u| {
                    let mut plus = theta.clone();
                    plus[u] += FRAC_PI_2;
                    let mut minus = theta.clone();
                    minus[u] -= FRAC_PI_2;
                    data.par_iter()
                        .zip(labels.par_iter())
                        .map(|(x, &y)| {
                            let p = model.class_probs(x, &theta, num_classes);
                            let pp = model.class_probs(x, &plus, num_classes);
                            let pm = model.class_probs(x, &minus, num_classes);
                            // ∂CE/∂θu = −(1/p_y)·∂p_y/∂θu per sample.
                            let dp = (pp[y] - pm[y]) / 2.0;
                            -dp / p[y].max(1e-12) / d
                        })
                        .sum()
                })
                .collect();
            opt.step(&mut model.theta, &grads);
        }
        model
    }

    /// The trained parameters.
    pub fn theta(&self) -> &[f64] {
        &self.theta
    }

    /// Binary probabilities via the affine map `(⟨O⟩ + 1)/2`.
    pub fn predict_proba_binary(&self, data: &[Vec<f64>]) -> Vec<f64> {
        assert_eq!(self.num_classes, 1);
        data.par_iter()
            .map(|x| (self.head_value(x, &self.theta) + 1.0) / 2.0)
            .collect()
    }

    /// `(BCE-equivalent loss, accuracy)` for binary labels. The paper's
    /// Table III leaves the variational loss blank (different objective);
    /// we report accuracy and the MSE-on-±1 objective for completeness.
    pub fn evaluate_binary(&self, data: &[Vec<f64>], labels: &[f64]) -> (f64, f64) {
        let probs = self.predict_proba_binary(data);
        let acc = ml::accuracy(labels, &probs);
        (bce_loss(labels, &probs), acc)
    }

    /// Multiclass predictions.
    pub fn predict_multiclass(&self, data: &[Vec<f64>]) -> Vec<usize> {
        assert!(self.num_classes >= 2);
        data.par_iter()
            .map(|x| {
                let p = self.class_probs(x, &self.theta, self.num_classes);
                p.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap()
                    .0
            })
            .collect()
    }

    /// `(cross-entropy, accuracy)` for multiclass labels.
    pub fn evaluate_multiclass(&self, data: &[Vec<f64>], labels: &[usize]) -> (f64, f64) {
        let probs: Vec<Vec<f64>> = data
            .par_iter()
            .map(|x| self.class_probs(x, &self.theta, self.num_classes))
            .collect();
        let loss = softmax_ce_loss(labels, &probs);
        let preds = self.predict_multiclass(data);
        (loss, ml::accuracy_multiclass(labels, &preds))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ansatz::fig8_ansatz;
    use crate::strategy::Strategy;

    /// A binary task that a variational circuit *can* learn: the label is
    /// the sign of ⟨Z₀⟩ of the *encoded* state, so some θ (e.g. identity)
    /// solves it perfectly.
    fn easy_task(d: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        let mut i = 0;
        while data.len() < d {
            i += 1;
            let x: Vec<f64> = (0..16)
                .map(|j| 0.25 + 0.41 * ((i * 5 + j * 11) % 23) as f64 / 23.0 * 5.5)
                .collect();
            let n = 4;
            let c = column_encoding(&x, n);
            let s = StateVector::from_circuit(&c);
            let z0 = Strategy::default_observable(n);
            let v = s.expectation(&z0);
            if v.abs() < 0.15 {
                continue; // keep a margin so the task is cleanly separable
            }
            labels.push(if v > 0.0 { 1.0 } else { 0.0 });
            data.push(x);
        }
        (data, labels)
    }

    #[test]
    fn binary_training_improves_over_initialisation() {
        let (data, labels) = easy_task(40);
        let config = VariationalConfig {
            epochs: 40,
            lr: 0.1,
            init_zero: true,
            seed: 1,
        };
        let model = VariationalClassifier::fit_binary(
            fig8_ansatz(4),
            Strategy::default_observable(4),
            &data,
            &labels,
            &config,
        );
        let (_, acc) = model.evaluate_binary(&data, &labels);
        // Zero-init already solves this task (identity circuit); training
        // must not destroy it.
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn parameter_shift_matches_finite_difference() {
        let (data, _) = easy_task(3);
        let model = VariationalClassifier {
            ansatz: fig8_ansatz(4),
            theta: vec![0.3, -0.2, 0.5, 0.1, -0.4, 0.2, 0.0, 0.6],
            observable: Strategy::default_observable(4),
            num_classes: 1,
        };
        let x = &data[0];
        for u in [0, 3, 7] {
            let mut plus = model.theta.clone();
            plus[u] += FRAC_PI_2;
            let mut minus = model.theta.clone();
            minus[u] -= FRAC_PI_2;
            let shift_grad = (model.head_value(x, &plus) - model.head_value(x, &minus)) / 2.0;
            let h = 1e-5;
            let mut fp = model.theta.clone();
            fp[u] += h;
            let mut fm = model.theta.clone();
            fm[u] -= h;
            let fd_grad = (model.head_value(x, &fp) - model.head_value(x, &fm)) / (2.0 * h);
            assert!(
                (shift_grad - fd_grad).abs() < 1e-6,
                "param {u}: shift {shift_grad} vs fd {fd_grad}"
            );
        }
    }

    #[test]
    fn multiclass_probabilities_normalised() {
        let (data, _) = easy_task(5);
        let model = VariationalClassifier {
            ansatz: fig8_ansatz(4),
            theta: vec![0.2; 8],
            observable: PauliString::identity(4),
            num_classes: 3,
        };
        for x in &data {
            let p = model.class_probs(x, &model.theta, 3);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn multiclass_training_runs_and_beats_uniform_loss() {
        let (data, _) = easy_task(20);
        let labels: Vec<usize> = (0..20).map(|i| i % 3).collect();
        let config = VariationalConfig {
            epochs: 15,
            lr: 0.1,
            init_zero: false,
            seed: 3,
        };
        let model =
            VariationalClassifier::fit_multiclass(fig8_ansatz(4), &data, &labels, 3, &config);
        let (loss, acc) = model.evaluate_multiclass(&data, &labels);
        assert!(loss.is_finite());
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn zero_init_gives_identity_circuit_predictions() {
        let (data, _) = easy_task(4);
        let model = VariationalClassifier {
            ansatz: fig8_ansatz(4),
            theta: vec![0.0; 8],
            observable: Strategy::default_observable(4),
            num_classes: 1,
        };
        // With θ = 0 the ansatz is the CNOT ring only; head values equal
        // those of the encoded state passed through the ring.
        for x in &data {
            let mut c = column_encoding(x, 4);
            c.extend(&fig8_ansatz(4).bind(&[0.0; 8]));
            let want = StateVector::from_circuit(&c).expectation(&model.observable);
            assert!((model.head_value(x, &model.theta) - want).abs() < 1e-12);
        }
    }
}
