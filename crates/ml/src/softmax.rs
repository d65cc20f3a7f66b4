//! Multinomial (softmax) logistic regression — the multiclass extension of
//! §VII.B: "being simply adding an additional dimension to the classical
//! linear map".

use crate::loss::{softmax, softmax_ce_loss};
use crate::optim::{project_l2_ball, Adam};
use linalg::Mat;

/// Training configuration.
#[derive(Clone, Copy, Debug)]
pub struct SoftmaxConfig {
    /// L2 penalty on weights.
    pub l2: f64,
    /// Full-batch epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Optional per-class ℓ2 ball constraint on weight rows.
    pub weight_ball: Option<f64>,
}

impl Default for SoftmaxConfig {
    fn default() -> Self {
        SoftmaxConfig {
            l2: 1e-2,
            epochs: 800,
            lr: 0.05,
            weight_ball: None,
        }
    }
}

/// A trained softmax classifier: `p(y=k|x) ∝ exp(w_k·x + b_k)`.
#[derive(Clone, Debug)]
pub struct SoftmaxRegression {
    /// `k × f` weights.
    weights: Vec<Vec<f64>>,
    /// `k` biases.
    biases: Vec<f64>,
    num_classes: usize,
}

impl SoftmaxRegression {
    /// Fits on features `x` (rows = samples) and integer labels `< k`.
    pub fn fit(x: &Mat, labels: &[usize], k: usize, config: SoftmaxConfig) -> Self {
        assert_eq!(x.rows(), labels.len());
        assert!(k >= 2, "need at least two classes");
        assert!(labels.iter().all(|&l| l < k), "label out of range");
        let d = x.rows();
        let f = x.cols();
        // Flat parameter vector: k rows of (f weights) then k biases.
        let mut params = vec![0.0; k * f + k];
        let mut opt = Adam::new(params.len(), config.lr);
        let inv_d = 1.0 / d as f64;

        for _ in 0..config.epochs {
            let mut grad = vec![0.0; k * f + k];
            for i in 0..d {
                let row = x.row(i);
                let logits: Vec<f64> = (0..k)
                    .map(|c| {
                        row.iter()
                            .zip(&params[c * f..(c + 1) * f])
                            .map(|(a, b)| a * b)
                            .sum::<f64>()
                            + params[k * f + c]
                    })
                    .collect();
                let probs = softmax(&logits);
                for c in 0..k {
                    let err = (probs[c] - if labels[i] == c { 1.0 } else { 0.0 }) * inv_d;
                    for (g, &xi) in grad[c * f..(c + 1) * f].iter_mut().zip(row.iter()) {
                        *g += err * xi;
                    }
                    grad[k * f + c] += err;
                }
            }
            for c in 0..k {
                for j in 0..f {
                    grad[c * f + j] += config.l2 * params[c * f + j];
                }
            }
            opt.step(&mut params, &grad);
            if let Some(r) = config.weight_ball {
                for c in 0..k {
                    project_l2_ball(&mut params[c * f..(c + 1) * f], r);
                }
            }
        }

        let weights = (0..k)
            .map(|c| params[c * f..(c + 1) * f].to_vec())
            .collect();
        let biases = params[k * f..].to_vec();
        SoftmaxRegression {
            weights,
            biases,
            num_classes: k,
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Per-row class probabilities.
    pub fn predict_proba(&self, x: &Mat) -> Vec<Vec<f64>> {
        (0..x.rows())
            .map(|i| {
                let row = x.row(i);
                let logits: Vec<f64> = self
                    .weights
                    .iter()
                    .zip(self.biases.iter())
                    .map(|(w, b)| row.iter().zip(w.iter()).map(|(a, c)| a * c).sum::<f64>() + b)
                    .collect();
                softmax(&logits)
            })
            .collect()
    }

    /// Argmax class predictions.
    pub fn predict(&self, x: &Mat) -> Vec<usize> {
        self.predict_proba(x)
            .into_iter()
            .map(|p| {
                p.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .map(|(i, _)| i)
                    .unwrap()
            })
            .collect()
    }

    /// Mean cross-entropy on a dataset.
    pub fn loss(&self, x: &Mat, labels: &[usize]) -> f64 {
        softmax_ce_loss(labels, &self.predict_proba(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy_multiclass;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Three blobs on a triangle.
    fn blobs3(d: usize, seed: u64) -> (Mat, Vec<usize>) {
        let centres = [(2.0, 0.0), (-1.0, 1.7), (-1.0, -1.7)];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..d {
            let c = i % 3;
            rows.push(vec![
                centres[c].0 + rng.random::<f64>() - 0.5,
                centres[c].1 + rng.random::<f64>() - 0.5,
            ]);
            labels.push(c);
        }
        (Mat::from_rows(&rows), labels)
    }

    #[test]
    fn three_blobs_high_accuracy() {
        let (x, y) = blobs3(150, 1);
        let model = SoftmaxRegression::fit(&x, &y, 3, SoftmaxConfig::default());
        let acc = accuracy_multiclass(&y, &model.predict(&x));
        assert!(acc > 0.95, "accuracy {acc}");
        assert!(model.loss(&x, &y) < 0.3);
    }

    #[test]
    fn probabilities_normalised() {
        let (x, y) = blobs3(60, 2);
        let model = SoftmaxRegression::fit(&x, &y, 3, SoftmaxConfig::default());
        for p in model.predict_proba(&x) {
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-10);
            assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn binary_case_matches_logistic_shape() {
        // k = 2 softmax should solve binary problems too.
        let (x, y3) = blobs3(100, 3);
        let y: Vec<usize> = y3.iter().map(|&c| usize::from(c == 0)).collect();
        let model = SoftmaxRegression::fit(&x, &y, 2, SoftmaxConfig::default());
        let acc = accuracy_multiclass(&y, &model.predict(&x));
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn ball_constraint_enforced_per_class() {
        let (x, y) = blobs3(90, 4);
        let model = SoftmaxRegression::fit(
            &x,
            &y,
            3,
            SoftmaxConfig {
                weight_ball: Some(0.5),
                ..Default::default()
            },
        );
        for w in &model.weights {
            let norm: f64 = w.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!(norm <= 0.5 + 1e-9);
        }
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_labels() {
        let x = Mat::zeros(2, 2);
        let _ = SoftmaxRegression::fit(&x, &[0, 5], 3, SoftmaxConfig::default());
    }
}
