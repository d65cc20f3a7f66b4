//! Binary logistic regression — the classical head of the post-variational
//! network (§VII.A: "For the classical regression layer, we use the
//! logistic regression algorithm as provided by the scikit-learn library")
//! and the "Classical Logistic" baseline of Table III.

use crate::loss::{bce_loss, sigmoid};
use crate::optim::{norm_inf, project_l2_ball, Lbfgs, LbfgsResult};
use linalg::{dot, Mat};
use rayon::prelude::*;

/// Training configuration.
#[derive(Clone, Copy, Debug)]
pub struct LogisticConfig {
    /// L2 penalty coefficient λ on the weights (not the intercept);
    /// `1e-2` roughly matches scikit-learn's default `C = 1` at the
    /// dataset sizes used in the paper.
    pub l2: f64,
    /// Cap on full-batch evaluations of the objective and its gradient
    /// (per L-BFGS solve); the solver normally stops earlier, at
    /// ‖∇‖∞ ≤ [`Lbfgs::GRAD_TOL`].
    pub epochs: usize,
    /// Optional hard constraint `‖w‖₂ ≤ r` (Theorem 4's robustness
    /// constraint), met exactly.
    pub weight_ball: Option<f64>,
}

impl Default for LogisticConfig {
    fn default() -> Self {
        LogisticConfig {
            l2: 1e-2,
            epochs: 800,
            weight_ball: None,
        }
    }
}

/// A trained binary logistic-regression model `p(y=1|x) = σ(w·x + b)`.
#[derive(Clone, Debug)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    bias: f64,
    config: LogisticConfig,
    iterations: usize,
    grad_norm_inf: f64,
}

impl LogisticRegression {
    /// Fits on feature matrix `x` (rows = samples) and labels `y ∈ {0,1}`
    /// by minimising mean BCE + (λ/2)‖w‖² with [`Lbfgs`] from zero. The
    /// result is bit-for-bit the same at any thread count.
    pub fn fit(x: &Mat, y: &[f64], config: LogisticConfig) -> Self {
        assert_eq!(x.rows(), y.len(), "row/label count mismatch");
        assert!(
            y.iter().all(|&v| v == 0.0 || v == 1.0),
            "labels must be 0/1"
        );
        let f = x.cols();
        let solve = |mu: f64, start: Vec<f64>| {
            Lbfgs {
                max_evals: config.epochs,
            }
            .minimize(start, |p, g| loss_grad(x, y, config.l2 + mu, p, g))
        };
        let mut run = solve(0.0, vec![0.0; f + 1]);
        if let Some(r) = config.weight_ball {
            run = fit_in_ball(run, r, f, solve);
        }
        let mut params = run.x;
        let bias = params.pop().expect("bias is the last parameter");
        LogisticRegression {
            weights: params,
            bias,
            config,
            iterations: run.iterations,
            grad_norm_inf: run.grad_norm_inf,
        }
    }

    /// The learned weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The learned intercept.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// The configuration the model was trained with.
    pub fn config(&self) -> &LogisticConfig {
        &self.config
    }

    /// L-BFGS iterations the fit took (summed over the multiplier search
    /// when a `weight_ball` binds).
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// ‖∇‖∞ of the objective the last solve minimised, at the returned
    /// parameters.
    pub fn grad_norm_inf(&self) -> f64 {
        self.grad_norm_inf
    }

    /// Decision-function value `w·x + b` for one feature row — the
    /// row-wise entry point serving-style callers use; bit-for-bit
    /// identical to the corresponding [`Self::decision_function`] entry.
    pub fn decision_one(&self, row: &[f64]) -> f64 {
        assert_eq!(row.len(), self.weights.len(), "feature-count mismatch");
        dot(row, &self.weights) + self.bias
    }

    /// Probability `p(y=1|x)` for one feature row.
    pub fn predict_proba_one(&self, row: &[f64]) -> f64 {
        sigmoid(self.decision_one(row))
    }

    /// Decision-function values `w·x + b` per row.
    pub fn decision_function(&self, x: &Mat) -> Vec<f64> {
        assert_eq!(x.cols(), self.weights.len(), "feature-count mismatch");
        (0..x.rows()).map(|i| self.decision_one(x.row(i))).collect()
    }

    /// Probabilities `p(y=1|x)` per row.
    pub fn predict_proba(&self, x: &Mat) -> Vec<f64> {
        self.decision_function(x).into_iter().map(sigmoid).collect()
    }

    /// Hard 0/1 predictions.
    pub fn predict(&self, x: &Mat) -> Vec<f64> {
        self.predict_proba(x)
            .into_iter()
            .map(|p| if p >= 0.5 { 1.0 } else { 0.0 })
            .collect()
    }

    /// Mean BCE on a dataset.
    pub fn loss(&self, x: &Mat, y: &[f64]) -> f64 {
        bce_loss(y, &self.predict_proba(x))
    }

    /// The regularised training objective at this model's parameters —
    /// mean BCE + (λ/2)‖w‖² with the configured λ — and the ∞-norm of its
    /// gradient. A model fitted inside a `weight_ball` that binds sits on
    /// the ball's surface, where this gradient is not zero.
    pub fn objective(&self, x: &Mat, y: &[f64]) -> (f64, f64) {
        let mut params = self.weights.clone();
        params.push(self.bias);
        let mut grad = vec![0.0; params.len()];
        let value = loss_grad(x, y, self.config.l2, &params, &mut grad);
        (value, norm_inf(&grad))
    }
}

/// Theorem 4's ball `‖w‖ ≤ r`, through its Lagrange multiplier: the
/// constrained optimum minimises the objective plus (μ/2)‖w‖² for the
/// smallest μ ≥ 0 whose minimiser lies in the ball, and that minimiser's
/// norm falls as μ grows. Brackets μ by doubling, bisects it with
/// warm-started solves, and returns the bracket's feasible end, so
/// ‖w‖ ≤ r holds exactly.
fn fit_in_ball(
    free: LbfgsResult,
    r: f64,
    f: usize,
    solve: impl Fn(f64, Vec<f64>) -> LbfgsResult,
) -> LbfgsResult {
    assert!(r > 0.0, "weight_ball radius must be positive");
    let norm = |run: &LbfgsResult| dot(&run.x[..f], &run.x[..f]).sqrt();
    if norm(&free) <= r {
        return free;
    }
    let mut iterations = free.iterations;
    let (mut lo, mut hi) = (0.0, 1.0);
    let mut feasible = solve(hi, free.x);
    iterations += feasible.iterations;
    while norm(&feasible) > r {
        if hi > 1e18 {
            // Only an evaluation cap too small to move the weights gets
            // here: fall back to projecting onto the ball.
            project_l2_ball(&mut feasible.x[..f], r);
            return LbfgsResult {
                iterations,
                ..feasible
            };
        }
        (lo, hi) = (hi, 2.0 * hi);
        feasible = solve(hi, feasible.x);
        iterations += feasible.iterations;
    }
    while hi - lo > 1e-9 * hi {
        let mid = 0.5 * (lo + hi);
        let run = solve(mid, feasible.x.clone());
        iterations += run.iterations;
        if norm(&run) <= r {
            (hi, feasible) = (mid, run);
        } else {
            lo = mid;
        }
    }
    LbfgsResult {
        iterations,
        ..feasible
    }
}

/// Rows per block of the fused loss-and-gradient kernel. Fixed, so the
/// order of every floating-point add is too.
const BLOCK_ROWS: usize = 32;

/// `rows × cols` from which blocks fan out over the executor. It decides
/// only where blocks run, never what they add, so the bits are the same
/// at any thread count.
const PAR_MIN_ELEMS: usize = 1 << 15;

/// Numerically stable `ln(1 + eᶻ)`.
fn softplus(z: f64) -> f64 {
    z.max(0.0) + (-z.abs()).exp().ln_1p()
}

/// One block's summed BCE (softplus form) and `Σ (σ(z) − y)·[row, 1]`,
/// starting at row `first`.
fn block_loss_grad(x: &Mat, first: usize, y: &[f64], params: &[f64]) -> (f64, Vec<f64>) {
    let (w, b) = params.split_at(x.cols());
    let mut grad = vec![0.0; params.len()];
    let mut loss = 0.0;
    for (i, &yi) in y.iter().enumerate() {
        let row = x.row(first + i);
        let z = dot(row, w) + b[0];
        loss += softplus(z) - yi * z;
        let err = sigmoid(z) - yi;
        let (gw, gb) = grad.split_at_mut(row.len());
        for (g, &xj) in gw.iter_mut().zip(row) {
            *g += err * xj;
        }
        gb[0] += err;
    }
    (loss, grad)
}

/// Mean BCE + (λ/2)‖w‖² at `params = w ++ [b]` (the bias unpenalised),
/// writing its gradient into `grad`. Fixed [`BLOCK_ROWS`]-row blocks each
/// fill their own partial, and partials are added in block order.
fn loss_grad(x: &Mat, y: &[f64], l2: f64, params: &[f64], grad: &mut [f64]) -> f64 {
    let block = |(k, yb): (usize, &[f64])| block_loss_grad(x, k * BLOCK_ROWS, yb, params);
    let partials: Vec<(f64, Vec<f64>)> = if x.rows() * x.cols() >= PAR_MIN_ELEMS {
        y.par_chunks(BLOCK_ROWS).enumerate().map(block).collect()
    } else {
        y.chunks(BLOCK_ROWS).enumerate().map(block).collect()
    };
    grad.fill(0.0);
    let mut loss = 0.0;
    for (l, g) in &partials {
        loss += l;
        for (a, b) in grad.iter_mut().zip(g) {
            *a += b;
        }
    }
    let inv_d = 1.0 / y.len() as f64;
    let f = x.cols();
    for (g, &w) in grad[..f].iter_mut().zip(&params[..f]) {
        *g = *g * inv_d + l2 * w;
    }
    grad[f] *= inv_d;
    loss * inv_d + 0.5 * l2 * dot(&params[..f], &params[..f])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Two Gaussian-ish blobs separated along x₀.
    fn blobs(d: usize, seed: u64) -> (Mat, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(d);
        let mut y = Vec::with_capacity(d);
        for i in 0..d {
            let label = (i % 2) as f64;
            let centre = if label == 1.0 { 1.5 } else { -1.5 };
            rows.push(vec![
                centre + rng.random::<f64>() - 0.5,
                rng.random::<f64>() - 0.5,
            ]);
            y.push(label);
        }
        (Mat::from_rows(&rows), y)
    }

    #[test]
    fn separable_blobs_reach_high_accuracy() {
        let (x, y) = blobs(120, 1);
        let model = LogisticRegression::fit(&x, &y, LogisticConfig::default());
        let acc = accuracy(&y, &model.predict_proba(&x));
        assert!(acc > 0.95, "train accuracy {acc}");
        assert!(model.loss(&x, &y) < 0.3);
        // Training provenance travels with the model.
        assert_eq!(model.config().epochs, LogisticConfig::default().epochs);
    }

    #[test]
    fn weight_points_along_separating_direction() {
        let (x, y) = blobs(200, 2);
        let model = LogisticRegression::fit(&x, &y, LogisticConfig::default());
        assert!(
            model.weights()[0].abs() > 3.0 * model.weights()[1].abs(),
            "weights {:?}",
            model.weights()
        );
        assert!(model.weights()[0] > 0.0);
    }

    #[test]
    fn l2_shrinks_weights() {
        let (x, y) = blobs(100, 3);
        let loose = LogisticRegression::fit(
            &x,
            &y,
            LogisticConfig {
                l2: 1e-6,
                ..Default::default()
            },
        );
        let tight = LogisticRegression::fit(
            &x,
            &y,
            LogisticConfig {
                l2: 1.0,
                ..Default::default()
            },
        );
        let norm = |w: &[f64]| w.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(norm(tight.weights()) < norm(loose.weights()));
    }

    #[test]
    fn ball_constraint_enforced() {
        let (x, y) = blobs(100, 4);
        let config = LogisticConfig {
            weight_ball: Some(1.0),
            ..Default::default()
        };
        let model = LogisticRegression::fit(&x, &y, config);
        let norm: f64 = model.weights().iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(norm <= 1.0, "‖w‖ = {norm}");
        // Still learns the separable problem reasonably.
        let acc = accuracy(&y, &model.predict_proba(&x));
        assert!(acc > 0.9, "constrained accuracy {acc}");

        // No worse than 800 epochs of projected Adam (lr 0.05) on the
        // same objective, the solver this fit replaced.
        let mut params = vec![0.0; 3];
        let mut grad = vec![0.0; 3];
        let mut adam = crate::optim::Adam::new(3, 0.05);
        for _ in 0..config.epochs {
            loss_grad(&x, &y, config.l2, &params, &mut grad);
            adam.step(&mut params, &grad);
            crate::optim::project_l2_ball(&mut params[..2], 1.0);
        }
        let adam_objective = loss_grad(&x, &y, config.l2, &params, &mut grad);
        let (objective, _) = model.objective(&x, &y);
        assert!(
            objective <= adam_objective,
            "L-BFGS {objective} vs projected Adam {adam_objective}"
        );
    }

    #[test]
    fn ball_search_ends_under_a_tiny_evaluation_cap() {
        // Two evaluations per solve cannot always move the weights, so
        // the multiplier search must still end, inside the ball.
        let (x, y) = blobs(100, 4);
        let config = LogisticConfig {
            epochs: 2,
            weight_ball: Some(0.1),
            ..Default::default()
        };
        let model = LogisticRegression::fit(&x, &y, config);
        let norm: f64 = model.weights().iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(norm <= 0.1 * (1.0 + 1e-12), "‖w‖ = {norm}");
    }

    #[test]
    fn converges_to_the_gradient_tolerance() {
        let (x, y) = blobs(120, 6);
        let model = LogisticRegression::fit(&x, &y, LogisticConfig::default());
        assert!(model.grad_norm_inf() <= Lbfgs::GRAD_TOL);
        assert!(model.iterations() > 0);
        // An independent evaluation at the returned parameters agrees.
        let (_, grad_inf) = model.objective(&x, &y);
        assert!(grad_inf <= Lbfgs::GRAD_TOL, "‖g‖∞ = {grad_inf}");
    }

    /// Determinism ledger: the head fit is thread-invariant — fixed
    /// 32-row blocks added in block order, above the parallel threshold.
    #[test]
    fn fit_bits_identical_across_thread_counts() {
        let (d, f) = (256, 160);
        assert!(d * f >= PAR_MIN_ELEMS);
        let mut state = 7u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let x = Mat::from_vec(d, f, (0..d * f).map(|_| next()).collect());
        let y: Vec<f64> = (0..d)
            .map(|i| f64::from(x[(i, 0)] + x[(i, 1)] > 0.0))
            .collect();
        let fit = |threads| {
            rayon::with_num_threads(threads, || {
                LogisticRegression::fit(&x, &y, LogisticConfig::default())
            })
        };
        let bits = |m: &LogisticRegression| -> Vec<u64> {
            m.weights()
                .iter()
                .chain([m.bias(), m.grad_norm_inf()].iter())
                .map(|v| v.to_bits())
                .collect()
        };
        let one = fit(1);
        for threads in [2, 4] {
            let many = fit(threads);
            assert_eq!(bits(&one), bits(&many), "{threads} threads");
            assert_eq!(one.iterations(), many.iterations());
        }
    }

    #[test]
    fn zero_columns_fit_a_bias_only_model() {
        let x = Mat::from_vec(10, 0, Vec::new());
        let y: Vec<f64> = (0..10).map(|i| f64::from(i < 3)).collect();
        let model = LogisticRegression::fit(&x, &y, LogisticConfig::default());
        assert!(model.weights().is_empty());
        // The bias-only optimum predicts the base rate.
        assert!((model.predict_proba_one(&[]) - 0.3).abs() < 1e-6);
        assert!(model.grad_norm_inf() <= Lbfgs::GRAD_TOL);
    }

    #[test]
    fn predictions_are_binary() {
        let (x, y) = blobs(40, 5);
        let model = LogisticRegression::fit(&x, &y, LogisticConfig::default());
        for p in model.predict(&x) {
            assert!(p == 0.0 || p == 1.0);
        }
    }

    #[test]
    #[should_panic]
    fn rejects_non_binary_labels() {
        let x = Mat::zeros(2, 1);
        let _ = LogisticRegression::fit(&x, &[0.0, 0.7], LogisticConfig::default());
    }
}
