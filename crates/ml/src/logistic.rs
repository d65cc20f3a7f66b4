//! Binary logistic regression — the classical head of the post-variational
//! network (§VII.A: "For the classical regression layer, we use the
//! logistic regression algorithm as provided by the scikit-learn library")
//! and the "Classical Logistic" baseline of Table III.

use crate::loss::{bce_loss, sigmoid};
use crate::optim::{norm_inf, project_l2_ball, Lbfgs, LbfgsResult};
use linalg::{dot, Mat};
use rayon::prelude::*;
use std::collections::HashMap;

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
    ///
    /// Columns equal up to sign are solved once. With σⱼ the sign of
    /// column j's first non-zero entry and kₛ the size of its group s,
    /// the fit runs on the reduced design zₛ = √kₛ·σ·x_rep and maps back
    /// by wⱼ = σⱼ·uₛ/√kₛ. That map is an isometry onto the subspace
    /// L-BFGS never leaves from zero on the full design, and the two-loop
    /// recursion sees only inner products, so both solves take the same
    /// steps in exact arithmetic; ‖w‖ = ‖u‖ keeps a `weight_ball`
    /// unchanged. The reduced stop ‖∇ᵤ‖∞ ≤ [`Lbfgs::GRAD_TOL`] bounds the
    /// full-width gradient by the same over √kₛ, so the stop is never
    /// looser, and [`Self::grad_norm_inf`] is measured at full width. A
    /// design without repeated columns takes the full-width solve
    /// unchanged.
    pub fn fit(x: &Mat, y: &[f64], config: LogisticConfig) -> Self {
        assert_eq!(x.rows(), y.len(), "row/label count mismatch");
        assert!(
            y.iter().all(|&v| v == 0.0 || v == 1.0),
            "labels must be 0/1"
        );
        let (mut params, iterations, grad_norm_inf) = match Presolve::detect(x) {
            None => {
                let (run, _) = solve_head(x, y, config, |w| dot(w, w).sqrt());
                (run.x, run.iterations, run.grad_norm_inf)
            }
            Some(presolve) => {
                let z = presolve.reduce(x);
                let (run, mu) = solve_head(&z, y, config, |u| {
                    let w = presolve.expand(u);
                    dot(&w, &w).sqrt()
                });
                let mut params = presolve.expand(&run.x[..z.cols()]);
                params.push(run.x[z.cols()]);
                let mut grad = vec![0.0; params.len()];
                loss_grad(x, y, config.l2 + mu, &params, &mut grad);
                (params, run.iterations, norm_inf(&grad))
            }
        };
        let bias = params.pop().expect("bias is the last parameter");
        LogisticRegression {
            weights: params,
            bias,
            config,
            iterations,
            grad_norm_inf,
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

/// Minimises the objective on design `x` from zero, inside
/// `config.weight_ball` when one is set, where `norm` measures the
/// weights the solver's first `x.cols()` parameters stand for. Returns
/// the last solve and the multiplier μ it added to λ.
fn solve_head(
    x: &Mat,
    y: &[f64],
    config: LogisticConfig,
    norm: impl Fn(&[f64]) -> f64,
) -> (LbfgsResult, f64) {
    let f = x.cols();
    let objective = |mu: f64, p: &[f64], g: &mut [f64]| loss_grad(x, y, config.l2 + mu, p, g);
    let solve = |mu: f64, start: Vec<f64>| {
        Lbfgs {
            max_evals: config.epochs,
        }
        .minimize(start, |p, g| objective(mu, p, g))
    };
    let free = solve(0.0, vec![0.0; f + 1]);
    match config.weight_ball {
        Some(r) => fit_in_ball(free, r, |p| norm(&p[..f]), solve, objective),
        None => (free, 0.0),
    }
}

/// Theorem 4's ball `‖w‖ ≤ r`, through its Lagrange multiplier: the
/// constrained optimum minimises the objective plus (μ/2)‖w‖² for the
/// smallest μ ≥ 0 whose minimiser lies in the ball, and that minimiser's
/// norm falls as μ grows. Brackets μ by doubling, bisects it with
/// warm-started solves, and keeps the bracket's feasible end with its
/// μ, so ‖w‖ ≤ r holds exactly.
///
/// Each solve stops at ‖∇‖∞ ≤ [`Lbfgs::GRAD_TOL`], which leaves that end
/// about 1e-6 inside the ball while the optimum lies on its surface. A
/// closing radial rescale puts ‖w‖ on r (to rounding, never above it)
/// and is kept only if it does not raise the objective at μ = 0.
/// `norm` measures the weights of a parameter vector; `objective(μ, p,
/// g)` is the objective plus (μ/2)‖w‖², writing its gradient into `g`.
fn fit_in_ball(
    free: LbfgsResult,
    r: f64,
    norm: impl Fn(&[f64]) -> f64,
    solve: impl Fn(f64, Vec<f64>) -> LbfgsResult,
    objective: impl Fn(f64, &[f64], &mut [f64]) -> f64,
) -> (LbfgsResult, f64) {
    assert!(r > 0.0, "weight_ball radius must be positive");
    if norm(&free.x) <= r {
        return (free, 0.0);
    }
    let f = free.x.len() - 1;
    let mut iterations = free.iterations;
    let (mut lo, mut hi) = (0.0, 1.0);
    let mut feasible = solve(hi, free.x);
    iterations += feasible.iterations;
    while norm(&feasible.x) > r {
        if hi > 1e18 {
            // Only an evaluation cap too small to move the weights gets
            // here: fall back to projecting onto the ball.
            project_l2_ball(&mut feasible.x[..f], r);
            return (
                LbfgsResult {
                    iterations,
                    ..feasible
                },
                hi,
            );
        }
        (lo, hi) = (hi, 2.0 * hi);
        feasible = solve(hi, feasible.x);
        iterations += feasible.iterations;
    }
    while hi - lo > 1e-9 * hi {
        let mid = 0.5 * (lo + hi);
        let run = solve(mid, feasible.x.clone());
        iterations += run.iterations;
        if norm(&run.x) <= r {
            (hi, feasible) = (mid, run);
        } else {
            lo = mid;
        }
    }
    let inside = norm(&feasible.x);
    if inside > 0.0 {
        let mut onto = feasible.x.clone();
        let mut scale = r / inside;
        loop {
            for (v, &w) in onto[..f].iter_mut().zip(&feasible.x[..f]) {
                *v = w * scale;
            }
            if norm(&onto) <= r {
                break;
            }
            scale *= 1.0 - f64::EPSILON;
        }
        let mut grad = vec![0.0; onto.len()];
        if objective(0.0, &onto, &mut grad) <= objective(0.0, &feasible.x, &mut grad) {
            feasible.value = objective(hi, &onto, &mut grad);
            feasible.grad_norm_inf = norm_inf(&grad);
            feasible.x = onto;
        }
    }
    (
        LbfgsResult {
            iterations,
            ..feasible
        },
        hi,
    )
}

/// The columns of a design grouped where they are equal up to sign: the
/// presolve of [`LogisticRegression::fit`].
struct Presolve {
    /// Per column, its group; groups are numbered in order of their first
    /// column.
    group: Vec<usize>,
    /// Per column, σⱼ: the sign of its first non-zero entry, +1 for an
    /// all-zero column.
    sign: Vec<f64>,
    /// Per group, its first column.
    reps: Vec<usize>,
    /// Per group, √kₛ for its kₛ columns.
    root_k: Vec<f64>,
}

impl Presolve {
    /// Groups `x`'s columns, or `None` when no two are equal up to sign.
    /// One row-major pass hashes every column's σⱼ·xᵢⱼ (−0.0 read as 0.0);
    /// a second compares each column with the first column of its hash
    /// value, so a hash match alone never merges two columns and a column
    /// holding a NaN never merges at all.
    fn detect(x: &Mat) -> Option<Self> {
        let f = x.cols();
        let mut sign = vec![0.0; f];
        let mut hash = vec![0u64; f];
        for i in 0..x.rows() {
            for ((s, h), &v) in sign.iter_mut().zip(&mut hash).zip(x.row(i)) {
                if *s == 0.0 && v != 0.0 {
                    *s = if v < 0.0 { -1.0 } else { 1.0 };
                }
                // Before a column's first non-zero entry, σ is 0 and so
                // is every entry; adding 0.0 turns −0.0 into 0.0.
                let bits = (*s * v + 0.0).to_bits();
                *h = (h.rotate_left(23) ^ bits).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            }
        }
        for s in &mut sign {
            if *s == 0.0 {
                *s = 1.0;
            }
        }
        let mut first = HashMap::with_capacity(f);
        let candidate: Vec<usize> = (0..f).map(|j| *first.entry(hash[j]).or_insert(j)).collect();
        if first.len() == f {
            return None;
        }
        let mut merges: Vec<bool> = (0..f).map(|j| candidate[j] != j).collect();
        for i in 0..x.rows() {
            let row = x.row(i);
            for j in 0..f {
                let c = candidate[j];
                if merges[j] && sign[j] * row[j] != sign[c] * row[c] {
                    merges[j] = false;
                }
            }
        }
        let mut group = vec![0; f];
        let mut reps = Vec::new();
        let mut sizes: Vec<usize> = Vec::new();
        for j in 0..f {
            if merges[j] {
                group[j] = group[candidate[j]];
                sizes[group[j]] += 1;
            } else {
                group[j] = reps.len();
                reps.push(j);
                sizes.push(1);
            }
        }
        if reps.len() == f {
            return None;
        }
        let root_k = sizes.iter().map(|&k| (k as f64).sqrt()).collect();
        Some(Presolve {
            group,
            sign,
            reps,
            root_k,
        })
    }

    /// The reduced design: column s is √kₛ·σ·x_rep for its first column.
    fn reduce(&self, x: &Mat) -> Mat {
        let scale: Vec<f64> = self
            .reps
            .iter()
            .zip(&self.root_k)
            .map(|(&r, &rk)| rk * self.sign[r])
            .collect();
        let mut z = Vec::with_capacity(x.rows() * self.reps.len());
        for i in 0..x.rows() {
            let row = x.row(i);
            z.extend(self.reps.iter().zip(&scale).map(|(&r, &c)| c * row[r]));
        }
        Mat::from_vec(x.rows(), self.reps.len(), z)
    }

    /// Full-width weights wⱼ = σⱼ·uₛ/√kₛ from reduced weights `u`.
    fn expand(&self, u: &[f64]) -> Vec<f64> {
        self.group
            .iter()
            .zip(&self.sign)
            .map(|(&s, &sigma)| sigma * u[s] / self.root_k[s])
            .collect()
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

    /// A `d × f` design of uniform entries in [−0.5, 0.5) from a fixed
    /// LCG, with labels from the first two columns.
    fn random_design(d: usize, f: usize, seed: u64) -> (Mat, Vec<f64>) {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let x = Mat::from_vec(d, f, (0..d * f).map(|_| next()).collect());
        let y = (0..d)
            .map(|i| f64::from(x[(i, 0)] + x[(i, 1)] > 0.0))
            .collect();
        (x, y)
    }

    /// The design whose column j is `sign · x[:, col]` for each
    /// `(col, sign)` of `cols`.
    fn columns(x: &Mat, cols: &[(usize, f64)]) -> Mat {
        let rows: Vec<Vec<f64>> = (0..x.rows())
            .map(|i| cols.iter().map(|&(c, s)| s * x[(i, c)]).collect())
            .collect();
        Mat::from_rows(&rows)
    }

    /// ±duplicate, all-zero and −0.0 columns: the presolved fit reaches
    /// the full-width objective and tolerance, copies carry weights equal
    /// up to their sign, and zero columns get zero weight.
    #[test]
    fn presolve_matches_the_full_width_solve() {
        let (base, y) = random_design(90, 3, 11);
        // Scaling by ±0.0 gives zero columns of mixed-sign zeros.
        let mut x = columns(
            &base,
            &[
                (0, 1.0),
                (1, -1.0),
                (0, -1.0),
                (2, 1.0),
                (1, 1.0),
                (0, 0.0),
                (0, -0.0),
                (0, 1.0),
            ],
        );
        assert!(x[(0, 5)].is_sign_negative() != x[(0, 6)].is_sign_negative());
        // A leading zero of either sign leaves σ to the next entry.
        x[(0, 7)] = -0.0;
        x[(0, 0)] = 0.0;
        x[(0, 2)] = 0.0;
        let groups = Presolve::detect(&x).expect("the design repeats columns");
        assert_eq!(groups.reps, vec![0, 1, 3, 5]);
        assert_eq!(groups.group, vec![0, 1, 0, 2, 1, 3, 3, 0]);

        let config = LogisticConfig::default();
        let model = LogisticRegression::fit(&x, &y, config);
        // The full-width solve the presolve replaces.
        let reference = Lbfgs {
            max_evals: config.epochs,
        }
        .minimize(vec![0.0; x.cols() + 1], |p, g| {
            loss_grad(&x, &y, config.l2, p, g)
        });
        let (objective, grad_inf) = model.objective(&x, &y);
        assert!(
            objective <= reference.value + 1e-9,
            "presolved {objective} vs full width {}",
            reference.value
        );
        assert!(model.grad_norm_inf() <= Lbfgs::GRAD_TOL);
        assert!(grad_inf <= Lbfgs::GRAD_TOL, "‖g‖∞ = {grad_inf}");
        let w = model.weights();
        assert_ne!(w[0], 0.0);
        assert_eq!(w[2].to_bits(), (-w[0]).to_bits());
        assert_eq!(w[7].to_bits(), w[0].to_bits());
        assert_eq!(w[4].to_bits(), (-w[1]).to_bits());
        assert_eq!((w[5], w[6]), (0.0, 0.0));
    }

    /// A NaN entry never equals itself, so columns holding one never
    /// merge, not even with a bit-identical copy.
    #[test]
    fn nan_columns_never_merge() {
        let (base, _) = random_design(20, 2, 12);
        let mut x = columns(&base, &[(0, 1.0), (0, 1.0), (1, 1.0), (1, -1.0)]);
        x[(5, 0)] = f64::NAN;
        x[(5, 1)] = f64::NAN;
        let groups = Presolve::detect(&x).expect("columns 2 and 3 repeat");
        assert_eq!(groups.group, vec![0, 1, 2, 2]);
        x[(7, 3)] = f64::NAN;
        x[(7, 2)] = f64::NAN;
        assert!(Presolve::detect(&x).is_none());
    }

    /// Theorem 4's ball binds on a duplicated design: the presolved
    /// weights end on the surface, ‖w‖ = r to 1e-12, and their objective
    /// agrees with the full-width ball search to 1e-9.
    #[test]
    fn weight_ball_binds_on_a_duplicated_design() {
        let (base, y) = blobs(100, 4);
        let x = columns(&base, &[(0, 1.0), (1, 1.0), (0, -1.0), (0, 1.0)]);
        let config = LogisticConfig {
            weight_ball: Some(1.0),
            ..Default::default()
        };
        let free = LogisticRegression::fit(&x, &y, LogisticConfig::default());
        assert!(dot(free.weights(), free.weights()).sqrt() > 1.0);
        let model = LogisticRegression::fit(&x, &y, config);
        let norm = dot(model.weights(), model.weights()).sqrt();
        assert!((1.0 - 1e-12..=1.0).contains(&norm), "‖w‖ = {norm}");

        let (reference, _) = solve_head(&x, &y, config, |w| dot(w, w).sqrt());
        let reference_norm = dot(&reference.x[..4], &reference.x[..4]).sqrt();
        assert!(
            (1.0 - 1e-12..=1.0).contains(&reference_norm),
            "‖w‖ = {reference_norm}"
        );
        let mut grad = vec![0.0; 5];
        let reference_objective = loss_grad(&x, &y, config.l2, &reference.x, &mut grad);
        let (objective, _) = model.objective(&x, &y);
        assert!(
            (objective - reference_objective).abs() <= 1e-9,
            "presolved {objective} vs full width {reference_objective}"
        );
    }

    /// Determinism ledger: the head fit is thread-invariant — fixed
    /// 32-row blocks added in block order, above the parallel threshold —
    /// at full width and on a ±duplicated design, whose reduced and
    /// full-width evaluations are both above the threshold.
    #[test]
    fn fit_bits_identical_across_thread_counts() {
        let (d, f) = (256, 160);
        assert!(d * f >= PAR_MIN_ELEMS);
        let (x, y) = random_design(d, f, 7);
        let cols: Vec<(usize, f64)> = (0..f).flat_map(|j| [(j, 1.0), (j, -1.0)]).collect();
        let bits = |m: &LogisticRegression| -> Vec<u64> {
            m.weights()
                .iter()
                .chain([m.bias(), m.grad_norm_inf()].iter())
                .map(|v| v.to_bits())
                .collect()
        };
        for x in [columns(&x, &cols), x] {
            let fit = |threads| {
                rayon::with_num_threads(threads, || {
                    LogisticRegression::fit(&x, &y, LogisticConfig::default())
                })
            };
            let one = fit(1);
            assert!(one.grad_norm_inf() <= Lbfgs::GRAD_TOL);
            for threads in [2, 4] {
                let many = fit(threads);
                assert_eq!(bits(&one), bits(&many), "{threads} threads");
                assert_eq!(one.iterations(), many.iterations());
            }
        }
    }

    /// The reduced solve really runs: fitting `[X, X]` gives, bit for
    /// bit, the weights w/√2 of fitting √2·X, on both copies.
    #[test]
    fn duplicated_design_fits_on_the_reduced_columns() {
        let (mut base, y) = random_design(80, 6, 14);
        for j in 0..base.cols() {
            if base[(0, j)] < 0.0 {
                for i in 0..base.rows() {
                    base[(i, j)] = -base[(i, j)];
                }
            }
        }
        let f = base.cols();
        let cols: Vec<(usize, f64)> = (0..2 * f).map(|j| (j % f, 1.0)).collect();
        let doubled = LogisticRegression::fit(&columns(&base, &cols), &y, Default::default());
        let scaled = LogisticRegression::fit(&base.scale(2f64.sqrt()), &y, Default::default());
        for (j, &w) in doubled.weights().iter().enumerate() {
            let want = scaled.weights()[j % f] / 2f64.sqrt();
            assert_eq!(w.to_bits(), want.to_bits(), "column {j}");
        }
        assert_eq!(doubled.bias().to_bits(), scaled.bias().to_bits());
        assert_eq!(doubled.iterations(), scaled.iterations());
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
