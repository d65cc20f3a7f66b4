//! First-order optimizers, a limited-memory quasi-Newton solver, and the
//! ℓ2-ball projection of Theorem 4.

use linalg::dot;
use std::collections::VecDeque;

/// Projects `x` onto the ℓ2 ball of the given `radius` (in place). This is
/// the projection step of the constrained convex program `‖α‖₂ ≤ 1` the
/// paper solves for robustness (§VI, Theorem 4).
pub fn project_l2_ball(x: &mut [f64], radius: f64) {
    assert!(radius > 0.0);
    let norm: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm > radius {
        let s = radius / norm;
        for v in x.iter_mut() {
            *v *= s;
        }
    }
}

/// Adam optimizer (Kingma & Ba) with bias correction.
#[derive(Clone, Debug)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// Creates an optimizer for `dim` parameters with learning rate `lr`
    /// and the standard β = (0.9, 0.999).
    pub fn new(dim: usize, lr: f64) -> Self {
        assert!(lr > 0.0);
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            m: vec![0.0; dim],
            v: vec![0.0; dim],
            t: 0,
        }
    }

    /// Applies one update `params ← params − lr·m̂/(√v̂ + ε)`.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), self.m.len());
        assert_eq!(grads.len(), self.m.len());
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * grads[i];
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * grads[i] * grads[i];
            let mhat = self.m[i] / b1t;
            let vhat = self.v[i] / b2t;
            params[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
        }
    }
}

/// Deterministic L-BFGS (memory [`Lbfgs::MEMORY`], two-loop recursion,
/// initial Hessian γI with γ = sᵀy / yᵀy) with Armijo backtracking
/// (c₁ = 1e-4, halving). It stops once ‖g‖∞ ≤ [`Lbfgs::GRAD_TOL`], once
/// `max_evals` objective evaluations are spent, or when a line search
/// cannot decrease the objective any more. The objective is a callback, so
/// any smooth loss (the logistic head's, the softmax head's) can use it.
#[derive(Clone, Copy, Debug)]
pub struct Lbfgs {
    /// Cap on objective evaluations, the initial one included.
    pub max_evals: usize,
}

/// Where [`Lbfgs::minimize`] stopped.
#[derive(Clone, Debug)]
pub struct LbfgsResult {
    /// The final iterate.
    pub x: Vec<f64>,
    /// The objective there.
    pub value: f64,
    /// ‖∇f‖∞ there.
    pub grad_norm_inf: f64,
    /// Accepted steps.
    pub iterations: usize,
    /// Objective evaluations, line-search trials included.
    pub evaluations: usize,
}

impl Lbfgs {
    /// Correction pairs kept.
    pub const MEMORY: usize = 10;
    /// Stopping tolerance on ‖∇f‖∞.
    pub const GRAD_TOL: f64 = 1e-6;
    /// Armijo sufficient-decrease constant.
    const C1: f64 = 1e-4;
    /// A pair with sᵀy at or below this is skipped, keeping H positive
    /// definite.
    const MIN_CURVATURE: f64 = 1e-12;
    /// Halvings before a line search gives up.
    const MAX_HALVINGS: usize = 50;

    /// Minimises `f` from `x0`. `f(x, g)` returns f(x) and writes ∇f(x)
    /// into `g`.
    pub fn minimize<F>(&self, x0: Vec<f64>, mut f: F) -> LbfgsResult
    where
        F: FnMut(&[f64], &mut [f64]) -> f64,
    {
        let n = x0.len();
        let mut x = x0;
        let mut g = vec![0.0; n];
        let mut value = f(&x, &mut g);
        let mut evaluations = 1;
        let mut iterations = 0;
        // (s, y, 1 / sᵀy), oldest first.
        let mut pairs: VecDeque<(Vec<f64>, Vec<f64>, f64)> = VecDeque::new();
        let mut alpha = [0.0; Self::MEMORY];
        let mut x_new = vec![0.0; n];
        let mut g_new = vec![0.0; n];
        'outer: while norm_inf(&g) > Self::GRAD_TOL && evaluations < self.max_evals {
            // Two-loop recursion: d = −H·g.
            let mut d = g.clone();
            for (k, (s, y, rho)) in pairs.iter().enumerate().rev() {
                alpha[k] = rho * dot(s, &d);
                axpy(-alpha[k], y, &mut d);
            }
            let gamma = pairs.back().map_or(1.0, |(s, y, _)| dot(s, y) / dot(y, y));
            d.iter_mut().for_each(|v| *v *= -gamma);
            for (k, (s, y, rho)) in pairs.iter().enumerate() {
                let beta = rho * dot(y, &d);
                axpy(-alpha[k] - beta, s, &mut d);
            }
            let mut slope = dot(&g, &d);
            if slope >= 0.0 {
                // Not a descent direction: drop the curvature memory.
                pairs.clear();
                d = g.iter().map(|v| -v).collect();
                slope = -dot(&g, &g);
            }

            let mut t = 1.0;
            let mut halvings = 0;
            let new_value = loop {
                for ((xn, xi), di) in x_new.iter_mut().zip(&x).zip(&d) {
                    *xn = xi + t * di;
                }
                let v = f(&x_new, &mut g_new);
                evaluations += 1;
                if v <= value + Self::C1 * t * slope {
                    break v;
                }
                if evaluations >= self.max_evals || halvings == Self::MAX_HALVINGS {
                    break 'outer;
                }
                t *= 0.5;
                halvings += 1;
            };

            let s: Vec<f64> = x_new.iter().zip(&x).map(|(a, b)| a - b).collect();
            let y: Vec<f64> = g_new.iter().zip(&g).map(|(a, b)| a - b).collect();
            let sy = dot(&s, &y);
            if sy > Self::MIN_CURVATURE {
                if pairs.len() == Self::MEMORY {
                    pairs.pop_front();
                }
                pairs.push_back((s, y, 1.0 / sy));
            }
            std::mem::swap(&mut x, &mut x_new);
            std::mem::swap(&mut g, &mut g_new);
            value = new_value;
            iterations += 1;
        }
        LbfgsResult {
            grad_norm_inf: norm_inf(&g),
            x,
            value,
            iterations,
            evaluations,
        }
    }
}

/// `y ← y + a·x`.
fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// `max |vᵢ|`.
pub(crate) fn norm_inf(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |m: f64, g| m.max(g.abs()))
}

/// Projected (sub)gradient descent for convex objectives over an ℓ2 ball:
/// minimises `f` with oracle `grad` starting from `x0`, stepping
/// `lr/√(t+1)` and projecting after every step. Returns the best iterate
/// visited (standard guarantee for projected subgradient methods).
pub fn projected_gradient_descent<F, G>(
    f: F,
    grad: G,
    x0: Vec<f64>,
    radius: f64,
    steps: usize,
    lr: f64,
) -> Vec<f64>
where
    F: Fn(&[f64]) -> f64,
    G: Fn(&[f64]) -> Vec<f64>,
{
    let mut x = x0;
    project_l2_ball(&mut x, radius);
    let mut best = x.clone();
    let mut best_f = f(&x);
    for t in 0..steps {
        let g = grad(&x);
        let step = lr / ((t + 1) as f64).sqrt();
        for (xi, gi) in x.iter_mut().zip(g.iter()) {
            *xi -= step * gi;
        }
        project_l2_ball(&mut x, radius);
        let fx = f(&x);
        if fx < best_f {
            best_f = fx;
            best = x.clone();
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_inside_ball_is_noop() {
        let mut x = vec![0.3, 0.4];
        project_l2_ball(&mut x, 1.0);
        assert_eq!(x, vec![0.3, 0.4]);
    }

    #[test]
    fn projection_outside_ball_rescales() {
        let mut x = vec![3.0, 4.0];
        project_l2_ball(&mut x, 1.0);
        let norm: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-12);
        // Direction preserved.
        assert!((x[0] / x[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn adam_minimises_quadratic() {
        // f(x) = (x₀−3)² + (x₁+1)².
        let mut x = vec![0.0, 0.0];
        let mut opt = Adam::new(2, 0.1);
        for _ in 0..2000 {
            let g = vec![2.0 * (x[0] - 3.0), 2.0 * (x[1] + 1.0)];
            opt.step(&mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 1e-3, "x0={}", x[0]);
        assert!((x[1] + 1.0).abs() < 1e-3, "x1={}", x[1]);
    }

    #[test]
    fn lbfgs_minimises_rosenbrock() {
        let rosenbrock = |x: &[f64], g: &mut [f64]| {
            let (a, b) = (1.0 - x[0], x[1] - x[0] * x[0]);
            g[0] = -2.0 * a - 400.0 * x[0] * b;
            g[1] = 200.0 * b;
            a * a + 100.0 * b * b
        };
        let run = Lbfgs { max_evals: 1000 }.minimize(vec![-1.2, 1.0], rosenbrock);
        assert!(run.grad_norm_inf <= Lbfgs::GRAD_TOL, "{run:?}");
        assert!((run.x[0] - 1.0).abs() < 1e-5 && (run.x[1] - 1.0).abs() < 1e-5);
        assert!(run.evaluations <= 1000);
    }

    #[test]
    fn lbfgs_stops_at_the_evaluation_cap() {
        let quadratic = |x: &[f64], g: &mut [f64]| {
            g[0] = 2.0 * (x[0] - 3.0);
            (x[0] - 3.0).powi(2)
        };
        let run = Lbfgs { max_evals: 1 }.minimize(vec![0.0], quadratic);
        assert_eq!((run.evaluations, run.iterations, run.x[0]), (1, 0, 0.0));
    }

    #[test]
    fn projected_gd_respects_constraint() {
        // Unconstrained minimum at (3, 0), ‖·‖ = 3 > 1 → solution on the
        // boundary at (1, 0).
        let f = |x: &[f64]| (x[0] - 3.0).powi(2) + x[1].powi(2);
        let grad = |x: &[f64]| vec![2.0 * (x[0] - 3.0), 2.0 * x[1]];
        let x = projected_gradient_descent(f, grad, vec![0.0, 0.0], 1.0, 3000, 0.5);
        let norm: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(norm <= 1.0 + 1e-9);
        assert!((x[0] - 1.0).abs() < 1e-2, "x={x:?}");
        assert!(x[1].abs() < 1e-2);
    }

    #[test]
    fn projected_gd_interior_optimum() {
        // Minimum at (0.1, −0.2) is inside the unit ball — projection must
        // not distort it.
        let f = |x: &[f64]| (x[0] - 0.1).powi(2) + (x[1] + 0.2).powi(2);
        let grad = |x: &[f64]| vec![2.0 * (x[0] - 0.1), 2.0 * (x[1] + 0.2)];
        let x = projected_gradient_descent(f, grad, vec![0.9, 0.0], 1.0, 3000, 0.5);
        assert!((x[0] - 0.1).abs() < 1e-2);
        assert!((x[1] + 0.2).abs() < 1e-2);
    }
}
