//! # ml — classical machine-learning substrate
//!
//! The paper's classical layer (§V) and baselines (§VII, Tables III–IV)
//! need: loss functions (RMSE/MAE/BCE, §II.A), binary logistic regression
//! (the scikit-learn model used for the post-variational head and the
//! "Classical Logistic" baseline), multinomial softmax regression (the
//! multiclass extension), a two-layer MLP (the "Classical MLP" baseline),
//! and the ℓ2-ball-constrained convex fits of Theorem 4. All implemented
//! here from scratch on top of `linalg`.
//!
//! [`LogisticRegression::fit`] presolves its design: columns equal up to
//! sign (every exact Table III neuron on the shift grid is one signed
//! Pauli string, so `hybrid(fig8,2,1)`'s 1677 columns hold 139 distinct
//! ones) are fitted once, on √kₛ·σ·x for a group of kₛ copies, and the
//! weights are mapped back as σⱼ·uₛ/√kₛ. The map is an isometry onto the
//! subspace L-BFGS never leaves from zero, so the reduced solve takes the
//! full-width steps in exact arithmetic, keeps ‖w‖ (Theorem 4's ball) and
//! stops no later in ‖∇‖∞. Designs without repeated columns take the
//! full-width solve bit for bit. [`SoftmaxRegression`] is fitted at full
//! width: Adam is not rotation-invariant, so the reduction is not exact
//! there.

pub mod logistic;
pub mod loss;
pub mod metrics;
pub mod mlp;
pub mod optim;
pub mod softmax;

pub use logistic::{LogisticConfig, LogisticRegression};
pub use loss::{bce_loss, mae_loss, rmse_loss, softmax_ce_loss};
pub use metrics::{accuracy, accuracy_multiclass};
pub use mlp::{Mlp, MlpConfig};
pub use optim::{project_l2_ball, Adam};
pub use softmax::{SoftmaxConfig, SoftmaxRegression};
