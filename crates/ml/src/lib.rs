//! # ml — classical machine-learning substrate
//!
//! The paper's classical layer (§V) and baselines (§VII, Tables III–IV)
//! need: loss functions (RMSE/MAE/BCE, §II.A), binary logistic regression
//! (the scikit-learn model used for the post-variational head and the
//! "Classical Logistic" baseline), multinomial softmax regression (the
//! multiclass extension), a two-layer MLP (the "Classical MLP" baseline),
//! and the ℓ2-ball-constrained convex fits of Theorem 4. All implemented
//! here from scratch on top of `linalg`.

pub mod data;
pub mod logistic;
pub mod loss;
pub mod metrics;
pub mod mlp;
pub mod optim;
pub mod softmax;

pub use data::{one_hot, standardize, train_test_split};
pub use logistic::{LogisticConfig, LogisticRegression};
pub use loss::{bce_loss, mae_loss, rmse_loss, softmax_ce_loss};
pub use metrics::{accuracy, accuracy_multiclass, confusion_matrix};
pub use mlp::{Mlp, MlpConfig};
pub use optim::{project_l2_ball, Adam};
pub use softmax::{SoftmaxConfig, SoftmaxRegression};
