//! # pvqnn — post-variational quantum neural networks
//!
//! The core library: a faithful implementation of Huang & Rebentrost,
//! *Post-variational quantum neural networks* (arXiv:2307.10560), the
//! methods paper behind the hybrid HPC-QC system this workspace reproduces.
//!
//! The post-variational idea (§III): instead of optimising a parameterised
//! circuit `U(θ)` on the quantum device (and fighting barren plateaus),
//! measure a **fixed ensemble** of circuit/observable pairs ("quantum
//! neurons", Definition 1) once, collect the results in a feature matrix
//! `Q ∈ R^{d×m}` (Eq. (26), transposed to row-per-sample here), and fit the
//! combination weights classically — a convex problem with a global
//! optimum.
//!
//! Module map (paper section → code):
//!
//! | Paper | Module |
//! |-------|--------|
//! | Fig. 7 data encoding | [`encoding`] |
//! | Fig. 8 ansatz | [`ansatz`] |
//! | §IV.A ansatz expansion (shift grids, Eq. (16)) | [`shifts`], [`strategy`] |
//! | §IV.B observable construction (Eq. (18)) | [`strategy`] |
//! | §IV.C hybrid + pruning (Eqs. (17), (25)) | [`strategy`], [`pruning`] |
//! | Algorithm 1 feature generation | [`features`], [`transfer`] |
//! | §V architecture (linear/logistic/softmax heads) | [`model`] |
//! | §VII variational baseline | [`variational`] |
//! | §VI Props. 1–2, Table II | [`budget`] |
//! | §VI Theorems 3–4, Appendix C | [`errorprop`] |
//! | §I barren-plateau motivation | [`barren`] |

pub mod ansatz;
pub mod barren;
pub mod budget;
pub mod encoding;
pub mod errorprop;
pub mod features;
pub mod model;
pub mod pruning;
pub mod shifts;
pub mod strategy;
pub mod transfer;
pub mod variational;

pub use ansatz::fig8_ansatz;
pub use encoding::{fig7_encoding, EncodingPlan};
pub use features::{FeatureBackend, FeatureGenerator};
pub use model::{PostVarClassifier, PostVarMulticlass, PostVarRegressor};
pub use strategy::{Strategy, StrategyKind};
pub use variational::{VariationalClassifier, VariationalConfig};
