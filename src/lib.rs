//! # postvar — Post-variational quantum neural networks on a hybrid HPC-QC system
//!
//! Facade crate re-exporting the full workspace. See the README for a tour
//! and `DESIGN.md` for the system inventory.
//!
//! ```
//! use postvar::prelude::*;
//!
//! // Four-qubit encoded state, one 1-local observable.
//! let features = vec![0.3; 16];
//! let circuit = fig7_encoding(&features);
//! let state = StateVector::from_circuit(&circuit);
//! let z0 = PauliString::parse("IIIZ").unwrap();
//! let val = state.expectation(&z0);
//! assert!(val.abs() <= 1.0 + 1e-12);
//! ```

pub use hpcq;
pub use linalg;
pub use ml;
pub use pauli;
pub use pvqnn;
pub use qdata;
pub use qsim;
pub use serve;
pub use shadows;

/// Convenience re-exports of the most common types across the workspace.
pub mod prelude {
    pub use hpcq::{QpuConfig, QpuDevice, QpuPool};
    pub use linalg::Mat;
    pub use ml::{accuracy, LogisticRegression, Mlp, SoftmaxRegression};
    pub use pauli::{local_paulis, Pauli, PauliString, PauliSum};
    pub use pvqnn::ansatz::fig8_ansatz;
    pub use pvqnn::encoding::fig7_encoding;
    pub use pvqnn::features::{FeatureBackend, FeatureGenerator};
    pub use pvqnn::model::{PostVarClassifier, PostVarRegressor};
    pub use pvqnn::strategy::{Strategy, StrategyKind};
    pub use pvqnn::variational::VariationalClassifier;
    pub use qdata::{fashion_synthetic, preprocess_4x4, FashionClass};
    pub use qsim::{Circuit, Gate, ParamCircuit, StateVector};
    pub use serve::{Server, ServerConfig};
    pub use shadows::{ShadowEstimator, ShadowProtocol};
}
