//! # shadows — classical shadows with Pauli-basis measurements
//!
//! Implements the randomized measurement protocol of Huang, Kueng &
//! Preskill \[43\] as used by the paper (§II.B, §IV.B, Proposition 2):
//!
//! 1. For each snapshot, draw a uniformly random single-qubit Clifford
//!    basis (X, Y or Z) per qubit, rotate the state, and measure once.
//! 2. The inverse of the measurement channel gives an unbiased one-shot
//!    estimator of the state; for a Pauli string `P` the estimator is
//!    `3^{|P|} · (±1)` when every support qubit was measured in the
//!    matching basis, and `0` otherwise.
//! 3. Median-of-means over `K` groups gives the exponential concentration
//!    that Proposition 2's `log(md/δ)` factor relies on.
//!
//! The shadow norm for a Pauli string under this ensemble is
//! `‖P‖_S² = 3^{|P|}` (upper-bounded in the paper by `4^L‖O‖²` for
//! arbitrary `L`-local observables).

pub mod estimator;
pub mod norm;
pub mod protocol;
pub mod snapshot;

pub use estimator::ShadowEstimator;
pub use norm::pauli_shadow_norm_sq;
pub use protocol::ShadowProtocol;
pub use snapshot::Snapshot;
