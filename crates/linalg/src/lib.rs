//! # linalg — dense linear algebra substrate
//!
//! The paper's classical layer is closed-form linear regression
//! `α = Q⁺Y` (Eq. (29)) plus the perturbation theory of §VI/Appendix C,
//! which needs pseudoinverses, singular values, ranks, and the spectral /
//! Frobenius / max norms. Rather than binding LAPACK, this crate implements
//! the required kernels from scratch:
//!
//! * [`Mat`] — dense row-major `f64` matrices with rayon-parallel matmul,
//! * [`qr`] — Householder QR,
//! * [`svd`] — one-sided Jacobi SVD (the workhorse; small matrices, high
//!   accuracy),
//! * [`mod@pinv`] — Moore-Penrose pseudoinverse, least squares, ridge
//!   (Tikhonov) regression and Cholesky solves.
//!
//! Everything is validated by property tests against the defining axioms
//! (reconstruction, orthogonality, the four Moore–Penrose conditions).

pub mod cholesky;
pub mod mat;
pub mod pinv;
pub mod qr;
pub mod svd;

pub use cholesky::{cholesky_decompose, cholesky_solve};
pub use mat::{dot, Mat};
pub use pinv::{lstsq, pinv, ridge_solve};
pub use qr::qr_decompose;
pub use svd::{singular_values, Svd};
