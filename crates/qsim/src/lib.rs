//! # qsim — state-vector quantum circuit simulator
//!
//! The execution substrate for the post-variational QNN library: the paper
//! ran its circuits through Qiskit's simulator; this crate replaces that
//! with a from-scratch state-vector engine tuned for the workload the
//! post-variational pipeline generates — **many small-to-medium circuits,
//! each evaluated against many Pauli observables**.
//!
//! * [`Gate`] / [`Circuit`] — the gate set and a flat circuit IR,
//! * [`ParamCircuit`] — circuits with named parameter slots (for ansätze and
//!   parameter-shift grids),
//! * [`StateVector`] — amplitudes plus serial/rayon-parallel gate kernels,
//!   Pauli expectations and inner products,
//! * [`sample`] — computational-basis sampling and
//!   [`estimate_pauli_with_shots`], Proposition 1's finite-shot estimator
//!   (what the `hpcq` devices measure with, and the reference `pvqnn`'s
//!   Shots rows are tested against),
//! * [`compile()`] — a one-time gate-fusion pass producing a
//!   [`CompiledCircuit`] that executes in far fewer amplitude sweeps
//!   (`pvqnn`'s Shadows rows replay compiled ansatz shifts),
//! * [`BatchedStateVector`] — amplitude-major SoA simulation of many
//!   states at once, bit-for-bit equal per lane to the standalone kernels
//!   (behind `pvqnn::EncodingPlan::encode_batch`; no feature backend runs
//!   it),
//! * [`noise`] — stochastic (trajectory) depolarizing and readout noise for
//!   NISQ realism,
//! * [`render`] — ASCII circuit diagrams (Figs. 7–8 of the paper are
//!   reproduced by `examples/quickstart.rs`).
//!
//! Kernels switch to rayon data-parallel paths above
//! [`state::PARALLEL_THRESHOLD`] amplitudes; below it the serial loop wins
//! (measured by `exp_scaling`'s `thread_pool_speedup` and
//! `gate_*_ns_per_amp` metrics, per the perf-book's "benchmark, don't
//! guess").

pub mod circuit;
pub mod compile;
pub mod density;
pub mod gate;
pub mod noise;
pub mod render;
pub mod sample;
pub mod state;

pub use circuit::{Circuit, ParamCircuit, ParamGate, RotAxis};
pub use compile::{compile, identity2, matmul2, matmul4, CompiledCircuit, FusedOp, Mat2, Mat4};
pub use density::DensityMatrix;
pub use gate::Gate;
pub use noise::NoiseModel;
pub use sample::{estimate_pauli_with_shots, measurement_rotation};
pub use state::{BatchedStateVector, StateVector};

/// Complex amplitude type used throughout the simulator.
pub type C64 = num_complex::Complex64;
