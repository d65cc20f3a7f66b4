//! # bench — experiment harness
//!
//! Shared setup for the `exp_*` binaries that regenerate every table and
//! figure of the paper (see DESIGN.md's experiment index), plus pretty
//! table printing. Kernel timings are `exp_scaling`'s metrics; the
//! train → serve pipeline is timed by `perfbench`.

pub mod heads;
pub mod report;
pub mod setup;
pub mod table;

pub use report::{ab_compare, baseline_gate_failures, read_numbers, time_secs, ScalingReport};
pub use setup::{
    binary_task, feature_data, layer_circuit, mixed_pool_jobs, multiclass_task,
    naive_feature_sweep, naive_shot_sweep, oversubscribed_batch, BinaryTask, MulticlassTask,
};
pub use table::TablePrinter;
