//! # serve — online inference for post-variational models
//!
//! The paper's hybrid HPC-QC pipeline ends at offline training and
//! evaluation; this crate is the missing online half: a micro-batching
//! inference server that turns a trained [`pvqnn`] model into a request
//! endpoint designed around the two facts that dominate quantum-stage
//! serving cost:
//!
//! 1. **State preparation is the expensive part** — so requests are
//!    coalesced into micro-batches and a per-input LRU [`FeatureCache`]
//!    guarantees one `S(x)|0⟩` simulation per *unique* data point, with
//!    misses fanned out on the shared work-stealing executor (or
//!    scattered across an [`hpcq`] QPU pool).
//! 2. **Predictions must not depend on batching** — feature rows are
//!    standalone-seeded, so a served prediction is bit-for-bit what a
//!    lone `predict` call would return, for any batch composition,
//!    cache state, or thread count. Batching and caching are pure
//!    latency/throughput optimizations.
//!
//! Around that core sit the operational pieces an online service needs:
//! a versioned [`ModelRegistry`] with atomic hot-swap (deploy v2 while
//! v1 drains, instant rollback), per-request deadline budgets with
//! earliest-deadline-first batch formation, and a [`ServerStats`]
//! snapshot of counted facts — requests, rejections by cause, batches,
//! cache and fault counters, per-tenant p50/p99 — with latencies stamped
//! on a deterministic simulated clock ([`SimClock`]), reproducible to
//! the bit across hosts, which is what lets CI gate tenant isolation on
//! them. Wall-clock throughput and latency are measured by `perfbench`.
//!
//! The service is **multi-tenant**: requests carry a [`TenantId`], the
//! [`AdmissionController`] enforces weighted-fair admission behind a
//! hard queue bound — overload walks a hysteretic brownout ladder
//! ([`BrownoutLevel`]: shed over-share tenants first, then defer slack
//! traffic, global shed only as a last resort) — and batch slots are
//! dealt weighted round-robin across per-tenant EDF sub-queues, so one
//! flooding tenant cannot starve the rest. [`loadgen`] drives all of it
//! with deterministic traffic: open-loop [`ArrivalTrace`] replay
//! (JSONL/CSV files or synthetic Zipf-skewed burst / diurnal /
//! flash-crowd [`RateProfile`]s) with windowed [`Monitor`] time series.
//!
//! ```
//! use pvqnn::features::FeatureBackend;
//! use pvqnn::model::RegressorMode;
//! use pvqnn::{FeatureGenerator, PostVarRegressor, Strategy};
//! use serve::{Server, ServerConfig};
//!
//! // Train a tiny model.
//! let data: Vec<Vec<f64>> = (0..12)
//!     .map(|i| (0..16).map(|j| 0.1 + 0.2 * ((i + j) % 5) as f64).collect())
//!     .collect();
//! let y: Vec<f64> = (0..12).map(|i| i as f64 * 0.1).collect();
//! let generator = FeatureGenerator::new(
//!     Strategy::observable_construction(4, 1),
//!     FeatureBackend::Exact,
//! );
//! let model = PostVarRegressor::fit(generator, &data, &y, RegressorMode::Ridge(1e-6));
//!
//! // Serve it.
//! let server = Server::new(ServerConfig::default());
//! server.deploy(model.clone());
//! let handle = server.submit(data[3].clone()).unwrap();
//! server.drain();
//! let response = handle.wait().unwrap();
//! assert_eq!(response.prediction.as_f64(), model.predict(&data[3..4])[0]);
//! ```

pub mod admission;
pub mod cache;
pub mod clock;
pub mod engine;
pub mod loadgen;
pub mod model;
pub mod monitor;
pub mod registry;
pub mod server;
pub mod stats;

pub use admission::{AdmissionController, BrownoutLevel, Rejected, TenantId};
pub use cache::{quantize_key, CacheStats, FeatureCache};
pub use clock::SimClock;
pub use engine::{ComputedRows, EngineError, FeatureEngine};
pub use loadgen::{
    demo_catalogue, replay_trace, synthesize_trace, ArrivalTrace, RateProfile, ReplayReport,
    TenantLoad, TraceEvent, TraceParseError,
};
pub use model::{Prediction, ServedModel};
pub use monitor::{Monitor, MonitorSample};
pub use registry::{ModelRegistry, ModelVersion};
pub use server::{
    spawn_worker, Response, ResponseHandle, ServeResult, Server, ServerConfig, MAX_COORDINATE,
};
pub use stats::{LatencyHistogram, ServerStats, TenantSnapshot};
