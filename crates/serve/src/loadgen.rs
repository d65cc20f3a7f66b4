//! Deterministic load generation: open-loop trace replay.
//!
//! The behavioural serving checks need traffic that is (a) *skewed* —
//! real request streams concentrate on popular inputs, which is what
//! makes a feature cache pay — and (b) *reproducible* — the isolation
//! and recovery checks compare replays, so the stream must be a pure
//! function of its seed. Overload is an *open-loop* phenomenon, so this
//! module replays an [`ArrivalTrace`] (loaded from JSONL or
//! synthesized from [`RateProfile`]s — constant, burst, diurnal,
//! flash-crowd — with Zipf-skewed draws from a fixed catalogue of data
//! points) against a [`Server`] on [`SimClock`] time: arrivals happen at
//! their trace timestamps whether or not the server is keeping up, which
//! is what drives the admission ladder through its rungs reproducibly.
//! The replay drives the server single-threadedly with
//! [`Server::step`], so batch formation — and therefore every simulated
//! timestamp — is deterministic. Wall-clock throughput is measured by
//! `perfbench`, not here.
//!
//! ```
//! use pvqnn::features::FeatureBackend;
//! use pvqnn::model::RegressorMode;
//! use pvqnn::{FeatureGenerator, PostVarRegressor, Strategy};
//! use serve::{demo_catalogue, replay_trace, ArrivalTrace, Server, ServerConfig};
//!
//! // A two-arrival trace, as it would sit in a .jsonl file on disk.
//! let trace = ArrivalTrace::from_jsonl(
//!     r#"{"at_us": 100, "tenant": 0, "point": 2, "deadline_us": 50000}
//! {"at_us": 250, "tenant": 1, "point": 5}"#,
//! )
//! .unwrap();
//! assert_eq!(trace.len(), 2);
//!
//! // Replay it open-loop against a served model on simulated time.
//! let points = demo_catalogue(8);
//! let y: Vec<f64> = (0..8).map(|i| i as f64).collect();
//! let generator = FeatureGenerator::new(
//!     Strategy::observable_construction(4, 1),
//!     FeatureBackend::Exact,
//! );
//! let model = PostVarRegressor::fit(generator, &points, &y, RegressorMode::Ridge(1e-6));
//! let server = Server::new(ServerConfig::default());
//! server.deploy(model);
//! let report = replay_trace(&server, &points, &trace, 1_000_000, None);
//! assert_eq!(report.completed, 2);
//! ```
//!
//! [`SimClock`]: crate::clock::SimClock

use crate::admission::TenantId;
use crate::model::Prediction;
use crate::monitor::{Monitor, MonitorSample};
use crate::server::{ResponseHandle, Server};
use crate::stats::ServerStats;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A deterministic catalogue of `n ≤ 257` pairwise-distinct
/// 16-coordinate (4-qubit) demo data points in `[0.2, 5.7)`, spaced ≥
/// ~0.02 apart per coordinate so the default cache quantization can
/// never merge two — the shared workload for the serving tests,
/// examples, and serving experiment (one definition, so they can never
/// silently diverge in the traffic they exercise).
pub fn demo_catalogue(n: usize) -> Vec<Vec<f64>> {
    // 31 and 257 are coprime, so for any fixed j the first coordinate
    // walks all 257 residues before repeating: points are distinct for
    // every n up to the modulus.
    assert!(n <= 257, "demo catalogue holds at most 257 distinct points");
    (0..n)
        .map(|i| {
            (0..16)
                .map(|j| 0.2 + 5.5 * (((i * 31 + j * 57) % 257) as f64 / 257.0))
                .collect()
        })
        .collect()
}

/// One arrival in a workload trace. `point` indexes the catalogue the
/// trace is replayed against; times are simulated ns relative to the
/// start of the replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Arrival time, simulated ns from replay start.
    pub at_ns: u64,
    /// Which tenant submits it.
    pub tenant: TenantId,
    /// Catalogue index of the data point.
    pub point: usize,
    /// Deadline budget in simulated ns (`None` = slack traffic, the
    /// first deferred in a deep brownout).
    pub deadline_ns: Option<u64>,
}

/// A malformed trace file line.
#[derive(Clone, Debug)]
pub struct TraceParseError {
    /// 1-based line number in the input.
    pub line: usize,
    /// What was wrong with it.
    pub msg: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for TraceParseError {}

/// A time-ordered multi-tenant arrival trace.
///
/// ## On-disk schema
///
/// One event per line with times in **microseconds** (traces are
/// human-edited; ns timestamps are unreadable). Fields:
///
/// | field         | meaning                                             |
/// |---------------|-----------------------------------------------------|
/// | `at_us`       | arrival time, simulated µs from replay start        |
/// | `tenant`      | [`TenantId`] the request is attributed to           |
/// | `point`       | index into the replay's data-point catalogue        |
/// | `deadline_us` | optional deadline budget in simulated µs (omitted / `null` = slack traffic, the first deferred in a deep brownout) |
///
/// JSONL (one object per line; blank lines and `#` comments skipped):
///
/// ```text
/// {"at_us": 1500, "tenant": 1, "point": 7, "deadline_us": 10000}
/// {"at_us": 1600, "tenant": 2, "point": 3}
/// ```
///
/// The parser is hand-rolled (the workspace carries no serialization
/// crate) and rejects rather than guesses: unknown
/// keys, missing fields, non-integer values, and times too large to
/// express in u64 nanoseconds are [`TraceParseError`]s with line
/// numbers, so every parsed trace round-trips through
/// [`ArrivalTrace::to_jsonl`].
#[derive(Clone, Debug, Default)]
pub struct ArrivalTrace {
    events: Vec<TraceEvent>,
}

impl ArrivalTrace {
    /// A trace from unordered events; sorts by `(at_ns, tenant, point)`
    /// so replay order is deterministic regardless of input order.
    pub fn from_events(mut events: Vec<TraceEvent>) -> Self {
        events.sort_by_key(|e| (e.at_ns, e.tenant, e.point));
        ArrivalTrace { events }
    }

    /// The events in replay order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The distinct tenants appearing in the trace, ascending.
    pub fn tenants(&self) -> Vec<TenantId> {
        let mut ids: Vec<TenantId> = self.events.iter().map(|e| e.tenant).collect();
        ids.sort();
        ids.dedup();
        ids
    }

    /// Parses a JSONL trace (see the type docs for the format). Blank
    /// lines and `#` comment lines are skipped.
    pub fn from_jsonl(text: &str) -> Result<Self, TraceParseError> {
        let mut events = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            events.push(parse_jsonl_event(line, i + 1)?);
        }
        Ok(Self::from_events(events))
    }

    /// Serializes the trace as JSONL, the inverse of [`Self::from_jsonl`].
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&format!(
                "{{\"at_us\": {}, \"tenant\": {}, \"point\": {}",
                e.at_ns / 1_000,
                e.tenant.0,
                e.point
            ));
            if let Some(d) = e.deadline_ns {
                out.push_str(&format!(", \"deadline_us\": {}", d / 1_000));
            }
            out.push_str("}\n");
        }
        out
    }
}

fn parse_u64(s: &str, line: usize, what: &str) -> Result<u64, TraceParseError> {
    s.parse::<u64>().map_err(|_| TraceParseError {
        line,
        msg: format!("{what} must be a non-negative integer, got {s:?}"),
    })
}

fn parse_jsonl_event(line: &str, lineno: usize) -> Result<TraceEvent, TraceParseError> {
    let body = line
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| TraceParseError {
            line: lineno,
            msg: "expected a {...} object".to_string(),
        })?;
    let mut at_us = None;
    let mut tenant = None;
    let mut point = None;
    let mut deadline_us = None;
    // Flat objects with integer values only — commas never nest.
    for pair in body.split(',') {
        let pair = pair.trim();
        if pair.is_empty() {
            continue;
        }
        let (key, value) = pair.split_once(':').ok_or_else(|| TraceParseError {
            line: lineno,
            msg: format!("expected \"key\": value, got {pair:?}"),
        })?;
        let key = key.trim().trim_matches('"');
        let value = value.trim();
        match key {
            "at_us" => at_us = Some(parse_u64(value, lineno, "at_us")?),
            "tenant" => tenant = Some(parse_u64(value, lineno, "tenant")?),
            "point" => point = Some(parse_u64(value, lineno, "point")?),
            "deadline_us" => {
                if value != "null" {
                    deadline_us = Some(parse_u64(value, lineno, "deadline_us")?);
                }
            }
            other => {
                return Err(TraceParseError {
                    line: lineno,
                    msg: format!("unknown key {other:?}"),
                })
            }
        }
    }
    let missing = |what: &str| TraceParseError {
        line: lineno,
        msg: format!("missing required field {what}"),
    };
    // A µs value past `u64::MAX / 1000` has no ns representation; saturating
    // would alias it onto `u64::MAX` and break the `to_jsonl` round trip.
    let to_ns = |us: u64, what: &str| {
        us.checked_mul(1_000).ok_or_else(|| TraceParseError {
            line: lineno,
            msg: format!("{what} {us} overflows u64 nanoseconds"),
        })
    };
    let tenant = tenant.ok_or_else(|| missing("tenant"))?;
    if tenant > u32::MAX as u64 {
        return Err(TraceParseError {
            line: lineno,
            msg: format!("tenant {tenant} out of range"),
        });
    }
    Ok(TraceEvent {
        at_ns: to_ns(at_us.ok_or_else(|| missing("at_us"))?, "at_us")?,
        tenant: TenantId(tenant as u32),
        point: point.ok_or_else(|| missing("point"))? as usize,
        deadline_ns: deadline_us.map(|d| to_ns(d, "deadline_us")).transpose()?,
    })
}

/// A time-varying arrival-rate shape for synthetic trace generation.
/// All rates in requests per simulated second; all shapes are pure
/// functions of time, so a seeded generator over them is deterministic.
#[derive(Clone, Copy, Debug)]
pub enum RateProfile {
    /// Steady load.
    Constant {
        /// Arrival rate.
        rate_per_s: f64,
    },
    /// Square-wave bursts: `burst_per_s` for the first `burst_len_ns`
    /// of every `period_ns`, `base_per_s` otherwise.
    Burst {
        /// Rate between bursts.
        base_per_s: f64,
        /// Rate during bursts.
        burst_per_s: f64,
        /// Burst repetition period.
        period_ns: u64,
        /// Burst duration (≤ period).
        burst_len_ns: u64,
    },
    /// Smooth sinusoidal swing: `mean · (1 + swing·sin(2πt/period))`,
    /// clamped at 0 — the day/night cycle of a shared service.
    Diurnal {
        /// Mean arrival rate.
        mean_per_s: f64,
        /// Relative swing amplitude (0 = flat, 1 = full off-peak).
        swing: f64,
        /// Cycle period.
        period_ns: u64,
    },
    /// A step to `peak_per_s` at `at_ns` decaying exponentially back to
    /// `base_per_s` with time constant `decay_ns` — the thundering herd.
    FlashCrowd {
        /// Rate before (and long after) the flash.
        base_per_s: f64,
        /// Instantaneous rate at the flash.
        peak_per_s: f64,
        /// When the flash hits.
        at_ns: u64,
        /// Exponential decay time constant.
        decay_ns: u64,
    },
}

impl RateProfile {
    /// The instantaneous arrival rate at simulated time `t_ns`.
    pub fn rate_at(&self, t_ns: u64) -> f64 {
        match *self {
            RateProfile::Constant { rate_per_s } => rate_per_s,
            RateProfile::Burst {
                base_per_s,
                burst_per_s,
                period_ns,
                burst_len_ns,
            } => {
                if period_ns > 0 && t_ns % period_ns < burst_len_ns {
                    burst_per_s
                } else {
                    base_per_s
                }
            }
            RateProfile::Diurnal {
                mean_per_s,
                swing,
                period_ns,
            } => {
                let phase = if period_ns > 0 {
                    (t_ns % period_ns) as f64 / period_ns as f64
                } else {
                    0.0
                };
                (mean_per_s * (1.0 + swing * (2.0 * std::f64::consts::PI * phase).sin())).max(0.0)
            }
            RateProfile::FlashCrowd {
                base_per_s,
                peak_per_s,
                at_ns,
                decay_ns,
            } => {
                if t_ns < at_ns || decay_ns == 0 {
                    base_per_s
                } else {
                    let dt = (t_ns - at_ns) as f64 / decay_ns as f64;
                    base_per_s + (peak_per_s - base_per_s) * (-dt).exp()
                }
            }
        }
    }

    /// An upper bound on the rate over all time (the thinning envelope).
    fn peak_per_s(&self) -> f64 {
        match *self {
            RateProfile::Constant { rate_per_s } => rate_per_s,
            RateProfile::Burst {
                base_per_s,
                burst_per_s,
                ..
            } => base_per_s.max(burst_per_s),
            RateProfile::Diurnal {
                mean_per_s, swing, ..
            } => mean_per_s * (1.0 + swing.abs()),
            RateProfile::FlashCrowd {
                base_per_s,
                peak_per_s,
                ..
            } => base_per_s.max(peak_per_s),
        }
    }
}

/// One tenant's contribution to a synthetic trace.
#[derive(Clone, Copy, Debug)]
pub struct TenantLoad {
    /// Which tenant.
    pub tenant: TenantId,
    /// Its arrival-rate shape.
    pub profile: RateProfile,
    /// Zipf exponent of its point popularity (0 = uniform).
    pub zipf_s: f64,
    /// Deadline budget attached to every request (`None` = slack).
    pub deadline_ns: Option<u64>,
}

/// Synthesizes a deterministic multi-tenant [`ArrivalTrace`] over
/// `horizon_ns` of simulated time. Each tenant's arrivals are a
/// non-homogeneous Poisson process realized by thinning a homogeneous
/// process at the profile's peak rate; points are Zipf-sampled indices
/// into a catalogue of `catalogue_len` entries. Everything is a pure
/// function of `(loads, horizon_ns, catalogue_len, seed)`.
pub fn synthesize_trace(
    loads: &[TenantLoad],
    horizon_ns: u64,
    catalogue_len: usize,
    seed: u64,
) -> ArrivalTrace {
    assert!(catalogue_len > 0, "need a non-empty catalogue");
    let mut events = Vec::new();
    for load in loads {
        // Independent per-tenant stream: adding or re-weighting one
        // tenant never perturbs another tenant's arrivals.
        let mut rng = StdRng::seed_from_u64(
            seed ^ (load.tenant.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        // Zipf CDF over catalogue indices.
        let mut cdf: Vec<f64> = Vec::with_capacity(catalogue_len);
        let mut acc = 0.0;
        for k in 0..catalogue_len {
            acc += 1.0 / ((k + 1) as f64).powf(load.zipf_s);
            cdf.push(acc);
        }
        for c in cdf.iter_mut() {
            *c /= acc;
        }
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        let peak = load.profile.peak_per_s();
        if peak <= 0.0 {
            continue;
        }
        let mut t_ns = 0u64;
        loop {
            // Exponential inter-arrival at the envelope rate...
            let u: f64 = rng.random();
            let gap_s = -(1.0 - u).ln() / peak;
            let gap_ns = (gap_s * 1e9).ceil().max(1.0) as u64;
            t_ns = t_ns.saturating_add(gap_ns);
            if t_ns >= horizon_ns {
                break;
            }
            // ...thinned down to the instantaneous profile rate. The
            // point draw burns an rng value either way so accepted
            // arrivals don't depend on the rejection history shape.
            let keep: f64 = rng.random();
            let up: f64 = rng.random();
            let idx = cdf.partition_point(|&c| c < up).min(catalogue_len - 1);
            if keep * peak <= load.profile.rate_at(t_ns) {
                events.push(TraceEvent {
                    at_ns: t_ns,
                    tenant: load.tenant,
                    point: idx,
                    deadline_ns: load.deadline_ns,
                });
            }
        }
    }
    ArrivalTrace::from_events(events)
}

/// What an open-loop trace replay measured (all times simulated).
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// Arrivals offered to the server.
    pub offered: u64,
    /// Requests answered with a prediction.
    pub completed: u64,
    /// Requests refused at the door (admission or validation).
    pub shed: u64,
    /// Admitted requests that died at dispatch (deadline, backend).
    pub dropped: u64,
    /// Served predictions that were not bit-for-bit identical to the
    /// expected per-point reference (0 unless batching broke the
    /// invisibility contract).
    pub mismatches: u64,
    /// The windowed monitoring time series.
    pub samples: Vec<MonitorSample>,
    /// Full server stats snapshot at the end of the replay.
    pub stats: ServerStats,
}

fn prediction_bits(p: &Prediction) -> (u8, u64) {
    match p {
        Prediction::Value(v) => (0, v.to_bits()),
        Prediction::Probability(v) => (1, v.to_bits()),
    }
}

/// Replays `trace` against `server` open-loop on simulated time,
/// sampling a [`Monitor`] every `window_ns`. Arrivals are submitted at
/// their trace timestamps: between arrivals the server either serves
/// queued batches (which advances the clock by their cost) or, when
/// idle, jumps the clock to the next arrival — so overload pressure is
/// exactly what the trace encodes, independent of host speed.
///
/// `expected`, when given, holds the reference prediction for each
/// catalogue index (from standalone model `predict` calls); every
/// served response is compared bit-for-bit against it and divergences
/// are counted in [`ReplayReport::mismatches`].
///
/// Single-threaded and deterministic; the server must have a model
/// deployed and must not be driven by a concurrent worker thread.
pub fn replay_trace(
    server: &Server,
    points: &[Vec<f64>],
    trace: &ArrivalTrace,
    window_ns: u64,
    expected: Option<&[Prediction]>,
) -> ReplayReport {
    let start_ns = server.clock().now_ns();
    let start_completed = server.stats().completed;
    let mut monitor = Monitor::new(server, window_ns);
    let mut inflight: Vec<(usize, ResponseHandle)> = Vec::new();
    let mut offered = 0u64;
    let mut completed = 0u64;
    let mut shed = 0u64;
    let mut dropped = 0u64;
    let mut mismatches = 0u64;
    let mut sweep = |inflight: &mut Vec<(usize, ResponseHandle)>| {
        inflight.retain(|(point, handle)| match handle.try_take() {
            None => true,
            Some(Ok(response)) => {
                completed += 1;
                if let Some(reference) = expected {
                    if prediction_bits(&response.prediction) != prediction_bits(&reference[*point])
                    {
                        mismatches += 1;
                    }
                }
                false
            }
            Some(Err(_)) => {
                dropped += 1;
                false
            }
        });
    };
    for event in trace.events() {
        let target = start_ns.saturating_add(event.at_ns);
        while server.clock().now_ns() < target {
            if server.queue_depth() > 0 {
                server.step();
                sweep(&mut inflight);
            } else {
                server.clock().advance_to_ns(target);
            }
            monitor.poll(server);
        }
        offered += 1;
        match server.submit_as(event.tenant, points[event.point].clone(), event.deadline_ns) {
            Ok(handle) => inflight.push((event.point, handle)),
            Err(_) => shed += 1,
        }
    }
    while server.step() > 0 {
        sweep(&mut inflight);
        monitor.poll(server);
    }
    // Everything admitted has been dispatched; the remaining handles
    // hold their results already.
    sweep(&mut inflight);
    assert!(
        inflight.is_empty(),
        "drained server left unresolved requests"
    );
    let stats = server.stats();
    debug_assert_eq!(stats.completed - start_completed, completed);
    ReplayReport {
        offered,
        completed,
        shed,
        dropped,
        mismatches,
        samples: monitor.into_samples(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single constant-rate tenant drawing from `catalogue_len`
    /// points with Zipf exponent `zipf_s`; ~2000 arrivals.
    fn points_drawn(zipf_s: f64, catalogue_len: usize, seed: u64) -> Vec<usize> {
        let load = TenantLoad {
            tenant: TenantId(1),
            profile: RateProfile::Constant {
                rate_per_s: 20_000.0,
            },
            zipf_s,
            deadline_ns: None,
        };
        synthesize_trace(&[load], 100_000_000, catalogue_len, seed)
            .events()
            .iter()
            .map(|e| e.point)
            .collect()
    }

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        assert_eq!(points_drawn(1.2, 16, 7), points_drawn(1.2, 16, 7));
        assert_ne!(points_drawn(1.2, 16, 7), points_drawn(1.2, 16, 8));
        // Skew: the most popular point draws well above a uniform share.
        let drawn = points_drawn(1.2, 16, 3);
        let head = drawn.iter().filter(|&&p| p == 0).count();
        assert!(
            head > drawn.len() / 16 * 2,
            "rank-0 draws {head} of {} not skewed",
            drawn.len()
        );
    }

    #[test]
    fn uniform_exponent_covers_catalogue() {
        let seen: std::collections::HashSet<usize> = points_drawn(0.0, 8, 11).into_iter().collect();
        assert_eq!(seen.len(), 8, "uniform draws should touch every point");
    }

    #[test]
    fn jsonl_round_trips_and_sorts() {
        let text = "\
# demo trace
{\"at_us\": 1600, \"tenant\": 2, \"point\": 3}

{\"at_us\": 1500, \"tenant\": 1, \"point\": 7, \"deadline_us\": 10000}
";
        let trace = ArrivalTrace::from_jsonl(text).unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(
            trace.events()[0],
            TraceEvent {
                at_ns: 1_500_000,
                tenant: TenantId(1),
                point: 7,
                deadline_ns: Some(10_000_000),
            },
            "events sort by arrival time"
        );
        assert_eq!(trace.events()[1].deadline_ns, None);
        assert_eq!(trace.tenants(), vec![TenantId(1), TenantId(2)]);
        let reparsed = ArrivalTrace::from_jsonl(&trace.to_jsonl()).unwrap();
        assert_eq!(reparsed.events(), trace.events(), "JSONL round-trips");
    }

    #[test]
    fn malformed_lines_are_typed_errors_with_line_numbers() {
        let err = ArrivalTrace::from_jsonl("{\"at_us\": 5, \"tenant\": 0}").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.msg.contains("point"), "{}", err.msg);
        let err = ArrivalTrace::from_jsonl("not json").unwrap_err();
        assert!(err.to_string().contains("line 1"));
        let err =
            ArrivalTrace::from_jsonl("{\"at_us\": 5, \"tenant\": 0, \"point\": 1, \"zz\": 3}")
                .unwrap_err();
        assert!(err.msg.contains("unknown key"), "{}", err.msg);
        // µs times past u64::MAX / 1000 have no ns form: rejected, not saturated.
        let err = ArrivalTrace::from_jsonl(
            "# header\n{\"at_us\": 18446744073709552, \"tenant\": 0, \"point\": 0}",
        )
        .unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.msg.contains("at_us"), "{}", err.msg);
        let err = ArrivalTrace::from_jsonl(
            "{\"at_us\": 1, \"tenant\": 0, \"point\": 0, \"deadline_us\": 18446744073709552}",
        )
        .unwrap_err();
        assert!(err.msg.contains("deadline_us"), "{}", err.msg);
        let edge = "{\"at_us\": 18446744073709551, \"tenant\": 0, \"point\": 0}\n";
        assert_eq!(ArrivalTrace::from_jsonl(edge).unwrap().to_jsonl(), edge);
    }

    #[test]
    fn synthesis_is_deterministic_and_rate_faithful() {
        let loads = [
            TenantLoad {
                tenant: TenantId(1),
                profile: RateProfile::Constant {
                    rate_per_s: 5_000.0,
                },
                zipf_s: 1.0,
                deadline_ns: Some(10_000_000),
            },
            TenantLoad {
                tenant: TenantId(2),
                profile: RateProfile::Burst {
                    base_per_s: 1_000.0,
                    burst_per_s: 20_000.0,
                    period_ns: 20_000_000,
                    burst_len_ns: 5_000_000,
                },
                zipf_s: 0.0,
                deadline_ns: None,
            },
        ];
        let horizon = 100_000_000; // 100 ms
        let a = synthesize_trace(&loads, horizon, 32, 7);
        let b = synthesize_trace(&loads, horizon, 32, 7);
        assert_eq!(a.events(), b.events(), "same seed, same trace");
        let c = synthesize_trace(&loads, horizon, 32, 8);
        assert_ne!(a.events(), c.events(), "different seed, different trace");
        // Expected counts: tenant 1 ≈ 5e3 · 0.1 s = 500; tenant 2 ≈
        // (0.25·2e4 + 0.75·1e3) · 0.1 s = 575. Poisson σ ≈ √n, allow 5σ.
        let n1 = a
            .events()
            .iter()
            .filter(|e| e.tenant == TenantId(1))
            .count() as f64;
        let n2 = a
            .events()
            .iter()
            .filter(|e| e.tenant == TenantId(2))
            .count() as f64;
        assert!((n1 - 500.0).abs() < 5.0 * 500f64.sqrt(), "tenant 1: {n1}");
        assert!((n2 - 575.0).abs() < 5.0 * 575f64.sqrt(), "tenant 2: {n2}");
        // Burst faithfulness: most of tenant 2 lands inside burst windows.
        let in_burst = a
            .events()
            .iter()
            .filter(|e| e.tenant == TenantId(2) && e.at_ns % 20_000_000 < 5_000_000)
            .count() as f64;
        assert!(in_burst / n2 > 0.7, "burst fraction {}", in_burst / n2);
        // Ordering invariant.
        assert!(a.events().windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    }

    #[test]
    fn rate_profiles_shape_as_documented() {
        let flash = RateProfile::FlashCrowd {
            base_per_s: 100.0,
            peak_per_s: 10_000.0,
            at_ns: 1_000_000,
            decay_ns: 2_000_000,
        };
        assert_eq!(flash.rate_at(0), 100.0);
        assert_eq!(flash.rate_at(1_000_000), 10_000.0);
        let later = flash.rate_at(3_000_000);
        assert!(later < 10_000.0 && later > 100.0, "decaying: {later}");
        let diurnal = RateProfile::Diurnal {
            mean_per_s: 1_000.0,
            swing: 1.0,
            period_ns: 1_000_000,
        };
        assert!((diurnal.rate_at(250_000) - 2_000.0).abs() < 1e-6, "peak");
        assert!(diurnal.rate_at(750_000).abs() < 1e-6, "trough");
    }
}
