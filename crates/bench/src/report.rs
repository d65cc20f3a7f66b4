//! Machine-readable benchmark reports.
//!
//! The CI perf job runs the smoke benches and uploads the resulting
//! `BENCH_scaling.json` as an artifact, so the performance trajectory is
//! tracked across PRs instead of asserted in prose. JSON is hand-rolled
//! (no `serde_json` in the offline vendor set): flat string/number fields
//! only, which is all the schema needs.
//!
//! # `BENCH_scaling.json` metric glossary
//!
//! One flat object (`schema: postvar.bench_scaling.v1`), written by
//! `exp_scaling` and then merged into (never truncated) by
//! `exp_serving` and `exp_faults`. The kernel figures are host
//! wall-clock; the serving and fault figures are deterministic
//! behavioural outcomes of simulated-time replays (exact reproduction
//! across hosts). Gated metrics fail CI when they move >25% in the
//! losing direction against the committed baseline; every gated
//! wall-clock metric is a same-run ratio (median of interleaved A/B
//! pairs, see [`ab_compare`]), and the absolute timings beside them are
//! informational. Serving throughput and latency are not here: they
//! are `perfbench`'s `serve_hot` `rows_per_s` / `latency_p99_us`.
//!
//! Kernel metrics (`exp_scaling`):
//!
//! | key | meaning |
//! |---|---|
//! | `threads` / `host_threads` | executor threads used / available on the runner |
//! | `gate_fused_speedup` | unfused ÷ `qsim::compile`-fused gate apply time, same circuit (gated ↑) |
//! | `gate_apply_ns_per_amp` | unfused gate application, ns per amplitude per source gate (informational) |
//! | `gate_fused_ns_per_amp` | the same for the fused circuit (informational) |
//! | `gate_fusion_ratio` | source gates ÷ fused ops for the bench circuit |
//! | `thread_pool_speedup` | multi-thread ÷ single-thread kernel throughput (floor-asserted on ≥4-core runners) |
//! | `expectation_many_speedup` | per-term loop ÷ fused multi-observable sweep time (gated ↑) |
//! | `expectation_many_observables` | observable count in that comparison |
//! | `features_rows_per_s` | exact-backend feature rows per second over 400 rows (informational) |
//! | `feature_reuse_speedup` | state-vector re-simulation per (row, shift) ÷ exact transfer-kernel rows (gated ↑) |
//! | `features_shots_rows_per_s` | finite-shot backend feature rows per second (informational) |
//! | `shots_rows_speedup` | per-neuron state-vector sampler ÷ Shots `generate` rows, 1 thread (gated ↑) |
//! | `encode_batched_speedup` | pointwise ÷ batched SoA encode time, 1 thread (gated ↑) |
//! | `encode_pointwise_rows_per_s` | one-point-at-a-time encoding throughput (informational) |
//! | `encode_batched_rows_per_s` | batched SoA encoding throughput (informational) |
//! | `pool_shared_speedup` | QPU pool sharing the executor ÷ sequential devices (floor-asserted on ≥4-core runners) |
//! | `executor_tiny_tasks_per_s` | tiny-task submission throughput of the work-stealing executor |
//! | `executor_steal_tasks_per_op` | mean tasks moved per steal operation (batched steals) |
//! | `shadows_est_per_s` | classical-shadow observable estimates per second |
//!
//! Fault metrics (`exp_faults`, simulated time):
//!
//! | key | meaning |
//! |---|---|
//! | `faults_availability` | completed ÷ offered in the single-device outage replay (gated ↑, hard floor 0.99) |
//!
//! Serving metrics (`exp_serving`, simulated time):
//!
//! | key | meaning |
//! |---|---|
//! | `serving_cache_hit_rate` | feature-cache hit rate over the flood-isolation run |
//! | `serving_tenant_isolation` | victim p99 under flood ÷ solo p99 (gated ↓, hard ceiling 2.0) |

use std::io::Write;
use std::path::Path;

/// A flat metrics report serialised as a single JSON object.
#[derive(Clone, Debug, Default)]
pub struct ScalingReport {
    strings: Vec<(String, String)>,
    numbers: Vec<(String, f64)>,
}

impl ScalingReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a string field.
    pub fn put_str(&mut self, key: &str, value: &str) {
        self.strings.push((key.to_string(), value.to_string()));
    }

    /// Adds a numeric metric (non-finite values are recorded as `null`).
    pub fn put(&mut self, key: &str, value: f64) {
        self.numbers.push((key.to_string(), value));
    }

    /// The report as a JSON object string.
    pub fn to_json(&self) -> String {
        let mut fields: Vec<String> = Vec::with_capacity(self.strings.len() + self.numbers.len());
        for (k, v) in &self.strings {
            fields.push(format!("\"{}\": \"{}\"", escape(k), escape(v)));
        }
        for (k, v) in &self.numbers {
            let num = if v.is_finite() {
                format!("{v:.6}")
            } else {
                "null".to_string()
            };
            fields.push(format!("\"{}\": {num}", escape(k)));
        }
        format!("{{\n  {}\n}}\n", fields.join(",\n  "))
    }

    /// Writes the JSON report to `path`.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())
    }

    /// The value of a numeric metric, if recorded.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.numbers.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// Reads the flat numeric fields back out of a report previously written
/// by [`ScalingReport::write_to`] — the baseline side of the CI perf-diff
/// check. Line-based, matching exactly the `"key": number` shape this
/// module emits (string fields and `null`s are skipped).
pub fn read_numbers(path: &Path) -> std::io::Result<Vec<(String, f64)>> {
    let text = std::fs::read_to_string(path)?;
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        if let Ok(num) = value.trim().parse::<f64>() {
            out.push((key.to_string(), num));
        }
    }
    Ok(out)
}

/// Diffs `fresh` against a committed baseline report, returning the
/// human-readable failures for every metric in `gated` — `(key,
/// higher_is_better)` pairs — that moved more than `tolerance` in the
/// losing direction (improvements never fail; a metric missing from
/// either side does, and the message names the side that lacks it). Shared by the exp_scaling and exp_serving CI gates
/// so the tolerance semantics cannot diverge.
pub fn baseline_gate_failures(
    fresh: &ScalingReport,
    baseline_path: &Path,
    gated: &[(&str, bool)],
    tolerance: f64,
) -> Vec<String> {
    let baseline = match read_numbers(baseline_path) {
        Ok(nums) => nums,
        Err(e) => {
            return vec![format!(
                "cannot read baseline {}: {e}",
                baseline_path.display()
            )]
        }
    };
    let base_get = |key: &str| baseline.iter().find(|(k, _)| k == key).map(|&(_, v)| v);
    let mut failures = Vec::new();
    for &(key, higher_is_better) in gated {
        let (new, old) = match (fresh.get(key), base_get(key)) {
            (Some(new), Some(old)) => (new, old),
            (None, Some(_)) => {
                failures.push(format!("metric {key} missing from fresh report"));
                continue;
            }
            (Some(_), None) => {
                failures.push(format!(
                    "metric {key} missing from baseline {}",
                    baseline_path.display()
                ));
                continue;
            }
            (None, None) => {
                failures.push(format!(
                    "metric {key} missing from fresh report and from baseline {}",
                    baseline_path.display()
                ));
                continue;
            }
        };
        if old <= 0.0 {
            continue;
        }
        let ratio = new / old;
        let regressed = if higher_is_better {
            ratio < 1.0 - tolerance
        } else {
            ratio > 1.0 + tolerance
        };
        if regressed {
            failures.push(format!(
                "{key} regressed: baseline {old:.4} -> fresh {new:.4} ({:+.1}%)",
                (ratio - 1.0) * 100.0
            ));
        }
    }
    failures
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Seconds per run of `f`, minimum over `reps` timed runs (one warm-up run
/// first). Minimum — not mean — because scheduler noise only ever adds
/// time.
pub fn time_secs<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    assert!(reps >= 1);
    std::hint::black_box(f());
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = std::time::Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// An interleaved A/B timing (see [`ab_compare`]).
#[derive(Clone, Copy, Debug)]
pub struct AbTiming {
    /// Median over the pairs of `time(a) / time(b)`: how many times
    /// faster `b` ran than `a` on the same host moment.
    pub speedup: f64,
    /// Fastest single `a` run (seconds).
    pub a_secs: f64,
    /// Fastest single `b` run (seconds).
    pub b_secs: f64,
}

/// Times `a` against `b` in `pairs` interleaved pairs (one warm-up run
/// of each first; the run order alternates pair by pair). A same-run
/// ratio cancels what the host does to both sides, and the median
/// discards the pairs a scheduler hiccup landed in — which is what lets
/// CI gate it on a noisy 2-core runner where absolute times drift.
pub fn ab_compare<R, S>(
    pairs: usize,
    mut a: impl FnMut() -> R,
    mut b: impl FnMut() -> S,
) -> AbTiming {
    fn once<T>(f: &mut impl FnMut() -> T) -> f64 {
        let start = std::time::Instant::now();
        std::hint::black_box(f());
        start.elapsed().as_secs_f64()
    }
    assert!(pairs >= 1);
    std::hint::black_box(a());
    std::hint::black_box(b());
    let (mut a_secs, mut b_secs) = (f64::INFINITY, f64::INFINITY);
    let mut ratios = Vec::with_capacity(pairs);
    for i in 0..pairs {
        let (ta, tb) = if i % 2 == 0 {
            let ta = once(&mut a);
            (ta, once(&mut b))
        } else {
            let tb = once(&mut b);
            (once(&mut a), tb)
        };
        a_secs = a_secs.min(ta);
        b_secs = b_secs.min(tb);
        ratios.push(ta / tb.max(1e-12));
    }
    ratios.sort_by(f64::total_cmp);
    AbTiming {
        speedup: ratios[pairs / 2],
        a_secs,
        b_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape() {
        let mut r = ScalingReport::new();
        r.put_str("schema", "postvar.bench_scaling.v1");
        r.put("gate_apply_ns_per_amp", 1.25);
        r.put("bad", f64::NAN);
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with("}\n"));
        assert!(j.contains("\"schema\": \"postvar.bench_scaling.v1\""));
        assert!(j.contains("\"gate_apply_ns_per_amp\": 1.250000"));
        assert!(j.contains("\"bad\": null"));
    }

    #[test]
    fn time_secs_is_positive() {
        let t = time_secs(2, || (0..1000u64).sum::<u64>());
        assert!(t >= 0.0 && t.is_finite());
    }

    #[test]
    fn ab_compare_reports_median_ratio_and_fastest_runs() {
        let ab = ab_compare(5, || (0..20_000u64).sum::<u64>(), || 1u64);
        assert!(ab.speedup.is_finite() && ab.speedup > 0.0);
        assert!(ab.a_secs >= 0.0 && ab.b_secs >= 0.0);
    }

    #[test]
    fn read_numbers_round_trips() {
        let mut r = ScalingReport::new();
        r.put_str("schema", "postvar.bench_scaling.v1");
        r.put("gate_apply_ns_per_amp", 1.75);
        r.put("features_rows_per_s", 74820.5);
        r.put("nan_metric", f64::NAN);
        let dir = std::env::temp_dir().join("postvar_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.json");
        r.write_to(&path).unwrap();
        let nums = read_numbers(&path).unwrap();
        let find = |k: &str| nums.iter().find(|(n, _)| n == k).map(|&(_, v)| v);
        assert_eq!(find("gate_apply_ns_per_amp"), Some(1.75));
        assert_eq!(find("features_rows_per_s"), Some(74820.5));
        assert_eq!(find("nan_metric"), None, "null values are skipped");
        assert_eq!(find("schema"), None, "string fields are skipped");
        assert_eq!(r.get("gate_apply_ns_per_amp"), Some(1.75));
        assert_eq!(r.get("missing"), None);
    }

    #[test]
    fn gate_failures_name_the_side_missing_a_key() {
        let dir = std::env::temp_dir().join("postvar_report_gate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.json");
        let mut base = ScalingReport::new();
        base.put("both", 2.0);
        base.put("only_baseline", 1.0);
        base.write_to(&path).unwrap();
        let mut fresh = ScalingReport::new();
        fresh.put("both", 1.0);
        fresh.put("only_fresh", 1.0);
        let gated = [
            ("both", true),
            ("only_baseline", true),
            ("only_fresh", true),
            ("neither", true),
        ];
        let failures = baseline_gate_failures(&fresh, &path, &gated, 0.25);
        let shown = path.display();
        assert_eq!(
            failures,
            vec![
                "both regressed: baseline 2.0000 -> fresh 1.0000 (-50.0%)".to_string(),
                "metric only_baseline missing from fresh report".to_string(),
                format!("metric only_fresh missing from baseline {shown}"),
                format!("metric neither missing from fresh report and from baseline {shown}"),
            ]
        );
    }
}
