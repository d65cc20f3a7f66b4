//! The metric catalogue and the result printer. The two tables below
//! are the benchmark's source of truth for metric names and units;
//! `BENCHMARK.json` must list the same names (a test checks it).

use std::collections::BTreeMap;

/// A declared metric: name, unit, and which direction is better.
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: "higher",
    }
}

/// Reported by untraced runs (`--trace 0`).
pub const END_TO_END: &[Decl] = &[
    higher("rows_per_s", "1/s"),
    lower("latency_p50_us", "us"),
    lower("latency_p99_us", "us"),
    lower("train_s", "s"),
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MiB"),
    higher("success_rate", "ratio"),
];

/// Reported by traced runs (`--trace 1`).
pub const PER_LAYER: &[Decl] = &[
    lower("qdata.task_s", "s"),
    lower("qsim.batch_clone_ns", "ns"),
    lower("qsim.apply_compiled_ns", "ns"),
    lower("qsim.lane_ns", "ns"),
    lower("qsim.expectation_many_ns", "ns"),
    lower("qsim.flop_per_row", "flop"),
    lower("qsim.bytes_per_row", "B"),
    lower("pvqnn.encode_batch_ns_per_row", "ns"),
    lower("pvqnn.rows_standalone_us_per_row", "us"),
    lower("pvqnn.unattributed_us_per_row", "us"),
    lower("pvqnn.compile_s", "s"),
    lower("pvqnn.generate_us_per_row.obs41", "us"),
    lower("pvqnn.generate_us_per_row.hybrid11", "us"),
    lower("pvqnn.generate_us_per_row.hybrid21", "us"),
    lower("ml.logistic_fit_s.obs41", "s"),
    lower("ml.logistic_fit_s.hybrid11", "s"),
    lower("ml.logistic_fit_s.hybrid21", "s"),
    higher("ml.fit_bytes_per_s", "B/s"),
    lower("ml.predict_proba_ns_per_row", "ns"),
    lower("serve.submit_ns", "ns"),
    lower("serve.handoff_ns", "ns"),
    lower("serve.queue_wait_us", "us"),
    lower("serve.step_us", "us"),
    higher("serve.batch_rows", "count"),
    lower("serve.cache.lookup_ns", "ns"),
    lower("serve.step_overhead_us", "us"),
    higher("serve.cache.hit_rate", "ratio"),
    lower("serve.cache.insert_ns", "ns"),
    lower("serve.engine.compute_rows_us_per_row", "us"),
    lower("serve.unique_sims_per_row", "ratio"),
    lower("serve.rejected.queue_full", "count"),
    lower("serve.rejected.overloaded", "count"),
    lower("serve.rejected.tenant_over_share", "count"),
    lower("serve.rejected.deferred", "count"),
    lower("serve.rejected.deadline_exceeded", "count"),
    lower("serve.rejected.invalid", "count"),
    lower("serve.rejected.backend_unavailable", "count"),
    lower("serve.rejected.lifecycle", "count"),
    lower("process.cpu_per_wall", "ratio"),
    higher("rayon.tasks_per_steal", "ratio"),
    lower("trace.overhead", "ratio"),
];

/// One reported value with the number of samples behind it.
struct Value {
    value: Option<f64>,
    samples: usize,
    note: &'static str,
}

/// The metrics of one run, checked against a declaration table.
pub struct Report {
    decls: &'static [Decl],
    values: BTreeMap<&'static str, Value>,
}

impl Report {
    pub fn new(decls: &'static [Decl]) -> Self {
        Report {
            decls,
            values: BTreeMap::new(),
        }
    }

    fn decl(&self, name: &str) -> &'static Decl {
        self.decls
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared for this run"))
    }

    /// Records a measured value.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        self.put(name, Some(value), samples, "");
    }

    /// Records a value computed from sizes rather than measured.
    pub fn computed(&mut self, name: &str, value: f64) {
        self.put(name, Some(value), 1, " [computed]");
    }

    /// Records a metric this host cannot measure (no `/proc`).
    pub fn unavailable(&mut self, name: &str) {
        self.put(name, None, 0, "");
    }

    fn put(&mut self, name: &str, value: Option<f64>, samples: usize, note: &'static str) {
        let decl = self.decl(name);
        if let Some(v) = value {
            assert!(v.is_finite(), "metric {name} is not finite: {v}");
        }
        self.values.insert(
            decl.name,
            Value {
                value,
                samples,
                note,
            },
        );
    }

    /// Human-readable lines: name, value, unit and sample count.
    pub fn print(&self) {
        for d in self.decls {
            match self.values.get(d.name) {
                Some(Value {
                    value: Some(v),
                    samples,
                    note,
                }) => println!(
                    "metric {} = {v:.6} {} (n={samples}, {} is better){note}",
                    d.name, d.unit, d.better
                ),
                _ => println!("metric {} = unavailable", d.name),
            }
        }
    }

    /// Declared metrics this run did not record.
    pub fn missing(&self) -> Vec<&'static str> {
        self.decls
            .iter()
            .filter(|d| !self.values.contains_key(d.name))
            .map(|d| d.name)
            .collect()
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .decls
            .iter()
            .filter_map(|d| {
                let v = self.values.get(d.name)?.value?;
                Some(format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                ))
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// `BENCHMARK.json` cut into its sections, which it lists one per
    /// key in this fixed order.
    fn benchmark_sections() -> Vec<String> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let keys = [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ];
        let starts: Vec<usize> = keys
            .iter()
            .map(|k| {
                let key = format!("\"{k}\": ");
                assert_eq!(text.matches(&key).count(), 1, "key {k} once");
                text.find(&key).unwrap()
            })
            .collect();
        assert!(starts.windows(2).all(|w| w[0] < w[1]), "sections in order");
        assert_eq!(
            text.matches("\": ").count(),
            keys.len() + 2 * crate::WORKLOADS.len() + 4 * END_TO_END.len() + 3 * PER_LAYER.len(),
            "no keys beyond the contract's"
        );
        let mut ends = starts[1..].to_vec();
        ends.push(text.len());
        starts
            .iter()
            .zip(ends)
            .map(|(&a, b)| text[a..b].to_string())
            .collect()
    }

    /// Entries of a section: the text after each `{"name": `.
    fn entries(section: &str) -> Vec<&str> {
        section.split("{\"name\": ").skip(1).collect()
    }

    #[test]
    fn declared_names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad name {}", d.name);
            assert!(valid_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
            assert!(d.better == "lower" || d.better == "higher");
            assert!(seen.insert(d.name), "duplicate name {}", d.name);
        }
        assert!(!valid_name(".lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn benchmark_json_matches_the_declarations() {
        let sections = benchmark_sections();
        let (workloads, end_to_end, per_layer) = (&sections[3], &sections[4], &sections[5]);

        let listed = entries(workloads);
        assert_eq!(listed.len(), crate::WORKLOADS.len());
        for (entry, name) in listed.iter().zip(crate::WORKLOADS) {
            let why = entry
                .strip_prefix(&format!("\"{name}\", \"why\": \""))
                .unwrap_or_else(|| panic!("workload {name}: {entry}"));
            let why = &why[..why.find("\"}").expect("why closes")];
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }

        let mut bounds = Vec::new();
        for (section, decls, bounded) in [
            (end_to_end, END_TO_END, true),
            (per_layer, PER_LAYER, false),
        ] {
            let listed = entries(section);
            assert_eq!(listed.len(), decls.len());
            for (entry, d) in listed.iter().zip(decls) {
                let head = format!(
                    "\"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                    d.name, d.unit, d.better
                );
                let rest = entry
                    .strip_prefix(&head)
                    .unwrap_or_else(|| panic!("expected {head}, found {entry}"));
                if bounded {
                    let bound = rest
                        .strip_prefix(", \"bound\": ")
                        .and_then(|b| b[..b.find('}')?].parse::<f64>().ok())
                        .unwrap_or_else(|| panic!("{} bound: {rest}", d.name));
                    assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", d.name);
                    bounds.push((d.name, bound));
                } else {
                    assert!(rest.starts_with('}'), "{} has extra keys", d.name);
                }
            }
        }
        let largest = bounds.iter().map(|b| b.1).fold(0.0, f64::max);
        assert!(
            bounds.contains(&("setup_s", largest)),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::new(END_TO_END);
        for d in END_TO_END {
            r.set(d.name, 1.25, 3);
        }
        assert!(r.missing().is_empty());
        let line = r.json(true, 10, 0);
        let metrics = line
            .strip_prefix("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {")
            .and_then(|m| m.strip_suffix("}}"))
            .unwrap_or_else(|| panic!("result line {line}"));
        let expected: Vec<String> = END_TO_END
            .iter()
            .map(|d| {
                format!(
                    "\"{}\": {{\"value\": 1.25, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        assert_eq!(metrics, expected.join(", "));
    }
}
