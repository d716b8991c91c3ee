//! Metric declarations and the result line.
//!
//! The two tables below are the benchmark's metric contract; they must
//! match `BENCHMARK.json` at the repository root (a unit test checks it).
//! Every run reports every end-to-end metric (untraced runs) or every
//! per-layer metric (traced runs). A per-layer metric of a layer the
//! workload does not drive reads 0.

use std::collections::BTreeMap;

/// One declared metric: name and unit.
pub type Decl = (&'static str, &'static str);

/// End-to-end metrics. Each workload gives them its own meaning; see
/// `README.md` for the per-workload definitions.
pub const END_TO_END: [Decl; 4] = [
    ("setup_s", "s"),
    ("solve_ms", "ms"),
    ("util_pct", "%"),
    ("ok_share", "share"),
];

/// Per-layer metrics; the `README.md` map names the end-to-end metric each
/// should move.
pub const PER_LAYER: [Decl; 55] = [
    ("netlist.parse_ms", "ms"),
    ("augment.s", "s"),
    ("augment.overhead_s", "s"),
    ("augment.steps", "count"),
    ("augment.fallbacks", "count"),
    ("milp.step_s", "s"),
    ("milp.max_step_s", "s"),
    ("milp.nodes", "count"),
    ("milp.us_per_node", "us"),
    ("milp.pivots_per_node", "count"),
    ("milp.warm_share", "share"),
    ("milp.refactors", "count"),
    ("milp.etas", "count"),
    ("milp.rows_tightened", "count"),
    ("milp.binaries_fixed", "count"),
    ("milp.cuts_added", "count"),
    ("milp.max_binaries", "count"),
    ("milp.nonoptimal_steps", "count"),
    ("improve.s", "s"),
    ("improve.topology_s", "s"),
    ("improve.reopt_s", "s"),
    ("improve.height_gain_pct", "%"),
    ("route.s", "s"),
    ("route.overflow_edges", "count"),
    ("route.adjust_ratio", "ratio"),
    ("route.routed_util_pct", "%"),
    ("batch.flow_s", "s"),
    ("serve.fresh_p50_ms", "ms"),
    ("serve.repeat_p50_ms", "ms"),
    ("serve.eco_p50_ms", "ms"),
    ("serve.tail_ms", "ms"),
    ("serve.goodput_share", "share"),
    ("serve.front_ms", "ms"),
    ("serve.fresh_server_ms", "ms"),
    ("serve.solver_nodes", "count"),
    ("serve.cache_hit_share", "share"),
    ("serve.coalesced_share", "share"),
    ("serve.eco_base_hit_share", "share"),
    ("serve.eco_replaced_mean", "count"),
    ("serve.basis_hot", "count"),
    ("serve.basis_warm", "count"),
    ("serve.basis_cold", "count"),
    ("serve.shed", "count"),
    ("serve.degraded", "count"),
    ("serve.gen_late_ms", "ms"),
    ("race.deadline_hit_share", "share"),
    ("race.wins_milp", "count"),
    ("race.wins_annealer", "count"),
    ("race.wins_analytic", "count"),
    ("race.overshoot_ms", "ms"),
    ("analytic.place_ms", "ms"),
    ("slicing.anneal_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.records", "count"),
    ("obs.spans", "count"),
];

/// Whether `name` is a legal metric name: starts with a letter or digit,
/// at most 64 characters of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Metric values gathered by a workload, keyed by declared name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `value` under the declared metric `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not declared in either table: a typo in the
    /// benchmark, not a measurement outcome.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|d| d.0 == name),
            "undeclared metric {name}"
        );
        self.values.insert(name, value);
    }
}

/// A finished run: operation counts plus metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (deck flows or service jobs).
    pub attempted: u64,
    /// Operations that failed, were refused, or failed a correctness check.
    pub failed: u64,
    /// Measured values.
    pub metrics: Metrics,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and the metrics of
    /// `table`. End-to-end metrics must all have been measured; per-layer
    /// metrics a workload did not measure read 0.
    ///
    /// # Errors
    ///
    /// Names a missing end-to-end metric or a non-finite value.
    pub fn result_line(&self, table: &[Decl]) -> Result<String, String> {
        let mut fields = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            if !valid_name(name) {
                return Err(format!("illegal metric name {name}"));
            }
            let value = match self.metrics.values.get(name) {
                Some(&v) => v,
                None if table == PER_LAYER.as_slice() => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }

    /// One `name value unit` line per measured metric, for the log.
    pub fn render(&self, table: &[Decl]) -> String {
        let mut out = String::new();
        for &(name, unit) in table {
            if let Some(v) = self.metrics.values.get(name) {
                out.push_str(&format!("  {name:<26} {v:>14.4} {unit}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_legal_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|d| d.0).collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
    }

    #[test]
    fn name_check_rejects_bad_names() {
        assert!(valid_name("milp.us_per_node"));
        assert!(valid_name("9lives-x"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("_x"));
        assert!(!valid_name("serve.basis_hot|warm"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let decl = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&decl), "BENCHMARK.json lacks {decl}");
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_reports_every_metric_and_counts_failures() {
        let mut out = Outcome {
            attempted: 4,
            failed: 1,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            out.metrics.set(name, 1.5);
        }
        let line = out.result_line(&END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        // Unmeasured per-layer metrics read 0; unmeasured end-to-end ones
        // are an error.
        let layers = out.result_line(&PER_LAYER).unwrap();
        assert!(layers.contains("\"obs.records\": {\"value\": 0.0, \"unit\": \"count\"}"));
        assert!(Outcome::default().result_line(&END_TO_END).is_err());
    }
}
