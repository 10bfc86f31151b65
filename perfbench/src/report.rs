//! Metric catalog, summary statistics and the result record.
//!
//! The two catalogs below are the benchmark's contract with
//! `BENCHMARK.json`: an untraced run prints every [`END_TO_END`] metric,
//! a traced run every [`PER_LAYER`] metric, on every workload. A layer
//! that a workload never calls reads 0 in its traced run (the span
//! recorder saw no call); `--smoke` checks that each per-layer name is
//! measured by at least one workload and that both catalogs match the
//! manifest.

use std::collections::BTreeMap;

use serde_json::Value;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // scale-churn: the sharded hot path, replayed outside-in.
    ("onionbots_core.shard.build_s", "s"),
    ("onionbots_core.shard.wave_s", "s"),
    ("onionbots_core.shard.wave_max_s", "s"),
    ("onionbots_core.shard.build_t1_s", "s"),
    ("onionbots_core.shard.wave_t1_s", "s"),
    ("onionbots_core.overlay.edges_added", "count"),
    ("onionbots_core.overlay.edges_pruned", "count"),
    ("onionbots_core.overlay.repair_keep_ratio", "ratio"),
    ("onion_graph.components.largest_fraction_s", "s"),
    ("onion_graph.metrics.sampled_diameter_s", "s"),
    ("scale.unattributed_s", "s"),
    // paper-sweep: the runner pipeline, from RunObserver events.
    ("sim.runner.plan_s", "s"),
    ("sim.runner.merge_s", "s"),
    ("sim.runner.queue_wait_s", "s"),
    ("sim.runner.exec_s", "s"),
    ("sim.runner.part_max_s", "s"),
    ("sim.runner.busy_frac", "ratio"),
    ("scenario.fig3.exec_s", "s"),
    ("scenario.fig4.exec_s", "s"),
    ("scenario.fig5.exec_s", "s"),
    ("scenario.fig6.exec_s", "s"),
    ("scenario.fig7.exec_s", "s"),
    ("scenario.fig8.exec_s", "s"),
    ("scenario.table1.exec_s", "s"),
    ("scenario.ablation-non.exec_s", "s"),
    ("scenario.ablation-soap-defenses.exec_s", "s"),
    // paper-sweep: the fig4-fig7 part replay.
    ("onionbots_core.overlay.repair_s", "s"),
    ("onionbots_core.overlay.remove_norepair_s", "s"),
    ("onion_graph.csr.build_s", "s"),
    ("onion_graph.csr.edges_max", "count"),
    ("onion_graph.components.count_s", "s"),
    ("onion_graph.metrics.closeness_s", "s"),
    ("onion_graph.metrics.diameter_s", "s"),
    ("onion_graph.metrics.degree_centrality_s", "s"),
    ("onion_graph.metrics.bfs_sources", "count"),
    ("sim.scenario.partition_threshold_s", "s"),
    ("mitigation.soap.run_s", "s"),
    // service-mixed: framing, cache and per-backend dispatch.
    ("sim.service.accept_ms", "ms"),
    ("sim.service.first_part_ms", "ms"),
    ("sim.service.frame_bytes", "bytes"),
    ("sim.service.part_frames", "count"),
    ("sim.cache.hit_job_ms", "ms"),
    ("sim.cache.miss_job_ms", "ms"),
    ("sim.cache.hits", "count"),
    ("sim.cache.misses", "count"),
    ("sim.cache.stored", "count"),
    ("sim.cache.hit_ratio", "ratio"),
    ("sim.cache.lookup_ms", "ms"),
    ("sim.cache.store_ms", "ms"),
    ("sim.cache.entry_bytes", "bytes"),
    ("sim.executor.local_job_ms", "ms"),
    ("sim.executor.process_job_ms", "ms"),
    ("sim.remote.remote_job_ms", "ms"),
    // Every traced run: what the tracing itself cost and missed.
    ("trace.overhead_s", "s"),
    ("trace.unattributed_share", "ratio"),
    ("trace.spans", "count"),
];

/// Whether `name` fits the manifest's metric-name rule.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Metric values keyed by name; units come from the catalogs.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalog"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }

    /// The printed metric object for one catalog: every catalog entry,
    /// with layers this run never measured reading 0.
    pub fn to_json(&self, catalog: &[(&str, &str)]) -> Value {
        Value::Object(
            catalog
                .iter()
                .map(|&(name, unit)| {
                    let value = self.get(name).unwrap_or(0.0);
                    (
                        name.to_string(),
                        Value::Object(vec![
                            ("value".to_string(), Value::F64(value)),
                            ("unit".to_string(), Value::Str(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Quantile `q` of each round's samples, as the median over rounds: a
/// slow stretch of the host moves one round, not the reported value.
pub fn round_quantile(rounds: &[Vec<f64>], q: f64) -> f64 {
    median(&rounds.iter().map(|r| quantile(r, q)).collect::<Vec<f64>>())
}

/// What one workload run produced: operation counts, metrics, the
/// output checks it ran and the per-round samples behind its medians.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Named failures (timeouts, refused jobs, dead hosts ...).
    pub failures: Vec<String>,
    /// Output-check mismatches; any entry makes the run incorrect.
    pub mismatches: Vec<String>,
    /// Names of the output checks that ran.
    pub checks: Vec<String>,
    pub metrics: Metrics,
    /// Raw samples (round wall times, setups, ...) kept for the record.
    pub samples: BTreeMap<String, Vec<f64>>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.checks.push(name.to_string());
        if !ok {
            self.mismatches.push(format!("{name}: {}", detail()));
        }
    }

    pub fn fail(&mut self, failure: String) {
        eprintln!("perfbench: failure: {failure}");
        self.failed += 1;
        self.failures.push(failure);
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// `success_rate` = 1 − failed ÷ attempted (the complement of the
    /// error rate, so the metric is never 0 on a healthy run).
    pub fn set_success_rate(&mut self) {
        let attempted = self.attempted.max(1) as f64;
        self.metrics
            .set("success_rate", 1.0 - self.failed as f64 / attempted);
    }

    /// The result object printed as the last stdout line.
    pub fn result_line(&self, trace: bool) -> String {
        let catalog = if trace { PER_LAYER } else { END_TO_END };
        let value = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::U64(self.attempted.max(1))),
            ("failed".to_string(), Value::U64(self.failed)),
            ("metrics".to_string(), self.metrics.to_json(catalog)),
        ]);
        serde_json::to_string(&value).expect("result line serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.95), 4.8);
    }

    #[test]
    fn catalog_names_are_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        assert!(names.iter().all(|n| valid_name(n)));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
