//! Figure 4: average closeness centrality (4a/4b) and degree centrality
//! (4c/4d) of a k-regular overlay (k = 5, 10, 15) under 30% node
//! deletions, with and without pruning.

use onionbots_core::{DdsrConfig, DdsrOverlay};
use rand::rngs::StdRng;
use sim::experiment::{ExperimentReport, Series};
use sim::scenario::{gradual_takedown, TakedownMode, TakedownParams};
use sim::scenario_api::{Scenario, ScenarioParams};

use crate::Scale;

const DEGREES: [usize; 3] = [5, 10, 15];

/// The Figure 4 scenario; one part per `(pruning, k)` combination, so the
/// six variants run in parallel under the runner.
pub struct CentralityUnderTakedown;

impl Scenario for CentralityUnderTakedown {
    fn id(&self) -> &str {
        "fig4"
    }

    fn title(&self) -> &str {
        "Figure 4 — centrality under 30% deletions (k = 5/10/15, ±pruning)"
    }

    fn override_keys(&self) -> Option<Vec<&str>> {
        Some(vec![])
    }

    fn parts(&self, _params: &ScenarioParams) -> usize {
        2 * DEGREES.len()
    }

    fn run_part(
        &self,
        part: usize,
        params: &ScenarioParams,
        rng: &mut StdRng,
    ) -> Vec<ExperimentReport> {
        let pruning = part >= DEGREES.len();
        let k = DEGREES[part % DEGREES.len()];
        let scale = Scale::from_params(params);
        let n = scale.population(5000);
        let samples = scale.metric_samples();

        let config = if pruning {
            DdsrConfig::for_degree(k)
        } else {
            DdsrConfig::without_pruning(k)
        };
        let (mut overlay, ids) = DdsrOverlay::new_regular(n, k, config, rng);
        let deletions = (n as f64 * 0.3) as usize;
        let takedown = TakedownParams {
            deletions,
            sample_every: (deletions / 15).max(1),
            metric_samples: samples,
        };
        let trace = gradual_takedown(
            &mut overlay,
            &ids,
            TakedownMode::SelfRepairing,
            takedown,
            rng,
        );
        let x: Vec<f64> = trace.iter().map(|s| s.nodes_deleted as f64).collect();

        let mode = if pruning {
            "with pruning"
        } else {
            "without pruning"
        };
        let (closeness_id, degree_id) = if pruning {
            ("fig4b", "fig4d")
        } else {
            ("fig4a", "fig4c")
        };
        let mut closeness = ExperimentReport::new(
            closeness_id,
            format!("Average closeness centrality ({mode}), n = {n} (paper: 5000)"),
            "nodes deleted",
            "closeness centrality",
        );
        closeness.push_series(Series::new(
            format!("deg = {k}"),
            x.clone(),
            trace.iter().map(|s| s.closeness_centrality).collect(),
        ));
        let mut degree = ExperimentReport::new(
            degree_id,
            format!("Average degree centrality ({mode}), n = {n} (paper: 5000)"),
            "nodes deleted",
            "degree centrality",
        );
        degree.push_series(Series::new(
            format!("deg = {k}"),
            x,
            trace.iter().map(|s| s.degree_centrality).collect(),
        ));
        vec![closeness, degree]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parts_cover_both_pruning_modes_and_all_degrees() {
        let scenario = CentralityUnderTakedown;
        let params = ScenarioParams::default();
        assert_eq!(scenario.parts(&params), 6);
        // Part 0 is (no pruning, k = 5): reports fig4a/fig4c.
        let mut rng = rand::SeedableRng::seed_from_u64(1);
        let reports = scenario.run_part(0, &params, &mut rng);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].id, "fig4a");
        assert_eq!(reports[1].id, "fig4c");
        assert_eq!(reports[0].series[0].label, "deg = 5");
        // Part 5 is (pruning, k = 15): reports fig4b/fig4d.
        let reports = scenario.run_part(5, &params, &mut rng);
        assert_eq!(reports[0].id, "fig4b");
        assert_eq!(reports[0].series[0].label, "deg = 15");
    }
}
