//! Figure 5: connected components (5a/5b), degree centrality (5c/5d) and
//! diameter (5e/5f) of DDSR versus a normal graph under incremental node
//! deletions, for 10-regular graphs of 5000 and 15000 nodes.

use onionbots_core::{DdsrConfig, DdsrOverlay};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim::experiment::{ExperimentReport, Series};
use sim::scenario::{gradual_takedown, TakedownMode, TakedownParams};
use sim::scenario_api::{part_seed, Scenario, ScenarioParams};

use crate::Scale;

/// `(paper population, report ids for components/degree/diameter)`.
const SIZES: [(usize, [&str; 3]); 2] = [
    (5000, ["fig5a", "fig5c", "fig5e"]),
    (15000, ["fig5b", "fig5d", "fig5f"]),
];

/// The Figure 5 scenario; one part per `(population, mode)` pair.
pub struct DdsrVersusNormal;

impl Scenario for DdsrVersusNormal {
    fn id(&self) -> &str {
        "fig5"
    }

    fn title(&self) -> &str {
        "Figure 5 — DDSR vs. normal graph under incremental deletions"
    }

    fn override_keys(&self) -> Option<Vec<&str>> {
        Some(vec![])
    }

    fn parts(&self, _params: &ScenarioParams) -> usize {
        2 * SIZES.len()
    }

    fn run_part(
        &self,
        part: usize,
        params: &ScenarioParams,
        _rng: &mut StdRng,
    ) -> Vec<ExperimentReport> {
        let (paper_n, report_ids) = SIZES[part / 2];
        let mode = if part.is_multiple_of(2) {
            TakedownMode::SelfRepairing
        } else {
            TakedownMode::Normal
        };
        let label = match mode {
            TakedownMode::SelfRepairing => "DDSR",
            TakedownMode::Normal => "Normal",
        };
        let scale = Scale::from_params(params);
        let n = scale.population(paper_n);
        let samples = scale.metric_samples();

        // Paired comparison: both modes of one population size share a
        // seed derived from the size alone, so DDSR and Normal face the
        // same initial graph and the same deletion order — differences in
        // the curves are attributable to the repair mechanism, not to
        // graph-realization noise. The per-part RNG is deliberately
        // unused.
        let mut rng = StdRng::seed_from_u64(part_seed(params.seed, self.id(), part / 2));
        let rng = &mut rng;

        let k = 10usize;
        let (mut overlay, ids) = DdsrOverlay::new_regular(n, k, DdsrConfig::for_degree(k), rng);
        // Delete ~96% of the nodes, sampling along the way (the paper
        // plots all the way to the right edge).
        let deletions = n * 96 / 100;
        let takedown = TakedownParams {
            deletions,
            sample_every: (deletions / 20).max(1),
            metric_samples: samples,
        };
        let trace = gradual_takedown(&mut overlay, &ids, mode, takedown, rng);
        let x: Vec<f64> = trace.iter().map(|s| s.nodes_deleted as f64).collect();

        let mut components = ExperimentReport::new(
            report_ids[0],
            format!("Connected components, n = {n} (paper: {paper_n})"),
            "nodes deleted",
            "connected components",
        );
        components.push_series(Series::new(
            label,
            x.clone(),
            trace
                .iter()
                .map(|s| s.connected_components as f64)
                .collect(),
        ));
        let mut degree = ExperimentReport::new(
            report_ids[1],
            format!("Degree centrality, n = {n} (paper: {paper_n})"),
            "nodes deleted",
            "degree centrality",
        );
        degree.push_series(Series::new(
            label,
            x.clone(),
            trace.iter().map(|s| s.degree_centrality).collect(),
        ));
        let mut diameter = ExperimentReport::new(
            report_ids[2],
            format!("Diameter of the largest component, n = {n} (paper: {paper_n})"),
            "nodes deleted",
            "diameter",
        );
        diameter.push_series(Series::new(
            label,
            x,
            trace
                .iter()
                .map(|s| s.diameter.unwrap_or(0) as f64)
                .collect(),
        ));
        vec![components, degree, diameter]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_are_paired_on_the_same_initial_graph() {
        // DDSR (part 0) and Normal (part 1) of one population size must
        // start from an identical graph and deletion order so the figure
        // compares the repair mechanism, not two random graphs. The
        // zero-deletion sample is taken before any mode-specific behavior
        // kicks in, so all its metrics must match exactly.
        let scenario = DdsrVersusNormal;
        let params = ScenarioParams::default();
        let mut rng = rand::SeedableRng::seed_from_u64(0);
        let ddsr = scenario.run_part(0, &params, &mut rng);
        let normal = scenario.run_part(1, &params, &mut rng);
        for (d, n) in ddsr.iter().zip(&normal) {
            assert_eq!(d.id, n.id);
            assert_eq!(
                d.series[0].y[0], n.series[0].y[0],
                "initial sample differs for {}: modes not paired",
                d.id
            );
        }
    }

    #[test]
    fn parts_map_onto_sizes_and_modes() {
        let scenario = DdsrVersusNormal;
        assert_eq!(scenario.parts(&ScenarioParams::default()), 4);
        let mut rng = rand::SeedableRng::seed_from_u64(5);
        // Part 3 is (15000 paper nodes, Normal).
        let reports = scenario.run_part(3, &ScenarioParams::default(), &mut rng);
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].id, "fig5b");
        assert_eq!(reports[2].id, "fig5f");
        assert_eq!(reports[0].series[0].label, "Normal");
    }
}
