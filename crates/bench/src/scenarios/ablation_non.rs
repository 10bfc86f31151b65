//! Ablation: the value of Neighbors-of-Neighbor lookahead (§IV-C).
//!
//! The paper builds the overlay on NoN knowledge and cites Manku et al.'s
//! result that NoN greedy routing is asymptotically optimal. This ablation
//! compares plain greedy routing (one-hop knowledge) against NoN greedy
//! routing (two-hop lookahead) on the same overlays: delivery rate and
//! stretch versus the true shortest path.

use onion_graph::generators::random_regular;
use onionbots_core::routing::{greedy_route, non_greedy_route, shortest_path_hops};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use sim::experiment::{ExperimentReport, Series};
use sim::scenario_api::{Scenario, ScenarioParams};

use crate::Scale;

const DEGREES: [usize; 5] = [4, 6, 8, 10, 15];
const TRIALS: usize = 200;

/// The NoN-lookahead ablation; one part per overlay degree.
pub struct NonLookahead;

impl Scenario for NonLookahead {
    fn id(&self) -> &str {
        "ablation-non"
    }

    fn title(&self) -> &str {
        "Ablation — greedy routing with and without NoN lookahead"
    }

    fn override_keys(&self) -> Option<Vec<&str>> {
        Some(vec![])
    }

    fn parts(&self, _params: &ScenarioParams) -> usize {
        DEGREES.len()
    }

    fn run_part(
        &self,
        part: usize,
        params: &ScenarioParams,
        rng: &mut StdRng,
    ) -> Vec<ExperimentReport> {
        let k = DEGREES[part];
        let n = Scale::from_params(params).population(2000);
        let (graph, ids) = random_regular(n, k, rng);
        let mut ok_greedy = 0usize;
        let mut ok_non = 0usize;
        let mut sum_stretch_greedy = 0.0;
        let mut sum_stretch_non = 0.0;
        let mut stretch_samples_greedy = 0usize;
        let mut stretch_samples_non = 0usize;
        for _ in 0..TRIALS {
            let src = *ids.choose(rng).expect("non-empty");
            let dst = *ids.choose(rng).expect("non-empty");
            if src == dst {
                continue;
            }
            let Some(optimal) = shortest_path_hops(&graph, src, dst) else {
                continue;
            };
            let g = greedy_route(&graph, src, dst, n);
            let non = non_greedy_route(&graph, src, dst, n);
            if g.delivered {
                ok_greedy += 1;
                sum_stretch_greedy += g.hops() as f64 / optimal.max(1) as f64;
                stretch_samples_greedy += 1;
            }
            if non.delivered {
                ok_non += 1;
                sum_stretch_non += non.hops() as f64 / optimal.max(1) as f64;
                stretch_samples_non += 1;
            }
        }

        let x = vec![k as f64];
        let mut delivery = ExperimentReport::new(
            "ablation-non-delivery",
            format!("Delivery rate of greedy routing, n = {n}"),
            "degree",
            "delivery rate",
        );
        delivery.push_series(Series::new(
            "greedy (1-hop)",
            x.clone(),
            vec![ok_greedy as f64 / TRIALS as f64],
        ));
        delivery.push_series(Series::new(
            "NoN greedy (2-hop)",
            x.clone(),
            vec![ok_non as f64 / TRIALS as f64],
        ));
        let mut stretch = ExperimentReport::new(
            "ablation-non-stretch",
            "Path stretch vs. shortest path (delivered routes)",
            "degree",
            "stretch",
        );
        stretch.push_series(Series::new(
            "greedy (1-hop)",
            x.clone(),
            vec![sum_stretch_greedy / stretch_samples_greedy.max(1) as f64],
        ));
        stretch.push_series(Series::new(
            "NoN greedy (2-hop)",
            x,
            vec![sum_stretch_non / stretch_samples_non.max(1) as f64],
        ));
        vec![delivery, stretch]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookahead_never_hurts_delivery() {
        let mut rng = rand::SeedableRng::seed_from_u64(9);
        let reports = NonLookahead.run_part(2, &ScenarioParams::default(), &mut rng);
        assert_eq!(reports.len(), 2);
        let delivery = &reports[0];
        let greedy = delivery.series[0].y[0];
        let non = delivery.series[1].y[0];
        assert!(
            non >= greedy,
            "NoN delivery {non} not below plain greedy {greedy}"
        );
    }
}
