//! Figure 7: the SOAP (soaping) attack — clones of a compromised node
//! gradually surround each bot until the botnet is partitioned into
//! contained nodes, plus the §VII-A counter-defense cost estimates.

use mitigation::defenses::{PeeringRateLimiter, PowChallenge};
use mitigation::soap::{SoapAttack, SoapConfig};
use onionbots_core::{DdsrConfig, DdsrOverlay};
use rand::rngs::StdRng;
use sim::experiment::{ExperimentReport, Series};
use sim::scenario_api::{Scenario, ScenarioParams};

use crate::Scale;

/// The Figure 7 scenario: a full SOAP campaign against a basic OnionBot.
pub struct SoapCampaign;

impl Scenario for SoapCampaign {
    fn id(&self) -> &str {
        "fig7"
    }

    fn title(&self) -> &str {
        "Figure 7 — SOAP containment of a basic OnionBot"
    }

    fn override_keys(&self) -> Option<Vec<&str>> {
        Some(vec![])
    }

    fn run_part(
        &self,
        _part: usize,
        params: &ScenarioParams,
        rng: &mut StdRng,
    ) -> Vec<ExperimentReport> {
        let n = Scale::from_params(params).population(1000);
        let k = 10usize;
        let (mut overlay, ids) = DdsrOverlay::new_regular(n, k, DdsrConfig::for_degree(k), rng);
        let mut attack = SoapAttack::new(SoapConfig::default(), ids[0]);
        let outcome = attack.run(&mut overlay, rng);

        let mut report = ExperimentReport::new(
            "fig7",
            format!("SOAP campaign progress (n = {n}, k = {k})"),
            "iteration",
            "bots",
        );
        let iterations: Vec<f64> = outcome.trace.iter().map(|p| p.iteration as f64).collect();
        report.push_series(Series::new(
            "contained bots",
            iterations.clone(),
            outcome
                .trace
                .iter()
                .map(|p| p.contained_bots as f64)
                .collect(),
        ));
        report.push_series(Series::new(
            "discovered bots",
            iterations.clone(),
            outcome
                .trace
                .iter()
                .map(|p| p.discovered_bots as f64)
                .collect(),
        ));
        report.push_series(Series::new(
            "clones created",
            iterations,
            outcome
                .trace
                .iter()
                .map(|p| p.clones_created as f64)
                .collect(),
        ));
        report.push_note(format!(
            "botnet neutralized: {} (iterations = {}, clones = {})",
            outcome.neutralized, outcome.iterations, outcome.clones_created
        ));

        // Ablation: the paper's anticipated counter-defenses raise the
        // cost of each clone acceptance (§VII-A).
        let limiter = PeeringRateLimiter {
            base_delay_secs: 60,
            per_peer_delay_secs: 300,
        };
        let clones_per_bot = (outcome.clones_created as f64
            / outcome
                .trace
                .last()
                .map_or(1.0, |p| p.discovered_bots.max(1) as f64))
        .ceil() as usize;
        report.push_note(format!(
            "rate limiting: accepting {clones_per_bot} clones at one bot costs {} simulated hours (vs {} hours for its initial {k} rallies)",
            limiter.total_delay(k, clones_per_bot) / 3600,
            limiter.total_delay(0, k) / 3600
        ));
        for difficulty in [8u32, 12, 16] {
            let challenge = PowChallenge {
                challenge: b"peer-with-me".to_vec(),
                difficulty_bits: difficulty,
            };
            let cost = challenge.solve(u64::MAX >> 16).map(|(_, c)| c).unwrap_or(0);
            report.push_note(format!(
                "proof of work at {difficulty} bits: ~{cost} hash evaluations per clone, ~{} per contained bot",
                cost * clones_per_bot as u64
            ));
        }
        vec![report]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_neutralizes_the_quick_scale_botnet() {
        let reports = SoapCampaign.run(&ScenarioParams::default());
        assert_eq!(reports.len(), 1);
        let report = &reports[0];
        assert_eq!(report.series.len(), 3);
        assert!(report
            .notes
            .iter()
            .any(|n| n.contains("botnet neutralized: true")));
        assert!(report.notes.iter().any(|n| n.contains("proof of work")));
    }
}
