//! The registered paper scenarios.
//!
//! Each submodule is one [`Scenario`](sim::scenario_api::Scenario):
//! Figures 3–8, Table I, the two ablations and the `scale` churn run.
//! [`registry`] returns them all, and the `run_experiments` binary (one
//! shot, or through the `serve` daemon) drives the registry through the
//! parallel [`sim::Runner`]. Every scenario declares the `--set` keys it
//! consumes (an empty list when it consumes none), so an unrelated
//! override never re-keys its cache entries.

pub mod ablation_non;
pub mod ablation_soap;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod scale;
pub mod table1;

use sim::scenario_api::ScenarioRegistry;

/// Builds the registry holding every paper scenario, in paper order.
pub fn registry() -> ScenarioRegistry {
    let mut registry = ScenarioRegistry::new();
    registry
        .register(fig3::RepairTrace)
        .register(fig4::CentralityUnderTakedown)
        .register(fig5::DdsrVersusNormal)
        .register(fig6::PartitionThreshold)
        .register(fig7::SoapCampaign)
        .register(fig8::SuperOnionRecovery)
        .register(table1::CryptoCatalog)
        .register(ablation_non::NonLookahead)
        .register(ablation_soap::SoapDefenses)
        .register(scale::ScaleChurn);
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::scenario_api::ScenarioParams;
    use sim::PartFingerprint;

    #[test]
    fn registry_contains_every_scenario_exactly_once() {
        let registry = registry();
        let ids = registry.ids();
        let expected = [
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "table1",
            "ablation-non",
            "ablation-soap-defenses",
            "scale",
        ];
        assert_eq!(ids, expected);
        let mut dedup: Vec<&str> = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "ids are unique");
        assert!(registry.len() >= 10);
    }

    #[test]
    fn every_scenario_reports_at_least_one_part() {
        let params = ScenarioParams::default();
        for scenario in registry().iter() {
            assert!(
                scenario.parts(&params) >= 1,
                "{} has no parts",
                scenario.id()
            );
            assert!(!scenario.title().is_empty());
        }
    }

    #[test]
    fn every_scenario_declares_its_override_keys() {
        for scenario in registry().iter() {
            assert!(
                scenario.override_keys().is_some(),
                "{} leaves its --set keys undeclared",
                scenario.id()
            );
        }
    }

    #[test]
    fn an_unconsumed_override_keeps_the_fingerprint() {
        let fig4 = registry().get("fig4").unwrap();
        let plain = ScenarioParams::default();
        let with_steps = ScenarioParams::default().with_override("steps", "5");
        for part in 0..fig4.parts(&plain) {
            assert_eq!(
                PartFingerprint::compute(&*fig4, part, &plain),
                PartFingerprint::compute(&*fig4, part, &with_steps),
                "fig4 part {part}"
            );
        }
    }
}
