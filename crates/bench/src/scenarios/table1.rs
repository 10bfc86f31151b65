//! Table I: cryptographic use in different botnet families, plus the
//! OnionBot design row for contrast.

use botnet::crypto_catalog::{onionbot_row, render_table, table_one};
use rand::rngs::StdRng;
use sim::experiment::ExperimentReport;
use sim::scenario_api::{Scenario, ScenarioParams};

/// The Table I scenario: a purely tabular report carried in notes.
pub struct CryptoCatalog;

impl Scenario for CryptoCatalog {
    fn id(&self) -> &str {
        "table1"
    }

    fn title(&self) -> &str {
        "Table I — cryptographic use in different botnets"
    }

    fn override_keys(&self) -> Option<Vec<&str>> {
        Some(vec![])
    }

    fn run_part(
        &self,
        _part: usize,
        _params: &ScenarioParams,
        _rng: &mut StdRng,
    ) -> Vec<ExperimentReport> {
        let mut report = ExperimentReport::new("table1", self.title(), "-", "-");
        for line in render_table(&table_one()).lines() {
            report.push_note(line.to_string());
        }
        report.push_note(String::new());
        report.push_note("With the OnionBot design for comparison:".to_string());
        let mut rows = table_one();
        rows.push(onionbot_row());
        for line in render_table(&rows).lines() {
            report.push_note(line.to_string());
        }
        vec![report]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_lists_known_botnets_and_the_onionbot_row() {
        let reports = CryptoCatalog.run(&ScenarioParams::default());
        let notes = reports[0].notes.join("\n");
        assert!(notes.contains("OnionBot"));
        assert!(reports[0].series.is_empty(), "Table I has no series");
    }
}
