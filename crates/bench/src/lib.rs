//! # onionbots-bench
//!
//! Figure/table-regeneration harness for the OnionBots (DSN 2015)
//! reproduction.
//!
//! Every paper figure/table/ablation is a registered
//! [`sim::Scenario`](sim::scenario_api::Scenario) in [`scenarios`]; the
//! `run_experiments` binary lists, selects and executes them in parallel
//! (`run_experiments --list`, `run_experiments --only fig4,fig7 --scale
//! full --jobs 8 --out results/`). Scenario knobs are overridable with
//! repeated `--set KEY=VALUE` flags, and `--cache-dir DIR` (or
//! `ONIONBOTS_CACHE_DIR`) replays previously computed parts from the
//! content-addressed [`sim::ResultCache`] with byte-identical output —
//! see `EXPERIMENTS.md` at the repository root for the full walkthrough.
//! With `--backend process` the run fans its work items out to
//! `run_experiments worker` subprocesses (the [`worker`] module) over the
//! newline-delimited JSON protocol in [`sim::executor`], with the same
//! byte-identical summaries.
//! `run_experiments serve` keeps the whole stack resident as a daemon
//! ([`service_cli`], over [`sim::service`]): clients `submit` jobs and
//! `status`-poll over Unix-domain or TCP loopback sockets, per-part
//! progress streams back as NDJSON frames, and every job shares one
//! result cache. The one-shot run, `serve` and `submit` read their job
//! flags through one parser ([`job_flags`]) into a [`sim::JobSpec`], and
//! the one-shot run and the daemon turn a spec into a runner through one
//! function ([`sim::ServiceConfig::runner`]). The [`output`] module
//! renders a `RunSummary` identically for the one-shot and daemon paths.
//! The Criterion benchmarks in `benches/` time the layers the repository
//! benchmark (`perfbench/`) does not: crypto primitives, Tor descriptor
//! operations and overlay routing. perfbench times repair, sharding,
//! metrics and SOAP.
//!
//! Scenarios default to a scaled-down population so that a full
//! regeneration run finishes in minutes on a laptop; pass `--scale full`
//! to `run_experiments` (or set `ONIONBOTS_FULL=1`) to run at the
//! paper's scale (5000/15000 nodes).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod job_flags;
pub mod output;
pub mod scenarios;
pub mod service_cli;
pub mod worker;

use sim::scenario_api::ScenarioParams;

/// Experiment scale selection shared by the scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Scaled-down population for quick runs (default).
    Quick,
    /// The paper's population (5000 / 15000 nodes).
    Full,
}

impl Scale {
    /// The scale when no scale flag is given: `ONIONBOTS_FULL=1` (or
    /// `=true`) selects [`Scale::Full`].
    pub fn from_env() -> Self {
        let env_full = std::env::var("ONIONBOTS_FULL").is_ok_and(|v| v == "1" || v == "true");
        if env_full {
            Scale::Full
        } else {
            Scale::Quick
        }
    }

    /// The scale a scenario run was configured with
    /// ([`ScenarioParams::full_scale`]).
    pub fn from_params(params: &ScenarioParams) -> Self {
        if params.full_scale {
            Scale::Full
        } else {
            Scale::Quick
        }
    }

    /// Whether this is the paper-scale configuration.
    pub fn is_full(self) -> bool {
        self == Scale::Full
    }

    /// Scales a paper-sized population down for quick runs (divides by 10,
    /// with a floor).
    pub fn population(self, paper_size: usize) -> usize {
        match self {
            Scale::Full => paper_size,
            Scale::Quick => (paper_size / 10).max(100),
        }
    }

    /// Number of BFS sources for sampled metrics.
    pub fn metric_samples(self) -> usize {
        match self {
            Scale::Full => 200,
            Scale::Quick => 60,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_shrinks_paper_populations() {
        assert_eq!(Scale::Quick.population(5000), 500);
        assert_eq!(Scale::Quick.population(15000), 1500);
        assert_eq!(Scale::Quick.population(500), 100);
        assert_eq!(Scale::Full.population(5000), 5000);
    }

    #[test]
    fn metric_samples_differ_by_scale() {
        assert!(Scale::Full.metric_samples() > Scale::Quick.metric_samples());
    }

    #[test]
    fn from_params_maps_the_flag() {
        let mut params = sim::scenario_api::ScenarioParams::default();
        assert_eq!(Scale::from_params(&params), Scale::Quick);
        params.full_scale = true;
        assert_eq!(Scale::from_params(&params), Scale::Full);
    }

    /// The scale [`job_flags::parse`] reads from `args`, with `--out`
    /// taken by the front end, as the one-shot run does.
    fn from_args(args: &[&str]) -> Result<(Scale, Option<String>), String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = None;
        let parsed = job_flags::parse(&args, job_flags::JobFlags::All, |flag, args| {
            if flag != "--out" {
                return Ok(false);
            }
            out = Some(args.value(flag)?.to_string());
            Ok(true)
        })?;
        let job_flags::Parsed::Run(spec) = parsed else {
            panic!("unexpected help");
        };
        let scale = if spec.full_scale == Some(true) {
            Scale::Full
        } else {
            Scale::Quick
        };
        Ok((scale, out))
    }

    #[test]
    fn from_args_ignores_unrelated_flags() {
        // Regression: the old `from_env` scanned raw `std::env::args()` for
        // the substring "full", so flags like `--out fullresults` or a
        // binary path containing "full" flipped the scale.
        assert_eq!(
            from_args(&["--out", "fullresults", "--jobs", "8"]),
            Ok((Scale::Quick, Some("fullresults".to_string())))
        );
        assert_eq!(from_args(&["--only", "fig4"]), Ok((Scale::Quick, None)));
    }

    #[test]
    fn bare_scale_words_only_count_in_first_position() {
        // Regression: `--out full` must not flip the scale just because a
        // flag value happens to be the word "full".
        assert_eq!(
            from_args(&["--out", "full"]),
            Ok((Scale::Quick, Some("full".to_string())))
        );
        assert_eq!(from_args(&["--only", "full"]), Ok((Scale::Quick, None)));
        // The legacy positional form is gone: a bare scale word is an
        // unknown option even as the leading argument, never a scale.
        assert!(from_args(&["full", "--jobs", "2"]).is_err());
        assert!(from_args(&["quick"]).is_err());
    }
}
