//! The job flags of the `run_experiments` front ends, read into one
//! [`JobSpec`].
//!
//! The one-shot run, `submit` and `serve` all describe work as a
//! [`JobSpec`]: the one-shot run executes it through
//! [`ServiceConfig::runner`](sim::ServiceConfig::runner), `submit` sends
//! it to a daemon, and `serve` keeps its execution fields as the
//! daemon's defaults. [`parse`] is the one place a job flag is read:
//!
//! * what the job computes: `--only`, `--scale`/`--scale=`/`--full`/
//!   `--quick`, `--seed`, `--set` and `--refresh`;
//! * how it executes: `--jobs`, `--backend`, `--worker` and
//!   `--threads-per-item`.
//!
//! Every other flag is handed back to the front end that owns it.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::str::FromStr;

use sim::scenario_api::parse_override;
use sim::{BackendSpec, JobSpec, ThreadsPerItem};

use crate::Scale;

/// What a front end's parser produced.
#[derive(Debug)]
pub enum Parsed<T> {
    /// Options to run with.
    Run(T),
    /// `--help`/`-h`: the caller prints its usage text and exits 0.
    Help,
}

/// Settles a parse outcome for a front end's `main`: the options to run
/// with, or the exit code after printing `usage` to stdout (`--help`,
/// exit 0) or the error and `usage` to stderr (exit 2).
///
/// # Errors
/// Returns the exit code when there is nothing to run.
pub fn or_exit<T>(parsed: Result<Parsed<T>, String>, usage: &str) -> Result<T, ExitCode> {
    match parsed {
        Ok(Parsed::Run(options)) => Ok(options),
        Ok(Parsed::Help) => {
            print!("{usage}");
            Err(ExitCode::SUCCESS)
        }
        Err(message) => {
            eprintln!("error: {message}\n\n{usage}");
            Err(ExitCode::from(2))
        }
    }
}

/// Which job flags a front end accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobFlags {
    /// Every job flag (the one-shot run and `submit`).
    All,
    /// Only the execution flags, as daemon defaults (`serve`).
    Execution,
    /// None (`status`).
    None,
}

/// The arguments not yet consumed; a flag's value is the argument right
/// after it.
pub struct Args<'a> {
    rest: std::slice::Iter<'a, String>,
}

impl<'a> Args<'a> {
    /// The value following `flag`.
    ///
    /// # Errors
    /// Returns a message when the arguments end before the value.
    pub fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.rest
            .next()
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} requires a value"))
    }

    /// The value following `flag`, parsed as a `T`.
    ///
    /// # Errors
    /// Returns a message when the value is missing or does not parse.
    pub fn number<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let value = self.value(flag)?;
        value
            .parse()
            .map_err(|_| format!("invalid {flag} value '{value}'"))
    }
}

/// Parses `args` into a [`JobSpec`], reading the job flags `accept`
/// allows and handing every other flag to `other` together with the
/// remaining arguments (for its value). `other` returns `Ok(false)` for a
/// flag it does not know either, which makes the parse fail with
/// "unknown option". Repeated flags follow one rule: `--only`,
/// `--worker` and `--set` accumulate (a repeated `--set` key keeps its
/// last value), every other flag's last occurrence wins.
///
/// Without a scale flag, the scale comes from [`Scale::from_env`]. A
/// field the flags leave unset stays `None`, so a bare invocation is
/// [`JobSpec::default`] and every default is the executing side's.
///
/// # Errors
/// Returns the first malformed, missing or unknown flag.
pub fn parse(
    args: &[String],
    accept: JobFlags,
    mut other: impl FnMut(&str, &mut Args<'_>) -> Result<bool, String>,
) -> Result<Parsed<JobSpec>, String> {
    let all = accept == JobFlags::All;
    let execution = accept != JobFlags::None;
    let mut spec = JobSpec::default();
    let mut full_scale = None;
    let mut args = Args { rest: args.iter() };
    while let Some(flag) = args.rest.next() {
        let flag = flag.as_str();
        match flag {
            "--help" | "-h" => return Ok(Parsed::Help),
            "--jobs" if execution => spec.jobs = Some(args.number(flag)?),
            "--backend" if execution => spec.backend = Some(parse_backend(args.value(flag)?)?),
            "--worker" if execution => spec
                .workers
                .get_or_insert_with(Vec::new)
                .push(args.value(flag)?.to_string()),
            "--threads-per-item" if execution => {
                spec.threads_per_item = Some(parse_threads_per_item(args.value(flag)?)?);
            }
            "--only" if all => spec.only.get_or_insert_with(Vec::new).extend(
                args.value(flag)?
                    .split(',')
                    .map(str::trim)
                    .filter(|id| !id.is_empty())
                    .map(String::from),
            ),
            "--seed" if all => spec.seed = Some(args.number(flag)?),
            "--set" if all => {
                let (key, value) = parse_override(args.value(flag)?)?;
                spec.overrides
                    .get_or_insert_with(BTreeMap::new)
                    .insert(key, value);
            }
            "--refresh" if all => spec.refresh = Some(true),
            "--full" if all => full_scale = Some(true),
            "--quick" if all => full_scale = Some(false),
            "--scale" if all => full_scale = Some(parse_scale(args.value(flag)?)?),
            _ if all && flag.starts_with("--scale=") => {
                full_scale = Some(parse_scale(&flag["--scale=".len()..])?);
            }
            _ => {
                if !other(flag, &mut args)? {
                    return Err(format!("unknown option '{flag}'"));
                }
            }
        }
    }
    // `--only ""` selects the whole registry, like no `--only` at all.
    spec.only = spec.only.filter(|only| !only.is_empty());
    if all && full_scale.unwrap_or_else(|| Scale::from_env().is_full()) {
        spec.full_scale = Some(true);
    }
    Ok(Parsed::Run(spec))
}

/// Whether a `--scale` value (case-insensitive) selects the full scale.
fn parse_scale(value: &str) -> Result<bool, String> {
    match value.to_ascii_lowercase().as_str() {
        "full" => Ok(true),
        "quick" => Ok(false),
        _ => Err(format!("unknown --scale '{value}' (quick|full)")),
    }
}

fn parse_backend(value: &str) -> Result<BackendSpec, String> {
    match value {
        "local" => Ok(BackendSpec::Local),
        "process" => Ok(BackendSpec::Process),
        "remote" => Ok(BackendSpec::Remote),
        other => Err(format!(
            "unknown --backend '{other}' (local|process|remote)"
        )),
    }
}

fn parse_threads_per_item(value: &str) -> Result<ThreadsPerItem, String> {
    match value {
        "auto" => Ok(ThreadsPerItem::Auto),
        raw => raw
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .map(ThreadsPerItem::Fixed)
            .ok_or_else(|| format!("invalid --threads-per-item value '{raw}' (auto or N >= 1)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// Parses with every job flag accepted and no front-end flags.
    fn spec(list: &[&str]) -> Result<JobSpec, String> {
        match parse(&args(list), JobFlags::All, |_, _| Ok(false))? {
            Parsed::Run(spec) => Ok(spec),
            Parsed::Help => panic!("unexpected help"),
        }
    }

    fn full(list: &[&str]) -> bool {
        spec(list).unwrap().full_scale == Some(true)
    }

    #[test]
    fn scale_flags_parse_every_spelling() {
        assert!(full(&["--scale", "full"]));
        assert!(full(&["--scale=full"]));
        assert!(full(&["--full"]));
        assert!(!full(&["--scale", "quick"]));
        // Later options override earlier ones, in either direction.
        assert!(!full(&["--full", "--scale", "quick"]));
        assert!(!full(&["--scale", "full", "--quick"]));
        assert!(full(&["--scale=quick", "--full"]));
    }

    #[test]
    fn bad_or_missing_scale_values_are_errors() {
        // A typo must error rather than silently run at the wrong scale.
        assert!(spec(&["--scale", "ful"]).is_err());
        assert!(spec(&["--scale=Full-size"]).is_err());
        // ... and so must a trailing --scale with its value missing.
        assert!(spec(&["--scale"]).is_err());
        assert!(spec(&["--jobs", "2", "--scale"]).is_err());
    }

    #[test]
    fn job_flags_fill_the_spec_and_repeat_by_one_rule() {
        let parsed = spec(&[
            "--only",
            "fig6, fig4",
            "--only",
            "table1",
            "--seed",
            "9",
            "--set",
            "steps=2",
            "--set",
            "steps=3",
            "--set",
            "k=6",
            "--jobs",
            "1",
            "--jobs",
            "4",
            "--backend",
            "remote",
            "--worker",
            "a:1",
            "--worker",
            "b:2",
            "--threads-per-item",
            "3",
            "--refresh",
        ])
        .unwrap();
        assert_eq!(
            parsed,
            JobSpec {
                only: Some(vec!["fig6".into(), "fig4".into(), "table1".into()]),
                seed: Some(9),
                full_scale: None,
                overrides: Some(BTreeMap::from([
                    ("k".to_string(), "6".to_string()),
                    ("steps".to_string(), "3".to_string()),
                ])),
                refresh: Some(true),
                jobs: Some(4),
                backend: Some(BackendSpec::Remote),
                workers: Some(vec!["a:1".into(), "b:2".into()]),
                threads_per_item: Some(ThreadsPerItem::Fixed(3)),
            }
        );
        assert_eq!(spec(&[]).unwrap(), JobSpec::default());
        assert_eq!(spec(&["--only", ""]).unwrap(), JobSpec::default());
        for bad in [
            &["--jobs", "many"][..],
            &["--seed", "-1"],
            &["--set", "novalue"],
            &["--backend", "warp"],
            &["--threads-per-item", "0"],
            &["--threads-per-item"],
            &["--bogus"],
        ] {
            assert!(spec(bad).is_err(), "{bad:?}");
        }
    }
}
