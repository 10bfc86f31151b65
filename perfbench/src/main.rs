//! The repository benchmark: three workloads driven through the same
//! entry points users drive, with output checks on every run and a
//! separate traced run for per-layer numbers.
//!
//! ```text
//! perfbench --workload scale-churn|paper-sweep|service-mixed|all \
//!           --seed N --seconds S --trace 0|1
//! perfbench --smoke            # every workload at toy size, both modes
//! ```
//!
//! The last stdout line of a workload run is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. The binary also
//! serves as the service workload's daemon (`serve`), worker hosts
//! (`serve-worker`) and process-backend workers (`worker`), through the
//! same library entry points as `run_experiments`.

mod batch;
mod clock;
mod paper_sweep;
mod procs;
mod provenance;
mod report;
mod scale_churn;
mod service_mixed;
mod trace;

use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::time::Duration;

use serde_json::Value;

use report::{Outcome, END_TO_END, PER_LAYER};
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["scale-churn", "paper-sweep", "service-mixed"];

/// A workload run stops itself (and every child) before the 180 s a run
/// may take.
const WATCHDOG: Duration = Duration::from_secs(170);

#[derive(Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
}

const USAGE: &str = "usage: perfbench --workload NAME|all --seed N --seconds S --trace 0|1
       perfbench --smoke
workloads: scale-churn, paper-sweep, service-mixed";

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !out.smoke && out.workload != "all" && !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!("unknown workload '{}'", out.workload));
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => {
            // Stopped by a Shutdown request (or killed); no signal handler.
            static STOP: AtomicBool = AtomicBool::new(false);
            return onionbots_bench::service_cli::serve_main(&args[1..], &STOP);
        }
        Some("serve-worker") => return onionbots_bench::worker::serve_worker_main(&args[1..]),
        Some("probe-setup") => return probe_setup(&args[1..]),
        Some("worker") => {
            return match onionbots_bench::worker::run_worker() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("worker error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {}
    }
    let args = match parse(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workloads = if args.workload == "all" && !args.smoke {
        WORKLOADS.len() as u32
    } else {
        1
    };
    procs::start_watchdog(WATCHDOG * workloads);
    let result = std::panic::catch_unwind(|| {
        if args.smoke {
            smoke()
        } else if args.workload == "all" {
            WORKLOADS.iter().try_fold(true, |ok, w| {
                let args = Args {
                    workload: w.to_string(),
                    ..args.clone()
                };
                Ok(run_one(&args)?.correct() && ok)
            })
        } else {
            run_one(&args).map(|o| o.correct())
        }
    });
    procs::cleanup_all();
    match result {
        Ok(Ok(true)) => ExitCode::SUCCESS,
        Ok(Ok(false)) => {
            eprintln!("perfbench: output check failed");
            ExitCode::from(1)
        }
        Ok(Err(message)) => {
            eprintln!("perfbench: error: {message}");
            ExitCode::from(2)
        }
        Err(_) => ExitCode::from(101),
    }
}

/// The child side of the batch set-up probe: builds the workload's
/// registry and Runner, queues its parts, and says so.
fn probe_setup(args: &[String]) -> ExitCode {
    let args = match parse(args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    let (shape, params) = match args.workload.as_str() {
        "scale-churn" => scale_churn::probe_inputs(&args),
        "paper-sweep" => paper_sweep::probe_inputs(&args),
        other => {
            eprintln!("error: {other} has no in-process set-up probe");
            return ExitCode::from(2);
        }
    };
    match batch::setup_probe(&shape, params) {
        Ok(()) => {
            println!("queued");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload, prints its metric table and result line, and
/// writes its result record.
fn run_one(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(procs::WORK_DIR)
        .map_err(|e| format!("cannot create {}: {e}", procs::WORK_DIR))?;
    eprintln!(
        "perfbench: {} seed {} seconds {} trace {}{}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke { " (smoke)" } else { "" }
    );
    let mut outcome = Outcome::default();
    match args.workload.as_str() {
        "scale-churn" => scale_churn::run(args, &mut outcome)?,
        "paper-sweep" => paper_sweep::run(args, &mut outcome)?,
        "service-mixed" => service_mixed::run(args, &mut outcome)?,
        other => return Err(format!("unknown workload {other}")),
    }
    let catalog = if args.trace { PER_LAYER } else { END_TO_END };
    for &(name, unit) in catalog {
        println!(
            "{:<24} {name:<44} {:>16.6} {unit}",
            args.workload,
            outcome.metrics.get(name).unwrap_or(0.0)
        );
    }
    for m in &outcome.mismatches {
        eprintln!("perfbench: MISMATCH {m}");
    }
    write_record(args, &outcome);
    println!("{}", outcome.result_line(args.trace));
    Ok(outcome)
}

/// Closes a traced run: checks span nesting (self time ≥ 0 everywhere),
/// records the unattributed share and span count, and writes the spans.
pub fn finish_trace(args: &Args, outcome: &mut Outcome, tracer: &Tracer) -> Result<(), String> {
    let nesting = tracer.self_times();
    outcome.check("trace.self_time_nonnegative", nesting.is_ok(), || {
        nesting.as_ref().err().cloned().unwrap_or_default()
    });
    outcome.metrics.set(
        "trace.unattributed_share",
        tracer.unattributed_share().unwrap_or(1.0),
    );
    outcome
        .metrics
        .set("trace.spans", tracer.spans().len() as f64);
    let dir = Path::new(procs::WORK_DIR).join("traces");
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    std::fs::create_dir_all(&dir)
        .and_then(|()| tracer.write(&path))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    outcome.set_success_rate();
    Ok(())
}

/// The result record: provenance, metrics, raw samples and checks.
fn write_record(args: &Args, outcome: &Outcome) {
    let strings = |v: &[String]| Value::Array(v.iter().cloned().map(Value::Str).collect());
    let samples = Value::Object(
        outcome
            .samples
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    Value::Array(v.iter().copied().map(Value::F64).collect()),
                )
            })
            .collect(),
    );
    let catalog = if args.trace { PER_LAYER } else { END_TO_END };
    let record = Value::Object(vec![
        ("workload".to_string(), Value::Str(args.workload.clone())),
        ("seed".to_string(), Value::U64(args.seed)),
        ("seconds".to_string(), Value::U64(args.seconds)),
        ("trace".to_string(), Value::Bool(args.trace)),
        ("smoke".to_string(), Value::Bool(args.smoke)),
        ("provenance".to_string(), provenance::record()),
        ("correct".to_string(), Value::Bool(outcome.correct())),
        ("attempted".to_string(), Value::U64(outcome.attempted)),
        ("failed".to_string(), Value::U64(outcome.failed)),
        ("failures".to_string(), strings(&outcome.failures)),
        ("checks".to_string(), strings(&outcome.checks)),
        ("mismatches".to_string(), strings(&outcome.mismatches)),
        ("metrics".to_string(), outcome.metrics.to_json(catalog)),
        ("samples".to_string(), samples),
    ]);
    let dir = Path::new(procs::WORK_DIR).join("results");
    let path = dir.join(format!(
        "{}-seed{}-trace{}{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace),
        if args.smoke { "-smoke" } else { "" }
    ));
    let text = serde_json::to_string_pretty(&record).expect("records serialize");
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("perfbench: warning: cannot write {}: {e}", path.display());
    }
}

/// Every workload at toy size in both modes. Fails unless each run is
/// correct, every end-to-end metric is measured on every workload, every
/// per-layer metric is measured on at least one, every name fits the
/// manifest's rule, and the catalogs match `BENCHMARK.json`.
fn smoke() -> Result<bool, String> {
    let mut ok = true;
    let mut layer_names = std::collections::BTreeSet::new();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let args = Args {
                workload: workload.to_string(),
                seed: 7,
                seconds: 1,
                trace,
                smoke: true,
            };
            let outcome = run_one(&args)?;
            ok &= outcome.correct();
            for name in outcome.metrics.names() {
                if !report::valid_name(name) {
                    eprintln!("perfbench: smoke: invalid metric name {name}");
                    ok = false;
                }
            }
            if trace {
                layer_names.extend(outcome.metrics.names().map(str::to_string));
            } else {
                for (name, _) in END_TO_END {
                    if outcome.metrics.get(name).is_none() {
                        eprintln!("perfbench: smoke: {workload} did not measure {name}");
                        ok = false;
                    }
                }
            }
        }
    }
    for (name, _) in PER_LAYER {
        if !layer_names.contains(*name) {
            eprintln!("perfbench: smoke: no workload measured {name}");
            ok = false;
        }
    }
    ok &= manifest_matches()?;
    eprintln!("perfbench: smoke {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

/// Whether `BENCHMARK.json` lists exactly the catalogs' names and units.
fn manifest_matches() -> Result<bool, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let manifest: Value =
        serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let listed = |key: &str| -> Vec<(String, String)> {
        let field = |entry: &Value, f: &str| -> String {
            entry
                .as_object()
                .and_then(|o| o.iter().find(|(k, _)| k == f))
                .and_then(|(_, v)| match v {
                    Value::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .unwrap_or_default()
        };
        manifest
            .as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == key))
            .and_then(|(_, v)| v.as_array())
            .map(|entries| {
                entries
                    .iter()
                    .map(|e| (field(e, "name"), field(e, "unit")))
                    .collect()
            })
            .unwrap_or_default()
    };
    let catalog = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    let mut ok = true;
    for (key, expect) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        if listed(key) != catalog(expect) {
            eprintln!("perfbench: smoke: BENCHMARK.json {key} does not match the catalog");
            ok = false;
        }
    }
    Ok(ok)
}
