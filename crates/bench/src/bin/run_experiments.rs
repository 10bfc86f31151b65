//! Unified experiment runner over the scenario registry.
//!
//! ```text
//! run_experiments --list
//! run_experiments --only fig4,fig7 --scale full --jobs 8 --out results/
//! run_experiments --only fig6 --cache-dir .exp-cache --set steps=5
//! run_experiments serve --socket /tmp/onionbots.sock --cache-dir .exp-cache
//! run_experiments submit --socket /tmp/onionbots.sock --only fig6
//! run_experiments status --socket /tmp/onionbots.sock
//! ```
//!
//! Selected scenarios (default: all) run through the [`sim::Runner`]
//! that [`sim::ServiceConfig::runner`] builds, the same path the `serve`
//! daemon takes, on the chosen execution backend (`--backend
//! local|process|remote`); results render to stdout (`--format
//! table|csv|json`) and, with `--out DIR`, to per-report `.json`/`.csv`
//! files plus a `summary.json`. Reports are
//! deterministic for a given `--seed` regardless of `--jobs` *and* of
//! the backend, and with `--cache-dir DIR` (or `ONIONBOTS_CACHE_DIR`)
//! previously computed parts replay from the content-addressed
//! [`sim::ResultCache`] without changing a byte of the output.
//!
//! The `serve` / `submit` / `status` subcommands front the always-on
//! simulation service ([`sim::service`]): `serve` keeps the registry,
//! cache and backend resident and speaks newline-delimited JSON to
//! concurrent clients over Unix-domain and/or TCP loopback sockets;
//! `submit` streams one job's per-part progress and renders the final
//! summary byte-identically to a one-shot run; `status` inspects the
//! daemon's job table or asks it to drain. SIGTERM/ctrl-c drain the
//! daemon gracefully: submissions are refused, in-flight parts finish
//! and flush to the cache, and the process exits 0.
//!
//! The hidden `worker` mode (`run_experiments worker`) is the subprocess
//! side of `--backend process`: it speaks the newline-delimited JSON
//! work-item protocol on stdin/stdout and is not meant to be invoked by
//! hand. `serve-worker --listen ADDR` is the same loop as a standalone
//! TCP worker host — the fleet side of `--backend remote --worker ADDR`
//! (see [`sim::remote`]).

// Deny (not forbid) so the one inventoried exception below can carry a
// scoped `#[allow]`; detlint rule D004 pins this binary to exactly one
// `unsafe` token via the inventory in detlint.toml, and every library
// crate in the workspace is `forbid(unsafe_code)`.
#![deny(unsafe_code)]

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use onionbots_bench::service_cli::{self, RUN_USAGE};
use onionbots_bench::{job_flags, scenarios, worker, Scale};
use sim::scenario_api::ScenarioParams;
use sim::{BackendSpec, ScenarioInfo, ThreadsPerItem};

/// Set by the SIGTERM/SIGINT handler; the serve loop polls it and
/// drains when it flips.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn handle_shutdown_signal(_signum: i32) {
    // Only async-signal-safe work here: flip the flag and return.
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Routes SIGINT and SIGTERM to [`handle_shutdown_signal`] so the
/// daemon drains instead of dying mid-part. `std` exposes no signal
/// API, so this calls libc's `signal(2)` directly — the one unsafe
/// block in the workspace, confined to this binary (the libraries
/// `forbid(unsafe_code)`).
#[allow(unsafe_code)] // the single inventoried exception (detlint D004)
fn install_shutdown_handler() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, handle_shutdown_signal);
        signal(SIGTERM, handle_shutdown_signal);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Subcommands are dispatched before option parsing — each has its
    // own flag set. `worker` is the hidden subprocess side of
    // --backend process; it takes no other arguments and speaks only
    // the stdin/stdout protocol.
    match args.first().map(String::as_str) {
        Some("worker") => {
            return match worker::run_worker() {
                Ok(()) => ExitCode::SUCCESS,
                Err(error) => {
                    eprintln!("worker error: {error}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("serve-worker") => return worker::serve_worker_main(&args[1..]),
        Some("serve") => {
            install_shutdown_handler();
            return service_cli::serve_main(&args[1..], &SHUTDOWN);
        }
        Some("submit") => return service_cli::submit_main(&args[1..]),
        Some("status") => return service_cli::status_main(&args[1..]),
        _ => {}
    }
    let options = match job_flags::or_exit(service_cli::parse_run_options(&args), RUN_USAGE) {
        Ok(options) => options,
        Err(code) => return code,
    };

    let registry = scenarios::registry();
    if options.list {
        // The same ScenarioInfo frames the service's List request
        // returns, so scripts can parse one format for both the offline
        // and daemon paths.
        let infos = ScenarioInfo::collect(&registry, &ScenarioParams::default());
        if options.json {
            println!(
                "{}",
                serde_json::to_string_pretty(&infos).expect("scenario listing serializes")
            );
            return ExitCode::SUCCESS;
        }
        println!("{} registered scenarios:\n", infos.len());
        for info in infos {
            println!(
                "  {:<24} {:>2} part(s)  {}",
                info.id, info.parts, info.title
            );
            // Declared override keys make --set discoverable; a scenario
            // without declared keys accepts (and is fingerprinted by)
            // every override.
            let keys = match info.override_keys {
                Some(keys) if keys.is_empty() => "(none)".to_string(),
                Some(keys) => keys.join(", "),
                None => "(undeclared)".to_string(),
            };
            println!("  {:<24} --set keys: {keys}", "");
        }
        return ExitCode::SUCCESS;
    }

    let selected = match registry.select(&options.spec.selector()) {
        Ok(selected) => selected,
        Err(error) => {
            eprintln!("error: {error}");
            return ExitCode::from(2);
        }
    };

    let fault_schedule = match service_cli::arm_faults(&options.faults) {
        Ok(schedule) => schedule,
        Err(error) => {
            eprintln!("error: invalid fault schedule: {error}");
            return ExitCode::from(2);
        }
    };
    let config = match service_cli::service_config(
        &options.spec,
        options.cache.open("running"),
        &fault_schedule,
        options.remote_deadline_ms,
    ) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    let params = options.spec.params();
    eprintln!(
        "running {} scenario(s) at {:?} scale with {} job(s), seed {}, {} backend, {} thread(s)/item",
        selected.len(),
        Scale::from_params(&params),
        config.jobs,
        params.seed,
        match config.backend {
            BackendSpec::Local => "local",
            BackendSpec::Process => "process",
            BackendSpec::Remote => "remote",
        },
        match config.threads_per_item {
            ThreadsPerItem::Auto => "auto".to_string(),
            ThreadsPerItem::Fixed(n) => n.to_string(),
            ThreadsPerItem::Sequential => "1".to_string(),
        }
    );
    if !fault_schedule.is_empty() {
        eprintln!("fault injection armed: {fault_schedule}");
    }
    if options.spec.refresh.is_some() && config.cache.is_none() {
        eprintln!("warning: --refresh has no effect without an active cache");
    }
    let runner = match config.runner(&options.spec) {
        Ok(runner) => runner,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    let started = Instant::now();
    let summary = match runner.try_run_with_stats(&selected) {
        Ok((summary, _stats)) => summary,
        Err(error) => {
            eprintln!("error: {error}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = started.elapsed();

    if let Err(message) = options.rendering.render(&summary) {
        eprintln!("error: {message}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "completed {} scenario(s), {} report(s) in {:.2}s",
        summary.outcomes.len(),
        summary.report_count(),
        elapsed.as_secs_f64()
    );
    ExitCode::SUCCESS
}
