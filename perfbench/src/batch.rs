//! Shared plumbing of the batch workloads: the timestamping
//! [`RunObserver`], the set-up probe and the round loop.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::Command;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use onion_crypto::sha256::Sha256;
use sim::scenario_api::ScenarioParams;
use sim::{Backend, PartEvent, PartState, RunObserver, RunSummary, Runner, ThreadsPerItem};

use crate::clock;
use crate::procs;
use crate::report::{median, round_quantile, Outcome};
use crate::trace::Tracer;
use crate::Args;

/// Records every part event with the instant it arrived.
#[derive(Default)]
pub struct Clock {
    events: Mutex<Vec<(PartEvent, Instant)>>,
}

impl RunObserver for Clock {
    fn part_event(&self, event: PartEvent) {
        let now = clock::now();
        self.events
            .lock()
            .expect("event list lock")
            .push((event, now));
    }
}

impl Clock {
    pub fn take(self) -> Vec<(PartEvent, Instant)> {
        self.events.into_inner().expect("event list lock")
    }
}

/// How a batch workload drives the [`Runner`].
#[derive(Clone)]
pub struct RunnerShape {
    pub scenarios: Vec<String>,
    pub jobs: usize,
    pub threads: ThreadsPerItem,
}

impl RunnerShape {
    fn runner(&self, params: ScenarioParams) -> Runner {
        Runner::new(params)
            .jobs(self.jobs)
            .backend(Backend::Local)
            .threads_per_item(self.threads)
    }
}

/// One observed Runner execution.
pub struct ObservedRun {
    pub summary: RunSummary,
    pub start: Instant,
    pub end: Instant,
    pub events: Vec<(PartEvent, Instant)>,
}

impl ObservedRun {
    /// Per-part `(scenario, fingerprint, queued, started, finished)`.
    pub fn parts(&self) -> Vec<(String, String, Instant, Instant, Instant)> {
        let mut by_fp: BTreeMap<&str, (String, [Option<Instant>; 3])> = BTreeMap::new();
        for (event, at) in &self.events {
            let slot = match event.state {
                PartState::Queued => 0,
                PartState::Started => 1,
                PartState::Finished => 2,
                _ => continue,
            };
            by_fp
                .entry(&event.fingerprint)
                .or_insert_with(|| (event.scenario_id.clone(), [None; 3]))
                .1[slot] = Some(*at);
        }
        by_fp
            .into_iter()
            .filter_map(|(fp, (id, [q, s, f]))| Some((id, fp.to_string(), q?, s?, f?)))
            .collect()
    }
}

/// Builds the registry and Runner and executes the selection once.
pub fn run_observed(shape: &RunnerShape, params: ScenarioParams) -> Result<ObservedRun, String> {
    let registry = onionbots_bench::scenarios::registry();
    let selected = registry
        .select(&shape.scenarios)
        .map_err(|e| e.to_string())?;
    let runner = shape.runner(params);
    let clock = Clock::default();
    let start = clock::now();
    let (summary, _) = runner
        .try_run_observed(&selected, &clock)
        .map_err(|e| e.to_string())?;
    let end = clock::now();
    Ok(ObservedRun {
        summary,
        start,
        end,
        events: clock.take(),
    })
}

/// Time from a cold start — registry built, Runner built — until the
/// first part is queued. The probe runs the real pipeline with an
/// already-set cancel token, so planning and queueing happen and the
/// dispatch stops before any part executes.
pub fn setup_probe(shape: &RunnerShape, params: ScenarioParams) -> Result<(), String> {
    let registry = onionbots_bench::scenarios::registry();
    let selected = registry
        .select(&shape.scenarios)
        .map_err(|e| e.to_string())?;
    let runner = shape
        .runner(params)
        .cancel_token(Arc::new(AtomicBool::new(true)));
    let clock = Clock::default();
    if runner.try_run_observed(&selected, &clock).is_ok() {
        return Err("the set-up probe ran to completion despite its cancel token".to_string());
    }
    if !clock
        .take()
        .iter()
        .any(|(e, _)| e.state == PartState::Queued)
    {
        return Err("the set-up probe queued no part".to_string());
    }
    Ok(())
}

/// Median over `count` cold starts of the set-up probe, each in a fresh
/// `probe-setup` process timed from spawn until it reports the first
/// part queued, so process start, registry and Runner construction and
/// planning all count.
pub fn setup_median(args: &Args, count: usize, outcome: &mut Outcome) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut samples = Vec::with_capacity(count);
    for _ in 0..count {
        let mut command = Command::new(&exe);
        command.args(["probe-setup", "--workload", &args.workload]);
        command.args(["--seed", &args.seed.to_string()]);
        if args.smoke {
            command.arg("--smoke");
        }
        let start = clock::now();
        let (pid, stdout) = procs::spawn(&mut command, None)
            .map_err(|e| format!("cannot start the set-up probe: {e}"))?;
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let elapsed = start.elapsed().as_secs_f64();
        let exited = procs::reap(pid, Duration::from_secs(10));
        if read.is_err() || line.trim() != "queued" || !exited {
            return Err(format!("the set-up probe failed (said {:?})", line.trim()));
        }
        samples.push(elapsed);
    }
    let value = median(&samples);
    outcome.samples.insert("setup_s".to_string(), samples);
    Ok(value)
}

/// Runs `round` once, then again while another round is expected to
/// end within `budget` of the first start (and `max` allows).
pub fn rounds<T>(
    budget: Duration,
    max: usize,
    mut round: impl FnMut(usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let start = clock::now();
    let mut out = Vec::new();
    let mut longest = Duration::ZERO;
    while out.len() < max {
        if !out.is_empty() && start.elapsed() + longest > budget {
            break;
        }
        let began = clock::now();
        out.push(round(out.len())?);
        longest = longest.max(began.elapsed());
    }
    Ok(out)
}

pub fn digest(summary: &RunSummary) -> String {
    onion_crypto::hex::encode(&Sha256::digest_array(summary.to_json().as_bytes()))
}

/// What a measured round keeps of one run: its digest and timings,
/// not its reports, so peak memory does not grow with the round count.
pub struct RunTiming {
    pub seed: u64,
    pub digest: String,
    pub wall_s: f64,
    /// Per part: queued → finished.
    pub latencies_ms: Vec<f64>,
}

impl From<&ObservedRun> for RunTiming {
    fn from(run: &ObservedRun) -> Self {
        RunTiming {
            seed: run.summary.params.seed,
            digest: digest(&run.summary),
            wall_s: (run.end - run.start).as_secs_f64(),
            latencies_ms: run
                .parts()
                .iter()
                .map(|(_, _, queued, _, finished)| (*finished - *queued).as_secs_f64() * 1e3)
                .collect(),
        }
    }
}

/// One measured round of a batch workload.
pub struct Round {
    pub runs: Vec<RunTiming>,
    /// This process's peak RSS during the round.
    pub peak_rss_mb: f64,
    pub steal_share: f64,
}

/// Runs one round and records this process's peak RSS and the host's
/// CPU steal during it.
pub fn measure_round(
    run: impl FnOnce() -> Result<Vec<RunTiming>, String>,
) -> Result<Round, String> {
    procs::reset_peak_rss();
    let steal = procs::StealMeter::start();
    let runs = run()?;
    let round = Round {
        runs,
        peak_rss_mb: procs::peak_rss_mb(std::process::id()).unwrap_or(0.0),
        steal_share: steal.share(),
    };
    eprintln!(
        "perfbench: round of {:.3} s, {:.1}% CPU stolen",
        round.runs.iter().map(|r| r.wall_s).sum::<f64>(),
        round.steal_share * 100.0
    );
    Ok(round)
}

/// Records the end-to-end metrics shared by both batch workloads from
/// their measured rounds, each as the median over rounds: wall time,
/// parts per second, part latency (queued → finished) percentiles and
/// peak RSS.
pub fn batch_metrics(outcome: &mut Outcome, rounds: &[Round]) {
    let walls: Vec<f64> = rounds
        .iter()
        .map(|round| round.runs.iter().map(|r| r.wall_s).sum())
        .collect();
    let peaks: Vec<f64> = rounds.iter().map(|r| r.peak_rss_mb).collect();
    let latencies_ms: Vec<Vec<f64>> = rounds
        .iter()
        .map(|round| {
            round
                .runs
                .iter()
                .flat_map(|r| r.latencies_ms.iter().copied())
                .collect()
        })
        .collect();
    let rates: Vec<f64> = latencies_ms
        .iter()
        .zip(&walls)
        .map(|(parts, wall)| parts.len() as f64 / wall)
        .collect();
    outcome.attempted = latencies_ms.iter().map(Vec::len).sum::<usize>() as u64;
    outcome.metrics.set("wall_s", median(&walls));
    outcome.metrics.set("jobs_per_s", median(&rates));
    outcome
        .metrics
        .set("job_p50_ms", round_quantile(&latencies_ms, 0.5));
    outcome
        .metrics
        .set("job_p95_ms", round_quantile(&latencies_ms, 0.95));
    outcome.metrics.set("peak_rss_mb", median(&peaks));
    eprintln!(
        "perfbench: {} round(s) of {} part(s); job_p95_ms has {} sample(s) beyond it per round",
        walls.len(),
        latencies_ms[0].len(),
        latencies_ms[0].len() / 20
    );
    outcome.samples.insert("round_wall_s".to_string(), walls);
    outcome
        .samples
        .insert("round_peak_rss_mb".to_string(), peaks);
    outcome.samples.insert(
        "round_steal_share".to_string(),
        rounds.iter().map(|r| r.steal_share).collect(),
    );
    outcome.samples.insert(
        "part_latency_ms".to_string(),
        latencies_ms.into_iter().flatten().collect(),
    );
}

/// Records the Runner pipeline's per-layer numbers from observed runs,
/// as spans (run → plan / part / merge) and as metrics.
pub fn runner_layers(outcome: &mut Outcome, tracer: &Tracer, runs: &[ObservedRun], jobs: usize) {
    let (mut plan, mut merge, mut wait, mut exec, mut part_max, mut wall) =
        (0.0, 0.0, 0.0, 0.0, 0.0f64, 0.0);
    let mut per_scenario: BTreeMap<String, f64> = BTreeMap::new();
    for run in runs {
        let root = tracer.record(
            "sim.runner.run",
            &format!("seed-{}", run.summary.params.seed),
            None,
            tracer.at_ns(run.start),
            tracer.at_ns(run.end),
        );
        let parts = run.parts();
        let first_queued = parts.iter().map(|p| p.2).min().unwrap_or(run.start);
        let last_finished = parts.iter().map(|p| p.4).max().unwrap_or(run.end);
        tracer.record(
            "sim.runner.plan",
            "",
            Some(root),
            tracer.at_ns(run.start),
            tracer.at_ns(first_queued),
        );
        tracer.record(
            "sim.runner.merge",
            "",
            Some(root),
            tracer.at_ns(last_finished),
            tracer.at_ns(run.end),
        );
        plan += (first_queued - run.start).as_secs_f64();
        merge += (run.end - last_finished).as_secs_f64();
        wall += (run.end - run.start).as_secs_f64();
        for (id, fp, queued, started, finished) in parts {
            tracer.record(
                "sim.runner.part",
                &fp,
                Some(root),
                tracer.at_ns(started),
                tracer.at_ns(finished),
            );
            let secs = (finished - started).as_secs_f64();
            wait += (started - queued).as_secs_f64();
            exec += secs;
            part_max = part_max.max(secs);
            *per_scenario.entry(id).or_default() += secs;
        }
    }
    let m = &mut outcome.metrics;
    m.set("sim.runner.plan_s", plan);
    m.set("sim.runner.merge_s", merge);
    m.set("sim.runner.queue_wait_s", wait);
    m.set("sim.runner.exec_s", exec);
    m.set("sim.runner.part_max_s", part_max);
    m.set("sim.runner.busy_frac", exec / (jobs as f64 * wall));
    for (id, secs) in per_scenario {
        let name = format!("scenario.{id}.exec_s");
        if crate::report::unit_of(&name).is_some() {
            m.set(&name, secs);
        }
    }
}
