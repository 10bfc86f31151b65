//! `service-mixed`: one `serve` daemon on a Unix socket with a fresh
//! shared cache and two loopback `serve-worker` hosts, driven by two
//! closed-loop clients. Half of each client's jobs repeat one of its own
//! completed specs (pure cache hits); the other half use fresh seeds.
//! Backends cycle local → process → remote per job.

use std::collections::BTreeMap;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sim::cache::{CacheLookup, CacheStats, PartFingerprint, ResultCache};
use sim::service::{Event, Frame, FrameReader, Request};
use sim::{BackendSpec, JobSpec, Runner, ThreadsSpec};

use crate::clock;
use crate::procs::{self, ScratchDir};
use crate::report::{median, round_quantile, Outcome};
use crate::trace::Tracer;
use crate::Args;

/// The small scenarios jobs draw from, in registry order.
const SMALL_IDS: [&str; 7] = [
    "fig3",
    "fig6",
    "fig7",
    "fig8",
    "table1",
    "ablation-non",
    "ablation-soap-defenses",
];
const CLIENTS: usize = 2;
const BACKENDS: [BackendSpec; 3] = [
    BackendSpec::Local,
    BackendSpec::Process,
    BackendSpec::Remote,
];
/// A job with no `Done` after this long is a named failure, not a hang.
const JOB_DEADLINE: Duration = Duration::from_secs(30);
/// How long the daemon and hosts get to start answering, and the daemon
/// to drain after `Shutdown`.
const FLEET_TIMEOUT: Duration = Duration::from_secs(10);

/// One scheduled job.
#[derive(Clone)]
struct Plan {
    client: usize,
    spec: JobSpec,
    /// Whether it repeats an earlier spec of the same client (a pure hit).
    repeat: bool,
    parts: usize,
}

/// Every subset of 1 to 4 small scenarios, in registry order.
fn compositions() -> Vec<Vec<&'static str>> {
    (1u32..1 << SMALL_IDS.len())
        .filter(|mask| (1..=4).contains(&mask.count_ones()))
        .map(|mask| {
            (0..SMALL_IDS.len())
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| SMALL_IDS[i])
                .collect()
        })
        .collect()
}

/// The deterministic job schedule of one workload seed. Fresh jobs run
/// every composition of [`compositions`] exactly once (in full mode),
/// in a seed-shuffled order with seed-derived scenario seeds, so every
/// workload seed asks for the same mix of work. Per client, every third
/// slot is fresh and the other two repeat one of that client's earlier
/// fresh specs, which the shared cache answers without executing.
/// Backends cycle local → process → remote over each client's fresh
/// jobs, and separately over its repeats.
fn schedule(seed: u64, smoke: bool) -> Vec<Vec<Plan>> {
    let registry = onionbots_bench::scenarios::registry();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mixes = compositions();
    mixes.shuffle(&mut rng);
    let fresh_per_client = if smoke { 3 } else { mixes.len() / CLIENTS };
    let mut mixes = mixes.into_iter();
    (0..CLIENTS)
        .map(|client| {
            let mut plans: Vec<Plan> = Vec::new();
            let (mut fresh, mut repeats) = (0, 0);
            let mut repeated = vec![0usize; 3 * fresh_per_client];
            for slot in 0..3 * fresh_per_client {
                let mut plan = if slot % 3 == 0 {
                    let ids = mixes.next().expect("enough compositions for every client");
                    let spec = JobSpec {
                        only: Some(ids.iter().map(|s| s.to_string()).collect()),
                        seed: Some(rng.gen()),
                        backend: Some(BACKENDS[fresh % BACKENDS.len()]),
                        ..JobSpec::default()
                    };
                    fresh += 1;
                    let params = spec.params();
                    let parts = ids
                        .iter()
                        .map(|id| registry.get(id).map_or(0, |s| s.parts(&params).max(1)))
                        .sum();
                    Plan {
                        client,
                        spec,
                        repeat: false,
                        parts,
                    }
                } else {
                    // Each fresh spec is repeated exactly twice, at
                    // seed-chosen later slots, so the repeated work is the
                    // same for every seed too.
                    let open: Vec<usize> = (0..plans.len())
                        .filter(|&i| !plans[i].repeat && repeated[i] < 2)
                        .collect();
                    let original = open[rng.gen_range(0..open.len())];
                    repeated[original] += 1;
                    let mut plan = Plan {
                        repeat: true,
                        ..plans[original].clone()
                    };
                    plan.spec.backend = Some(BACKENDS[repeats % BACKENDS.len()]);
                    repeats += 1;
                    plan
                };
                plan.spec.jobs = Some(1);
                plan.spec.threads_per_item = Some(ThreadsSpec::Fixed(1));
                plans.push(plan);
            }
            plans
        })
        .collect()
}

/// What a client saw of one job.
struct Record {
    plan: Plan,
    job: Option<u64>,
    submit: Instant,
    accepted: Option<Instant>,
    first_part: Option<Instant>,
    done: Option<Instant>,
    bytes: usize,
    part_frames: usize,
    summary: Option<String>,
    cache: Option<CacheStats>,
    failure: Option<String>,
}

impl Record {
    fn latency_ms(&self) -> Option<f64> {
        Some((self.done? - self.submit).as_secs_f64() * 1e3)
    }
}

/// The daemon, its two worker hosts and their scratch directory.
struct Fleet {
    daemon: u32,
    hosts: Vec<(u32, std::thread::JoinHandle<()>)>,
    socket: PathBuf,
    scratch: ScratchDir,
}

impl Fleet {
    /// Starts hosts and daemon; returns once all three answer.
    fn start(exe: &Path) -> Result<(Fleet, f64), String> {
        let started = clock::now();
        let scratch = ScratchDir::new("service").map_err(|e| e.to_string())?;
        let dir = scratch.path().to_path_buf();
        let mut spawned = Vec::new();
        for i in 0..2 {
            spawned.push(
                procs::spawn(
                    Command::new(exe).args(["serve-worker", "--listen", "127.0.0.1:0"]),
                    Some(&dir.join(format!("host{i}.log"))),
                )
                .map_err(|e| format!("cannot start worker host: {e}"))?,
            );
        }
        let mut hosts = Vec::new();
        let mut addrs = Vec::new();
        for (i, (pid, stdout)) in spawned.into_iter().enumerate() {
            let (addr, drain) = procs::first_line(stdout, FLEET_TIMEOUT);
            hosts.push((pid, drain));
            addrs.push(addr.ok_or_else(|| {
                format!("worker host {i} did not report its address within {FLEET_TIMEOUT:?}")
            })?);
        }
        let socket = dir.join("svc.sock");
        let mut command = Command::new(exe);
        command.arg("serve").arg("--socket").arg(&socket);
        command.arg("--cache-dir").arg(dir.join("cache"));
        command.args(["--jobs", "1", "--threads-per-item", "1", "--max-jobs", "4"]);
        command.args(["--remote-deadline-ms", "10000"]);
        for addr in &addrs {
            command.args(["--worker", addr]);
        }
        let (daemon, _stdout) = procs::spawn(&mut command, Some(&dir.join("daemon.log")))
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let fleet = Fleet {
            daemon,
            hosts,
            socket,
            scratch,
        };
        let deadline = clock::now() + FLEET_TIMEOUT;
        loop {
            if matches!(
                request_one(&fleet.socket, &Request::List),
                Ok(Event::Scenarios(_))
            ) {
                break;
            }
            if clock::now() > deadline {
                fleet.stop();
                return Err(format!(
                    "the daemon did not answer within {FLEET_TIMEOUT:?}"
                ));
            }
            clock::pause(Duration::from_micros(200));
        }
        for addr in &addrs {
            if let Err(e) = std::net::TcpStream::connect(addr) {
                fleet.stop();
                return Err(format!("worker host {addr} does not answer: {e}"));
            }
        }
        Ok((fleet, started.elapsed().as_secs_f64()))
    }

    /// Drains the daemon (killing it if it does not exit in time) and
    /// kills the hosts. Returns a named failure for a hung daemon.
    fn stop(self) -> Option<String> {
        let asked = request_one(&self.socket, &Request::Shutdown);
        let drained = asked.is_ok() && procs::reap(self.daemon, FLEET_TIMEOUT);
        if !drained {
            procs::kill(self.daemon);
        }
        for (pid, drain) in self.hosts {
            procs::kill(pid);
            let _ = drain.join();
        }
        (!drained).then(|| format!("the daemon did not drain within {FLEET_TIMEOUT:?} of Shutdown"))
    }
}

fn connect(socket: &Path) -> std::io::Result<(FrameReader<UnixStream>, UnixStream)> {
    let stream = UnixStream::connect(socket)?;
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    Ok((FrameReader::new(stream.try_clone()?), stream))
}

fn send(stream: &mut UnixStream, request: &Request) -> std::io::Result<()> {
    let mut frame = serde_json::to_string(request).expect("requests serialize");
    frame.push('\n');
    stream.write_all(frame.as_bytes())?;
    stream.flush()
}

/// One request, one answer (every non-submission request gets exactly
/// one event).
fn request_one(socket: &Path, request: &Request) -> Result<Event, String> {
    let (mut frames, mut stream) = connect(socket).map_err(|e| e.to_string())?;
    send(&mut stream, request).map_err(|e| e.to_string())?;
    let deadline = clock::now() + FLEET_TIMEOUT;
    loop {
        match frames.read_frame().map_err(|e| e.to_string())? {
            Frame::Line(line) if !line.trim().is_empty() => {
                return serde_json::from_str(&line).map_err(|e| e.to_string())
            }
            Frame::Eof => return Err("connection closed without an answer".to_string()),
            _ if clock::now() > deadline => return Err("no answer in time".to_string()),
            _ => {}
        }
    }
}

/// A closed-loop client: submits each planned job and waits for its
/// final frame before sending the next.
fn client(socket: &Path, plans: Vec<Plan>) -> Vec<Record> {
    let mut conn: Option<(FrameReader<UnixStream>, UnixStream)> = None;
    let mut records = Vec::with_capacity(plans.len());
    for plan in plans {
        let mut record = Record {
            plan,
            job: None,
            submit: clock::now(),
            accepted: None,
            first_part: None,
            done: None,
            bytes: 0,
            part_frames: 0,
            summary: None,
            cache: None,
            failure: None,
        };
        if let Err(failure) = submit(socket, &mut conn, &mut record) {
            // The connection's state is unknown after a failure; the next
            // job starts on a fresh one.
            conn = None;
            record.failure = Some(failure);
        }
        records.push(record);
    }
    records
}

fn submit(
    socket: &Path,
    conn: &mut Option<(FrameReader<UnixStream>, UnixStream)>,
    record: &mut Record,
) -> Result<(), String> {
    if conn.is_none() {
        *conn = Some(connect(socket).map_err(|e| format!("cannot connect to the daemon: {e}"))?);
    }
    let (frames, stream) = conn.as_mut().expect("connected above");
    send(stream, &Request::Submit(record.plan.spec.clone()))
        .map_err(|e| format!("cannot submit: {e}"))?;
    record.submit = clock::now();
    loop {
        let line = match frames.read_frame() {
            Ok(Frame::Line(line)) => line,
            Ok(Frame::Idle) if record.submit.elapsed() > JOB_DEADLINE => {
                return Err(format!("timeout: no Done within {JOB_DEADLINE:?}"))
            }
            Ok(Frame::Idle) => continue,
            Ok(Frame::Eof) => return Err("the daemon closed the connection mid-job".to_string()),
            Err(e) => return Err(format!("connection failed: {e}")),
        };
        let now = clock::now();
        record.bytes += line.len() + 1;
        match serde_json::from_str::<Event>(&line) {
            Ok(Event::Accepted { job }) => {
                record.job = Some(job);
                record.accepted = Some(now);
            }
            Ok(Event::Part { .. }) => {
                record.part_frames += 1;
                record.first_part.get_or_insert(now);
            }
            Ok(Event::Done { summary, cache, .. }) => {
                record.done = Some(now);
                record.summary = Some(summary.to_json());
                record.cache = cache;
                return Ok(());
            }
            Ok(Event::Error { message, .. }) => return Err(format!("Error: {message}")),
            Ok(Event::Rejected { reason }) => return Err(format!("Rejected: {reason}")),
            Ok(Event::Cancelled { job }) => return Err(format!("Cancelled: job {job}")),
            Ok(other) => return Err(format!("unexpected frame: {other:?}")),
            Err(e) => return Err(format!("unparseable frame: {e}")),
        }
    }
}

/// One round: a fresh fleet, the whole schedule, then a drain.
struct Round {
    setup_s: f64,
    wall_s: f64,
    daemon_rss_mb: f64,
    steal_share: f64,
    records: Vec<Record>,
    /// The round's cache, copied before the fleet's scratch was removed
    /// (traced runs only).
    cache_copy: Option<ScratchDir>,
}

fn round(
    exe: &Path,
    plans: &[Vec<Plan>],
    keep_cache: bool,
    outcome: &mut Outcome,
) -> Result<Round, String> {
    let (fleet, setup_s) = Fleet::start(exe)?;
    let steal = procs::StealMeter::start();
    let started = clock::now();
    let records: Vec<Record> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .map(|p| {
                let socket = &fleet.socket;
                scope.spawn(move || client(socket, p.clone()))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let steal_share = steal.share();
    let daemon_rss_mb = procs::peak_rss_mb(fleet.daemon).unwrap_or(0.0);
    let cache_copy = if keep_cache {
        let copy = ScratchDir::new("cache-copy").map_err(|e| e.to_string())?;
        copy_dir(
            &fleet.scratch.path().join("cache"),
            &copy.path().join("cache"),
        )
        .map_err(|e| format!("cannot copy the cache: {e}"))?;
        Some(copy)
    } else {
        None
    };
    outcome.attempted += 1;
    if let Some(failure) = fleet.stop() {
        outcome.fail(failure);
    }
    Ok(Round {
        setup_s,
        wall_s,
        daemon_rss_mb,
        steal_share,
        records,
        cache_copy,
    })
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Counts failures and checks every `Done` summary against a one-shot
/// local Runner run of the same spec, and the cache counters against the
/// schedule.
fn check_round(
    round: &Round,
    oneshots: &mut BTreeMap<String, String>,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let registry = onionbots_bench::scenarios::registry();
    outcome.attempted += round.records.len() as u64;
    let mut stats = CacheStats::default();
    for record in &round.records {
        if let Some(failure) = &record.failure {
            outcome.fail(format!(
                "client {} job {:?}: {failure}",
                record.plan.client, record.job
            ));
            continue;
        }
        let spec = &record.plan.spec;
        let key = format!("{:?}/{:?}", spec.seed, spec.only);
        if !oneshots.contains_key(&key) {
            let selected = registry
                .select(&spec.selector())
                .map_err(|e| e.to_string())?;
            let summary = Runner::new(spec.params())
                .try_run_with_stats(&selected)
                .map_err(|e| e.to_string())?
                .0;
            oneshots.insert(key.clone(), summary.to_json());
        }
        outcome.check(
            "service.done_equals_oneshot",
            record.summary.as_ref() == oneshots.get(&key),
            || {
                format!(
                    "job {:?} ({key}) differs from the one-shot summary",
                    record.job
                )
            },
        );
        if let Some(c) = record.cache {
            stats.hits += c.hits;
            stats.misses += c.misses;
            stats.stored += c.stored;
        }
    }
    if round.records.iter().all(|r| r.failure.is_none()) {
        let expect = |repeat: bool| -> usize {
            round
                .records
                .iter()
                .filter(|r| r.plan.repeat == repeat)
                .map(|r| r.plan.parts)
                .sum()
        };
        let (hits, misses) = (expect(true), expect(false));
        outcome.check(
            "service.cache_hits_equal_repeats",
            stats.hits == hits,
            || format!("{} hits, schedule repeats {hits} part(s)", stats.hits),
        );
        outcome.check(
            "service.cache_misses_equal_fresh",
            stats.misses == misses && stats.stored == misses,
            || {
                format!(
                    "{} misses / {} stored, schedule has {misses} fresh part(s)",
                    stats.misses, stats.stored
                )
            },
        );
    }
    Ok(())
}

fn latencies(records: &[Record], keep: impl Fn(&Record) -> bool) -> Vec<f64> {
    records
        .iter()
        .filter(|r| keep(r))
        .filter_map(Record::latency_ms)
        .collect()
}

pub fn run(args: &Args, outcome: &mut Outcome) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let plans = schedule(args.seed, args.smoke);
    let mut oneshots = BTreeMap::new();
    if args.trace {
        return traced(args, outcome, &exe, &plans, &mut oneshots);
    }
    let budget = Duration::from_secs(args.seconds);
    let rounds = crate::batch::rounds(budget, 12, |i| {
        let r = round(&exe, &plans, false, outcome)?;
        eprintln!(
            "perfbench: service-mixed round {i}: setup {:.4} s, {} jobs in {:.3} s, {:.1}% CPU stolen",
            r.setup_s,
            r.records.len(),
            r.wall_s,
            r.steal_share * 100.0
        );
        Ok(r)
    })?;
    for r in &rounds {
        check_round(r, &mut oneshots, outcome)?;
    }
    // Set-up is sampled at least eleven times per run.
    let mut setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    while setups.len() < 11 {
        let (fleet, setup_s) = Fleet::start(&exe)?;
        setups.push(setup_s);
        outcome.attempted += 1;
        if let Some(failure) = fleet.stop() {
            outcome.fail(failure);
        }
    }
    let lat: Vec<Vec<f64>> = rounds
        .iter()
        .map(|r| r.records.iter().filter_map(Record::latency_ms).collect())
        .collect();
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let rates: Vec<f64> = lat
        .iter()
        .zip(&walls)
        .map(|(jobs, wall)| jobs.len() as f64 / wall)
        .collect();
    let m = &mut outcome.metrics;
    m.set("setup_s", median(&setups));
    m.set("wall_s", median(&walls));
    m.set("jobs_per_s", median(&rates));
    m.set("job_p50_ms", round_quantile(&lat, 0.5));
    m.set("job_p95_ms", round_quantile(&lat, 0.95));
    m.set(
        "peak_rss_mb",
        median(&rounds.iter().map(|r| r.daemon_rss_mb).collect::<Vec<_>>()),
    );
    eprintln!(
        "perfbench: {} round(s) of {} completed job(s); job_p95_ms has {} sample(s) beyond it per round",
        rounds.len(),
        lat[0].len(),
        lat[0].len() / 20
    );
    outcome.samples.insert("setup_s".to_string(), setups);
    outcome.samples.insert("round_wall_s".to_string(), walls);
    outcome.samples.insert(
        "round_steal_share".to_string(),
        rounds.iter().map(|r| r.steal_share).collect(),
    );
    outcome.samples.insert(
        "job_latency_ms".to_string(),
        lat.into_iter().flatten().collect(),
    );
    outcome.set_success_rate();
    Ok(())
}

/// The traced run: an untraced round, then a round whose jobs are
/// recorded as spans, then `ResultCache::lookup`/`store` timed on a
/// copy of the traced round's cache.
fn traced(
    args: &Args,
    outcome: &mut Outcome,
    exe: &Path,
    plans: &[Vec<Plan>],
    oneshots: &mut BTreeMap<String, String>,
) -> Result<(), String> {
    let untraced = round(exe, plans, false, outcome)?;
    check_round(&untraced, oneshots, outcome)?;
    let tracer = Tracer::new();
    let traced = round(exe, plans, true, outcome)?;
    check_round(&traced, oneshots, outcome)?;

    for r in &traced.records {
        let (Some(accepted), Some(done)) = (r.accepted, r.done) else {
            continue;
        };
        let request = format!("job-{}", r.job.unwrap_or(0));
        let root = tracer.record(
            "service.job",
            &request,
            None,
            tracer.at_ns(r.submit),
            tracer.at_ns(done),
        );
        tracer.record(
            "service.accept",
            &request,
            Some(root),
            tracer.at_ns(r.submit),
            tracer.at_ns(accepted),
        );
        tracer.record(
            "service.stream",
            &request,
            Some(root),
            tracer.at_ns(accepted),
            tracer.at_ns(done),
        );
    }
    let records = &traced.records;
    let ms = |from: Instant, to: Option<Instant>| to.map(|t| (t - from).as_secs_f64() * 1e3);
    let accept: Vec<f64> = records
        .iter()
        .filter_map(|r| ms(r.submit, r.accepted))
        .collect();
    let first: Vec<f64> = records
        .iter()
        .filter_map(|r| ms(r.submit, r.first_part))
        .collect();
    let fresh_on = |b: BackendSpec| {
        latencies(records, move |r| {
            !r.plan.repeat && r.plan.spec.backend == Some(b)
        })
    };
    let mut stats = CacheStats::default();
    for c in records.iter().filter_map(|r| r.cache) {
        stats.hits += c.hits;
        stats.misses += c.misses;
        stats.stored += c.stored;
    }
    let m = &mut outcome.metrics;
    m.set("sim.service.accept_ms", median(&accept));
    m.set("sim.service.first_part_ms", median(&first));
    m.set(
        "sim.service.frame_bytes",
        records.iter().map(|r| r.bytes).sum::<usize>() as f64,
    );
    m.set(
        "sim.service.part_frames",
        records.iter().map(|r| r.part_frames).sum::<usize>() as f64,
    );
    m.set(
        "sim.cache.hit_job_ms",
        median(&latencies(records, |r| r.plan.repeat)),
    );
    m.set(
        "sim.cache.miss_job_ms",
        median(&latencies(records, |r| !r.plan.repeat)),
    );
    m.set(
        "sim.executor.local_job_ms",
        median(&fresh_on(BackendSpec::Local)),
    );
    m.set(
        "sim.executor.process_job_ms",
        median(&fresh_on(BackendSpec::Process)),
    );
    m.set(
        "sim.remote.remote_job_ms",
        median(&fresh_on(BackendSpec::Remote)),
    );
    m.set("sim.cache.hits", stats.hits as f64);
    m.set("sim.cache.misses", stats.misses as f64);
    m.set("sim.cache.stored", stats.stored as f64);
    m.set(
        "sim.cache.hit_ratio",
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
    );
    let copy = traced
        .cache_copy
        .as_ref()
        .expect("the traced round keeps its cache");
    cache_layer(outcome, &tracer, records, &copy.path().join("cache"))?;
    outcome
        .metrics
        .set("trace.overhead_s", traced.wall_s - untraced.wall_s);
    crate::finish_trace(args, outcome, &tracer)
}

/// Times `ResultCache::lookup` on every entry the run stored (in a copy
/// of its cache) and `ResultCache::store` of the same reports into an
/// empty cache.
fn cache_layer(
    outcome: &mut Outcome,
    tracer: &Tracer,
    records: &[Record],
    dir: &Path,
) -> Result<(), String> {
    let registry = onionbots_bench::scenarios::registry();
    let cache = ResultCache::open(dir).map_err(|e| e.to_string())?;
    let store_dir = ScratchDir::new("cache-store").map_err(|e| e.to_string())?;
    let fresh = ResultCache::open(store_dir.path()).map_err(|e| e.to_string())?;
    let (mut lookups, mut stores, mut sizes) = (Vec::new(), Vec::new(), Vec::new());
    for record in records
        .iter()
        .filter(|r| !r.plan.repeat && r.failure.is_none())
    {
        let params = record.plan.spec.params();
        for id in record.plan.spec.selector() {
            let scenario = registry
                .get(&id)
                .ok_or("unknown scenario in the schedule")?;
            for part in 0..scenario.parts(&params).max(1) {
                let fp = PartFingerprint::compute(&*scenario, part, &params);
                let start = clock::now();
                let found = tracer.span("sim.cache.lookup", fp.hex(), None, |_| cache.lookup(&fp));
                lookups.push(start.elapsed().as_secs_f64() * 1e3);
                let CacheLookup::Hit(reports) = found else {
                    outcome.check("service.stored_entry_readable", false, || {
                        format!("{id}#{part} was not a hit in the run's cache")
                    });
                    continue;
                };
                let start = clock::now();
                tracer
                    .span("sim.cache.store", fp.hex(), None, |_| {
                        fresh.store(&fp, &reports)
                    })
                    .map_err(|e| format!("cache store failed: {e}"))?;
                stores.push(start.elapsed().as_secs_f64() * 1e3);
                let bytes = std::fs::metadata(cache.entry_path(&fp)).map_or(0, |m| m.len());
                sizes.push(bytes as f64);
            }
        }
    }
    let m = &mut outcome.metrics;
    m.set("sim.cache.lookup_ms", median(&lookups));
    m.set("sim.cache.store_ms", median(&stores));
    m.set(
        "sim.cache.entry_bytes",
        sizes.iter().sum::<f64>() / sizes.len().max(1) as f64,
    );
    Ok(())
}
