//! The `run_experiments` front ends: the one-shot run's options, and
//! the `serve` / `submit` / `status` subcommands over the simulation
//! service in [`sim::service`].
//!
//! `serve` starts the persistent daemon: the scenario registry is loaded
//! once, the result cache and execution backend are owned centrally, and
//! concurrent clients speak newline-delimited JSON over a Unix domain
//! socket (`--socket PATH`) and/or TCP loopback (`--tcp ADDR`). `submit`
//! is the client: it sends one job, streams the per-part progress frames
//! to stderr as they land, and renders the final summary through the
//! exact pipeline the one-shot CLI uses ([`crate::output`]), so stdout
//! and `summary.json` are byte-identical to a local run with the same
//! seed. `status` queries the daemon's job table, lists its scenarios,
//! or asks it to shut down gracefully.
//!
//! Every front end reads its job flags through [`job_flags::parse`]; the
//! one-shot run and `serve` build their execution configuration through
//! [`service_config`], so both open the cache and launch workers the
//! same way.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;

use sim::service::{Event, Frame, FrameReader, Request, DEFAULT_MAX_ACTIVE_JOBS};
use sim::wire::write_frame;
use sim::{
    BackendSpec, JobSpec, ResultCache, RunSummary, Service, ServiceConfig, ThreadsPerItem,
    WorkerCommand,
};

use crate::job_flags::{self, Args, JobFlags, Parsed};
use crate::output::{render_summary, Format};
use crate::scenarios;

/// Where a daemon listens / a client connects.
enum Transport {
    /// Unix domain socket at this path.
    Unix(PathBuf),
    /// TCP address, e.g. `127.0.0.1:7415`.
    Tcp(String),
}

/// Reads the `--socket PATH` / `--tcp ADDR` transport flags of `serve`,
/// `submit` and `status`; `Ok(None)` when `flag` is neither.
fn transport_flag(flag: &str, args: &mut Args<'_>) -> Result<Option<Transport>, String> {
    Ok(Some(match flag {
        "--socket" => Transport::Unix(PathBuf::from(args.value(flag)?)),
        "--tcp" => Transport::Tcp(args.value(flag)?.to_string()),
        _ => return Ok(None),
    }))
}

/// The value of `--remote-deadline-ms MS` (MS >= 1), a flag of the
/// one-shot run and `serve`.
fn deadline_value(flag: &str, args: &mut Args<'_>) -> Result<u64, String> {
    let value = args.value(flag)?;
    let millis = value.parse().ok().filter(|&ms| ms >= 1);
    millis.ok_or_else(|| format!("invalid --remote-deadline-ms value '{value}' (MS >= 1)"))
}

/// The `--out DIR` / `--format FMT` flags of the front ends that render
/// a summary (the one-shot run and `submit`).
#[derive(Debug, Default)]
pub struct Rendering {
    out: Option<String>,
    format: Format,
}

impl Rendering {
    fn flag(&mut self, flag: &str, args: &mut Args<'_>) -> Result<bool, String> {
        match flag {
            "--out" => self.out = Some(args.value(flag)?.to_string()),
            "--format" => self.format = Format::parse(args.value(flag)?)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Renders `summary` to stdout and, with `--out`, to files
    /// ([`render_summary`]).
    ///
    /// # Errors
    /// Returns a message when an output file cannot be written.
    pub fn render(&self, summary: &RunSummary) -> Result<(), String> {
        render_summary(summary, self.format, self.out.as_deref())
    }
}

/// The `--cache-dir DIR` / `--no-cache` flags of the front ends that own
/// a cache (the one-shot run and `serve`).
#[derive(Debug, Default)]
pub struct CacheFlags {
    dir: Option<String>,
    no_cache: bool,
}

impl CacheFlags {
    fn flag(&mut self, flag: &str, args: &mut Args<'_>) -> Result<bool, String> {
        match flag {
            "--cache-dir" => self.dir = Some(args.value(flag)?.to_string()),
            "--no-cache" => self.no_cache = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Opens the cache these flags select: `--no-cache` wins, then
    /// `--cache-dir`, then a non-empty `ONIONBOTS_CACHE_DIR`. An unusable
    /// directory degrades to no cache with a warning that the front end
    /// goes on `doing` ("running", "serving") uncached: caching is an
    /// accelerator, never a prerequisite.
    pub fn open(&self, doing: &str) -> Option<ResultCache> {
        if self.no_cache {
            return None;
        }
        let dir = self.dir.clone().or_else(|| {
            std::env::var("ONIONBOTS_CACHE_DIR")
                .ok()
                .filter(|dir| !dir.is_empty())
        })?;
        ResultCache::open(&dir)
            .map_err(|error| {
                eprintln!("warning: cache dir {dir} is unusable ({error}); {doing} uncached");
            })
            .ok()
    }
}

/// The execution configuration of a front end that runs jobs (the
/// one-shot run and `serve`): the execution fields of `defaults` over
/// one job, the local backend and `auto` threads per item, plus `cache`
/// and the per-item remote deadline. Workers are this very binary
/// re-invoked in `worker` mode, so parent and workers can never disagree
/// about the registry; a non-empty `fault_schedule` is exported to them,
/// so worker-side failpoints (`worker.item`) fire there with their own
/// per-process hit counters.
///
/// # Errors
/// Fails only when the default backend is `process` and this binary's
/// own path cannot be found.
pub fn service_config(
    defaults: &JobSpec,
    cache: Option<ResultCache>,
    fault_schedule: &str,
    remote_deadline_ms: Option<u64>,
) -> Result<ServiceConfig, String> {
    let backend = defaults.backend.unwrap_or(BackendSpec::Local);
    let worker_command = match std::env::current_exe() {
        Ok(exe) => {
            let command = WorkerCommand::new(exe).arg("worker");
            Some(if fault_schedule.is_empty() {
                command
            } else {
                command.env(sim::FAULTS_ENV, fault_schedule)
            })
        }
        Err(error) if backend == BackendSpec::Process => {
            return Err(format!(
                "cannot locate own executable for worker mode: {error}"
            ))
        }
        Err(_) => None,
    };
    Ok(ServiceConfig {
        jobs: defaults.jobs.unwrap_or(1),
        backend,
        worker_command,
        workers: defaults.workers.clone().unwrap_or_default(),
        threads_per_item: defaults.threads_per_item.unwrap_or(ThreadsPerItem::Auto),
        cache,
        max_active_jobs: DEFAULT_MAX_ACTIVE_JOBS,
        remote_deadline_ms,
    })
}

// --------------------------------------------------------------- one-shot

/// The one-shot run's usage text.
pub const RUN_USAGE: &str = "\
Usage: run_experiments [options]
       run_experiments serve|submit|status [options]

Subcommands (see each one's --help):
  serve               start the persistent simulation service daemon
  submit              send one job to a running daemon and stream results
  status              inspect a running daemon's job table / scenarios
  serve-worker        run a standalone TCP worker host for --backend remote

Options:
  --list              list registered scenarios and exit
  --json              with --list, print the listing as machine-readable
                      JSON (ids, part counts, override keys)
  --only ID[,ID...]   run only the named scenarios (repeatable)
  --scale quick|full  population scale (default: quick; env ONIONBOTS_FULL=1)
  --jobs N            workers: threads (local) or subprocesses (process)
                      (default: 1)
  --threads-per-item T
                      intra-item thread budget for graph sweeps: auto
                      (split cores across in-flight items, the default)
                      or a fixed thread count; never changes output bytes
  --backend B         execution backend: local (in-process threads,
                      default), process (run_experiments worker
                      subprocesses speaking ndjson over stdin/stdout) or
                      remote (a fleet of serve-worker hosts over TCP)
  --worker ADDR       remote worker host address, repeatable (requires
                      --backend remote; list an address twice for two
                      concurrent channels to the same host)
  --remote-deadline-ms MS
                      per-item reply deadline for --backend remote
                      (default: 60000). A host that accepts work but
                      does not answer within MS is abandoned and its
                      items re-queue on the surviving fleet
  --faults POINT=SPEC deterministic fault injection, repeatable; also
                      via env ONIONBOTS_FAULTS (';'-separated). SPEC is
                      ACTION[:MILLIS]@ORDINALS with ACTION one of
                      err|delay|hang|crash|partial and ORDINALS 1-based
                      hit counts like 2 or 3,5 or 4.. (open range).
                      Example: --faults remote.read=err@2
                      Schedules are exported to process-backend workers;
                      remote hosts arm from their own environment
  --seed N            base RNG seed (default: 2015)
  --set KEY=VALUE     scenario override, repeatable (e.g. --set steps=5)
  --out DIR           also write per-report .json/.csv files and summary.json
  --format FMT        stdout rendering: table (default), csv, json
  --cache-dir DIR     replay cached parts / store fresh ones under DIR
                      (default: env ONIONBOTS_CACHE_DIR; unset = no cache)
  --no-cache          ignore --cache-dir and ONIONBOTS_CACHE_DIR
  --refresh           re-execute cached parts and overwrite their entries
  --help              show this help
";

/// The one-shot run's options: the job itself plus the flags only a
/// one-shot run has.
#[derive(Debug)]
pub struct RunOptions {
    /// `--list`: list the registry instead of running.
    pub list: bool,
    /// `--json`: the `--list` listing as JSON.
    pub json: bool,
    /// The job the flags describe.
    pub spec: JobSpec,
    /// Where the summary goes.
    pub rendering: Rendering,
    /// Which cache the run uses.
    pub cache: CacheFlags,
    /// `--faults` entries, each already validated.
    pub faults: Vec<String>,
    /// `--remote-deadline-ms`.
    pub remote_deadline_ms: Option<u64>,
}

/// Parses the one-shot run's arguments.
///
/// # Errors
/// Returns the first malformed flag, or a flag that needs another one:
/// `--json` without `--list`, `--worker` or `--remote-deadline-ms`
/// without `--backend remote`, `--backend remote` without `--worker`.
pub fn parse_run_options(args: &[String]) -> Result<Parsed<RunOptions>, String> {
    let (mut list, mut json) = (false, false);
    let mut rendering = Rendering::default();
    let mut cache = CacheFlags::default();
    let mut faults = Vec::new();
    let mut remote_deadline_ms = None;
    let parsed = job_flags::parse(args, JobFlags::All, |flag, args| {
        match flag {
            "--list" => list = true,
            "--json" => json = true,
            "--remote-deadline-ms" => remote_deadline_ms = Some(deadline_value(flag, args)?),
            "--faults" => {
                let value = args.value(flag)?;
                // Validate eagerly so a typo'd point name fails the
                // invocation instead of silently never firing.
                sim::faults::parse_entry(value)?;
                faults.push(value.to_string());
            }
            _ => return Ok(rendering.flag(flag, args)? || cache.flag(flag, args)?),
        }
        Ok(true)
    })?;
    let Parsed::Run(spec) = parsed else {
        return Ok(Parsed::Help);
    };
    let remote = spec.backend == Some(BackendSpec::Remote);
    if json && !list {
        return Err("--json is only valid together with --list".to_string());
    }
    if remote && spec.workers.is_none() {
        return Err("--backend remote requires at least one --worker ADDR".to_string());
    }
    if !remote && spec.workers.is_some() {
        return Err("--worker is only valid together with --backend remote".to_string());
    }
    if !remote && remote_deadline_ms.is_some() {
        return Err(
            "--remote-deadline-ms is only valid together with --backend remote".to_string(),
        );
    }
    Ok(Parsed::Run(RunOptions {
        list,
        json,
        spec,
        rendering,
        cache,
        faults,
        remote_deadline_ms,
    }))
}

/// Arms the one-shot run's fault schedule: the `ONIONBOTS_FAULTS`
/// entries first, then every `--faults` flag. Arming is all-or-nothing:
/// a typo anywhere fails the invocation rather than running with half a
/// schedule. Returns the combined schedule, empty when nothing is armed.
///
/// # Errors
/// Returns the first entry that does not parse.
pub fn arm_faults(flags: &[String]) -> Result<String, String> {
    let mut entries: Vec<String> = std::env::var(sim::FAULTS_ENV)
        .ok()
        .filter(|schedule| !schedule.is_empty())
        .into_iter()
        .collect();
    entries.extend(flags.iter().cloned());
    let schedule = entries.join(";");
    sim::faults::arm_schedule(&schedule)?;
    Ok(schedule)
}

/// The read and write halves of a client connection.
type Connection = (Box<dyn Read>, Box<dyn Write>);

/// Opens both halves of a client connection.
fn connect(transport: &Transport) -> Result<Connection, String> {
    match transport {
        Transport::Unix(path) => {
            let stream = UnixStream::connect(path)
                .map_err(|e| format!("cannot connect to socket {}: {e}", path.display()))?;
            let reader = stream
                .try_clone()
                .map_err(|e| format!("cannot clone socket: {e}"))?;
            Ok((Box::new(reader), Box::new(stream)))
        }
        Transport::Tcp(addr) => {
            let stream =
                TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
            let reader = stream
                .try_clone()
                .map_err(|e| format!("cannot clone socket: {e}"))?;
            Ok((Box::new(reader), Box::new(stream)))
        }
    }
}

/// The event frames of one client connection.
type Events = FrameReader<Box<dyn Read>>;

/// Sends `request` over a fresh connection and returns the reader its
/// answering events arrive on; `what` names the request in the send
/// error.
fn send(transport: &Transport, request: &Request, what: &str) -> Result<Events, String> {
    let (reader, mut writer) = connect(transport)?;
    write_frame(&mut writer, request).map_err(|e| format!("cannot send {what}: {e}"))?;
    Ok(FrameReader::new(reader))
}

/// Reads the next event frame, skipping read timeouts and blank lines.
/// `failed` prefixes a transport error; `closed` is the error when the
/// service closes the connection first.
fn next_event(events: &mut Events, failed: &str, closed: &str) -> Result<Event, String> {
    loop {
        match events.read_frame().map_err(|e| format!("{failed}: {e}"))? {
            Frame::Eof => return Err(closed.to_string()),
            Frame::Idle => {}
            Frame::Line(line) if line.trim().is_empty() => {}
            Frame::Line(line) => {
                return serde_json::from_str::<Event>(&line)
                    .map_err(|e| format!("unparseable event frame: {e}"))
            }
        }
    }
}

/// Sends one request frame and returns the daemon's single response
/// frame. Every non-submission request is answered with exactly one
/// event, so the client never has to wait for the connection to close
/// (dropping a cloned read/write half does not shut the socket down).
fn request_one(transport: &Transport, request: &Request) -> Result<Event, String> {
    let mut events = send(transport, request, "request")?;
    next_event(
        &mut events,
        "connection failed",
        "the service closed the connection without answering",
    )
}

// ------------------------------------------------------------------ serve

const SERVE_USAGE: &str = "\
Usage: run_experiments serve [options]

Starts the persistent simulation service. Clients connect with
`run_experiments submit` / `status` and speak newline-delimited JSON.

Options:
  --socket PATH       listen on a Unix domain socket at PATH
  --tcp ADDR          listen on a TCP address (loopback recommended,
                      e.g. 127.0.0.1:0); may be combined with --socket
  --jobs N            default workers per job (default: 1)
  --backend B         default execution backend: local|process|remote
  --worker ADDR       default remote worker host address, repeatable
                      (used by --backend remote jobs)
  --threads-per-item T
                      default intra-item thread budget: auto or N >= 1
  --max-jobs N        admission bound: at most N jobs run concurrently;
                      further submissions are answered with a Rejected
                      frame instead of queueing (default: 8)
  --remote-deadline-ms MS
                      per-item reply deadline for remote-backend jobs
                      (default: 60000)
  --cache-dir DIR     shared result cache for every job
                      (default: env ONIONBOTS_CACHE_DIR; unset = no cache)
  --no-cache          run every job uncached
  --help              show this help

SIGTERM/ctrl-c drain the daemon: new submissions are refused, in-flight
jobs finish and flush their cache entries, then the process exits 0.
";

struct ServeOptions {
    transports: Vec<Transport>,
    /// The daemon's defaults; only the execution fields are ever set.
    defaults: JobSpec,
    max_active_jobs: usize,
    remote_deadline_ms: Option<u64>,
    cache: CacheFlags,
}

fn parse_serve_options(args: &[String]) -> Result<Parsed<ServeOptions>, String> {
    let mut transports = Vec::new();
    let mut max_active_jobs = DEFAULT_MAX_ACTIVE_JOBS;
    let mut remote_deadline_ms = None;
    let mut cache = CacheFlags::default();
    let parsed = job_flags::parse(args, JobFlags::Execution, |flag, args| {
        if let Some(transport) = transport_flag(flag, args)? {
            transports.push(transport);
            return Ok(true);
        }
        match flag {
            "--max-jobs" => {
                let value = args.value(flag)?;
                max_active_jobs =
                    value.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        format!("invalid --max-jobs value '{value}' (need N >= 1)")
                    })?;
            }
            "--remote-deadline-ms" => remote_deadline_ms = Some(deadline_value(flag, args)?),
            _ => return cache.flag(flag, args),
        }
        Ok(true)
    })?;
    let Parsed::Run(defaults) = parsed else {
        return Ok(Parsed::Help);
    };
    if transports.is_empty() {
        return Err("serve needs at least one of --socket PATH or --tcp ADDR".to_string());
    }
    Ok(Parsed::Run(ServeOptions {
        transports,
        defaults,
        max_active_jobs,
        remote_deadline_ms,
        cache,
    }))
}

/// Runs the daemon until `stop` is set (the binary's signal handler) or
/// a client sends a `Shutdown` frame, then drains and exits.
pub fn serve_main(args: &[String], stop: &AtomicBool) -> ExitCode {
    let options = match job_flags::or_exit(parse_serve_options(args), SERVE_USAGE) {
        Ok(options) => options,
        Err(code) => return code,
    };
    // Daemon-side failpoints (`service.job`, `service.sink`, the backend
    // points) arm from the environment, exactly like worker processes. A
    // bad schedule fails startup loudly — a daemon running with half a
    // chaos schedule would be worse than no daemon at all. Workers
    // inherit the same environment, so no schedule is exported to them.
    if let Err(error) = sim::faults::arm_from_env() {
        eprintln!("error: invalid {} schedule: {error}", sim::FAULTS_ENV);
        return ExitCode::from(2);
    }
    let cache = options.cache.open("serving");
    if let Some(cache) = &cache {
        eprintln!("service: caching results under {}", cache.dir().display());
    }
    let config = match service_config(&options.defaults, cache, "", options.remote_deadline_ms) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    let service = Service::new(
        scenarios::registry(),
        ServiceConfig {
            max_active_jobs: options.max_active_jobs,
            ..config
        },
    );
    // Bind TCP listeners up front so `--tcp 127.0.0.1:0` can report the
    // assigned port before the first client tries to connect.
    let mut tcp_listeners = Vec::new();
    let mut unix_paths = Vec::new();
    for transport in &options.transports {
        match transport {
            Transport::Unix(path) => unix_paths.push(path.clone()),
            Transport::Tcp(addr) => match TcpListener::bind(addr) {
                Ok(listener) => {
                    match listener.local_addr() {
                        Ok(addr) => eprintln!("service: listening on tcp {addr}"),
                        Err(_) => eprintln!("service: listening on tcp {addr}"),
                    }
                    tcp_listeners.push(listener);
                }
                Err(error) => {
                    eprintln!("error: cannot bind {addr}: {error}");
                    return ExitCode::FAILURE;
                }
            },
        }
    }
    let failed = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for listener in tcp_listeners {
            let service = &service;
            handles.push(scope.spawn(move || {
                service
                    .serve_tcp(listener, stop)
                    .map_err(|e| format!("tcp serve loop failed: {e}"))
            }));
        }
        for path in &unix_paths {
            let service = &service;
            eprintln!("service: listening on socket {}", path.display());
            handles.push(scope.spawn(move || {
                service
                    .serve_unix(path, stop)
                    .map_err(|e| format!("socket serve loop failed: {e}"))
            }));
        }
        let mut failed = false;
        for handle in handles {
            if let Err(message) = handle.join().expect("serve loop thread") {
                eprintln!("error: {message}");
                failed = true;
            }
        }
        failed
    });
    if failed {
        return ExitCode::FAILURE;
    }
    eprintln!("service: drained cleanly");
    ExitCode::SUCCESS
}

// ----------------------------------------------------------------- submit

const SUBMIT_USAGE: &str = "\
Usage: run_experiments submit [options]

Submits one job to a running `run_experiments serve` daemon, streams its
per-part progress to stderr, and renders the final summary exactly like
a one-shot run (byte-identical stdout / summary.json for a fixed seed).

Options:
  --socket PATH       connect to the daemon's Unix domain socket
  --tcp ADDR          connect to the daemon's TCP address
  --only ID[,ID...]   run only the named scenarios (repeatable)
  --scale quick|full  population scale (default: quick; env ONIONBOTS_FULL=1)
  --seed N            base RNG seed (default: the daemon's default, 2015)
  --set KEY=VALUE     scenario override, repeatable
  --jobs N            workers for this job (default: the daemon's default)
  --backend B         backend for this job: local|process|remote
  --worker ADDR       remote worker host address for this job, repeatable
                      (default: the daemon's configured fleet)
  --threads-per-item T
                      intra-item thread budget: auto or N >= 1
  --refresh           re-execute cached parts and overwrite their entries
  --out DIR           write per-report .json/.csv files and summary.json
  --format FMT        stdout rendering: table (default), csv, json
  --quiet             suppress the per-part progress frames on stderr
  --help              show this help
";

struct SubmitOptions {
    transport: Transport,
    spec: JobSpec,
    rendering: Rendering,
    quiet: bool,
}

fn parse_submit_options(args: &[String]) -> Result<Parsed<SubmitOptions>, String> {
    let mut transport = None;
    let mut rendering = Rendering::default();
    let mut quiet = false;
    let parsed = job_flags::parse(args, JobFlags::All, |flag, args| {
        if let Some(parsed) = transport_flag(flag, args)? {
            transport = Some(parsed);
            return Ok(true);
        }
        match flag {
            "--quiet" => quiet = true,
            _ => return rendering.flag(flag, args),
        }
        Ok(true)
    })?;
    let Parsed::Run(spec) = parsed else {
        return Ok(Parsed::Help);
    };
    let transport =
        transport.ok_or_else(|| "submit needs --socket PATH or --tcp ADDR".to_string())?;
    Ok(Parsed::Run(SubmitOptions {
        transport,
        spec,
        rendering,
        quiet,
    }))
}

fn run_submit(options: &SubmitOptions) -> Result<(), String> {
    let request = Request::Submit(options.spec.clone());
    let mut events = send(&options.transport, &request, "job")?;
    loop {
        let event = next_event(
            &mut events,
            "connection to the service failed",
            "the service closed the connection before the job finished",
        )?;
        match event {
            Event::Accepted { job } => eprintln!("submitted as job {job}"),
            Event::Part { job, event } => {
                if !options.quiet {
                    eprintln!(
                        "job {job}: {}#{} {:?}",
                        event.scenario_id, event.part, event.state
                    );
                }
            }
            Event::Done {
                job,
                summary,
                cache,
            } => {
                if let Some(stats) = cache {
                    eprintln!("cache: {stats}");
                }
                options.rendering.render(&summary)?;
                eprintln!(
                    "job {job} completed: {} scenario(s), {} report(s)",
                    summary.outcomes.len(),
                    summary.report_count()
                );
                return Ok(());
            }
            Event::Error { job, message } => {
                return Err(match job {
                    Some(job) => format!("job {job} failed: {message}"),
                    None => message,
                })
            }
            Event::Rejected { reason } => {
                return Err(format!("the service refused the job: {reason}"))
            }
            Event::Cancelled { job } => {
                return Err(format!(
                    "job {job} was cancelled before completion; no summary was produced"
                ))
            }
            Event::ShuttingDown => {
                return Err("the service is shutting down; the job was not accepted".to_string())
            }
            other => return Err(format!("unexpected frame from the service: {other:?}")),
        }
    }
}

/// The `submit` client entry point.
pub fn submit_main(args: &[String]) -> ExitCode {
    let options = match job_flags::or_exit(parse_submit_options(args), SUBMIT_USAGE) {
        Ok(options) => options,
        Err(code) => return code,
    };
    exit_code(run_submit(&options))
}

// ----------------------------------------------------------------- status

const STATUS_USAGE: &str = "\
Usage: run_experiments status [options]

Queries a running `run_experiments serve` daemon.

Options:
  --socket PATH       connect to the daemon's Unix domain socket
  --tcp ADDR          connect to the daemon's TCP address
  --job N             show only job N (default: every job)
  --list              list the daemon's scenarios instead of its jobs
  --cancel N          cancel running job N: its pending items are drained
                      and nothing is written to the shared cache
  --shutdown          ask the daemon to drain and exit
  --help              show this help

Output is pretty-printed JSON (the job table, the scenario listing, or
a shutdown/cancel acknowledgement).
";

struct StatusOptions {
    transport: Transport,
    request: Request,
}

fn parse_status_options(args: &[String]) -> Result<Parsed<StatusOptions>, String> {
    let mut transport = None;
    let mut job = None;
    let mut list = false;
    let mut cancel = None;
    let mut shutdown = false;
    let parsed = job_flags::parse(args, JobFlags::None, |flag, args| {
        if let Some(parsed) = transport_flag(flag, args)? {
            transport = Some(parsed);
            return Ok(true);
        }
        match flag {
            "--job" => job = Some(args.number::<u64>(flag)?),
            "--list" => list = true,
            "--cancel" => cancel = Some(args.number::<u64>(flag)?),
            "--shutdown" => shutdown = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if let Parsed::Help = parsed {
        return Ok(Parsed::Help);
    }
    let transport =
        transport.ok_or_else(|| "status needs --socket PATH or --tcp ADDR".to_string())?;
    let request = if shutdown {
        Request::Shutdown
    } else if let Some(job) = cancel {
        Request::Cancel { job }
    } else if list {
        Request::List
    } else {
        Request::Status { job }
    };
    Ok(Parsed::Run(StatusOptions { transport, request }))
}

fn run_status(options: &StatusOptions) -> Result<(), String> {
    let first = request_one(&options.transport, &options.request)?;
    match first {
        Event::Jobs(jobs) => println!(
            "{}",
            serde_json::to_string_pretty(&jobs).expect("job table serializes")
        ),
        Event::Scenarios(infos) => println!(
            "{}",
            serde_json::to_string_pretty(&infos).expect("scenario listing serializes")
        ),
        Event::ShuttingDown => eprintln!("service acknowledged shutdown; draining"),
        Event::Cancelled { job } => eprintln!("job {job} cancelled; its pending items are drained"),
        Event::Error { message, .. } => return Err(message),
        other => return Err(format!("unexpected frame from the service: {other:?}")),
    }
    Ok(())
}

/// The `status` client entry point.
pub fn status_main(args: &[String]) -> ExitCode {
    let options = match job_flags::or_exit(parse_status_options(args), STATUS_USAGE) {
        Ok(options) => options,
        Err(code) => return code,
    };
    exit_code(run_status(&options))
}

/// Exit 0 on success; otherwise the error on stderr and exit 1.
fn exit_code(outcome: Result<(), String>) -> ExitCode {
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::ThreadsSpec;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn run<T>(parsed: Result<Parsed<T>, String>) -> Result<T, String> {
        parsed.map(|parsed| match parsed {
            Parsed::Run(options) => options,
            Parsed::Help => panic!("unexpected help"),
        })
    }

    fn one_shot(list: &[&str]) -> Result<RunOptions, String> {
        run(parse_run_options(&args(list)))
    }

    fn serve(list: &[&str]) -> Result<ServeOptions, String> {
        run(parse_serve_options(&args(list)))
    }

    fn submit(list: &[&str]) -> Result<SubmitOptions, String> {
        run(parse_submit_options(&args(list)))
    }

    fn status(list: &[&str]) -> Result<StatusOptions, String> {
        run(parse_status_options(&args(list)))
    }

    #[test]
    fn serve_options_require_a_transport_and_parse_knobs() {
        assert!(serve(&[]).is_err());
        let options = serve(&[
            "--socket",
            "/tmp/svc.sock",
            "--tcp",
            "127.0.0.1:0",
            "--jobs",
            "4",
            "--backend",
            "process",
            "--threads-per-item",
            "2",
            "--max-jobs",
            "2",
            "--remote-deadline-ms",
            "3000",
            "--no-cache",
        ])
        .unwrap();
        assert_eq!(options.transports.len(), 2);
        assert_eq!(options.defaults.jobs, Some(4));
        assert_eq!(options.defaults.backend, Some(BackendSpec::Process));
        assert_eq!(
            options.defaults.threads_per_item,
            Some(ThreadsPerItem::Fixed(2))
        );
        assert_eq!(options.max_active_jobs, 2);
        assert_eq!(options.remote_deadline_ms, Some(3000));
        assert!(options.cache.no_cache);
        let defaults = serve(&["--socket", "/tmp/svc.sock"]).unwrap();
        assert_eq!(
            defaults.max_active_jobs,
            sim::service::DEFAULT_MAX_ACTIVE_JOBS
        );
        assert_eq!(defaults.remote_deadline_ms, None);
        assert!(serve(&["--socket"]).is_err());
        assert!(serve(&["--socket", "p", "--backend", "warp"]).is_err());
        assert!(serve(&["--socket", "p", "--max-jobs", "0"]).is_err());
        assert!(serve(&["--socket", "p", "--remote-deadline-ms", "never"]).is_err());
    }

    #[test]
    fn submit_options_build_the_job_spec() {
        let options = submit(&[
            "--socket",
            "/tmp/svc.sock",
            "--only",
            "fig6,fig4",
            "--seed",
            "99",
            "--set",
            "steps=2",
            "--scale",
            "full",
            "--jobs",
            "3",
            "--backend",
            "local",
            "--threads-per-item",
            "auto",
            "--refresh",
            "--format",
            "json",
            "--quiet",
        ])
        .unwrap();
        assert_eq!(
            options.spec.only,
            Some(vec!["fig6".to_string(), "fig4".to_string()])
        );
        assert_eq!(options.spec.seed, Some(99));
        assert_eq!(options.spec.full_scale, Some(true));
        assert_eq!(
            options.spec.overrides.as_ref().unwrap().get("steps"),
            Some(&"2".to_string())
        );
        assert_eq!(options.spec.jobs, Some(3));
        assert_eq!(options.spec.backend, Some(BackendSpec::Local));
        assert_eq!(options.spec.threads_per_item, Some(ThreadsSpec::Auto));
        assert_eq!(options.spec.refresh, Some(true));
        assert_eq!(options.rendering.format, Format::Json);
        assert!(options.quiet);
        // Defaults: an empty flag set is a bare full-registry submission.
        let bare = submit(&["--tcp", "127.0.0.1:7415"]).unwrap();
        assert_eq!(bare.spec, JobSpec::default());
        assert!(submit(&["--seed", "1"]).is_err(), "no transport");
    }

    #[test]
    fn status_options_select_the_request() {
        let plain = status(&["--socket", "/tmp/s"]).unwrap();
        assert_eq!(plain.request, Request::Status { job: None });
        let one = status(&["--socket", "/tmp/s", "--job", "7"]).unwrap();
        assert_eq!(one.request, Request::Status { job: Some(7) });
        let list = status(&["--socket", "/tmp/s", "--list"]).unwrap();
        assert_eq!(list.request, Request::List);
        let stop = status(&["--socket", "/tmp/s", "--shutdown"]).unwrap();
        assert_eq!(stop.request, Request::Shutdown);
        let cancel = status(&["--socket", "/tmp/s", "--cancel", "3"]).unwrap();
        assert_eq!(cancel.request, Request::Cancel { job: 3 });
        assert!(status(&["--socket", "/tmp/s", "--cancel", "x"]).is_err());
        assert!(status(&["--job", "1"]).is_err(), "no transport");
        assert!(status(&["--socket", "/tmp/s", "--job", "x"]).is_err());
        assert!(status(&["--socket", "/tmp/s", "--jobs", "1"]).is_err());
    }

    /// Job flags both the one-shot run and `submit` accept.
    const JOB_FLAG_SETS: &[&[&str]] = &[
        &[],
        &["--only", "fig6", "--jobs", "2", "--seed", "7"],
        &["--only", "fig6,fig4", "--only", "table1", "--scale", "full"],
        &[
            "--scale=full",
            "--quick",
            "--set",
            "steps=5",
            "--set",
            "k=6",
        ],
        &["--full", "--refresh", "--threads-per-item", "auto"],
        &[
            "--backend",
            "process",
            "--threads-per-item",
            "3",
            "--jobs",
            "4",
        ],
        &["--backend", "remote", "--worker", "a:1", "--worker", "b:2"],
        &["--backend", "local", "--seed", "18446744073709551615"],
    ];

    #[test]
    fn one_shot_and_submit_build_equal_job_specs() {
        for flags in JOB_FLAG_SETS {
            let local = one_shot(flags).unwrap().spec;
            let mut remote = vec!["--socket", "/tmp/svc.sock"];
            remote.extend_from_slice(flags);
            assert_eq!(submit(&remote).unwrap().spec, local, "{flags:?}");
        }
    }

    #[test]
    fn serve_takes_only_the_execution_flags() {
        for flag in [
            "--seed",
            "--set",
            "--only",
            "--refresh",
            "--scale",
            "--full",
        ] {
            let error = serve(&["--socket", "p", flag, "1"]).err();
            assert_eq!(error, Some(format!("unknown option '{flag}'")), "{flag}");
        }
        let options = serve(&["--socket", "p", "--worker", "a:1", "--worker", "b:2"]).unwrap();
        assert_eq!(
            options.defaults,
            JobSpec {
                workers: Some(vec!["a:1".to_string(), "b:2".to_string()]),
                ..JobSpec::default()
            }
        );
    }

    #[test]
    fn one_shot_validation_errors() {
        for (flags, expected) in [
            (&["--json"][..], "--json is only valid together with --list"),
            (
                &["--backend", "remote"],
                "--backend remote requires at least one --worker ADDR",
            ),
            (
                &["--worker", "a:1"],
                "--worker is only valid together with --backend remote",
            ),
            (
                &["--backend", "process", "--worker", "a:1"],
                "--worker is only valid together with --backend remote",
            ),
            (
                &["--remote-deadline-ms", "5"],
                "--remote-deadline-ms is only valid together with --backend remote",
            ),
            (
                &[
                    "--backend",
                    "remote",
                    "--worker",
                    "a:1",
                    "--remote-deadline-ms",
                    "0",
                ],
                "invalid --remote-deadline-ms value '0' (MS >= 1)",
            ),
            (&["--faults", "no.such.point=err@1"], "unknown failpoint"),
            (
                &["--format", "xml"],
                "unknown --format 'xml' (table|csv|json)",
            ),
            (&["full"], "unknown option 'full'"),
            (&["--quiet"], "unknown option '--quiet'"),
            (&["--socket", "p"], "unknown option '--socket'"),
        ] {
            let error = one_shot(flags).unwrap_err();
            assert!(error.contains(expected), "{flags:?}: {error}");
        }
        let options = one_shot(&[
            "--list",
            "--json",
            "--out",
            "o",
            "--format",
            "csv",
            "--cache-dir",
            "c",
            "--no-cache",
        ])
        .unwrap();
        assert!(options.list && options.json && options.cache.no_cache);
        assert_eq!(options.cache.dir.as_deref(), Some("c"));
        assert_eq!(options.rendering.out.as_deref(), Some("o"));
        assert_eq!(options.rendering.format, Format::Csv);
        let remote = one_shot(&[
            "--backend",
            "remote",
            "--worker",
            "a:1",
            "--remote-deadline-ms",
            "250",
        ])
        .unwrap();
        assert_eq!(remote.remote_deadline_ms, Some(250));
    }

    #[test]
    fn help_is_a_parse_outcome_of_every_front_end() {
        for flag in ["--help", "-h"] {
            let list = args(&["--jobs", "2", flag]);
            assert!(matches!(parse_run_options(&list), Ok(Parsed::Help)));
            assert!(matches!(parse_serve_options(&list), Ok(Parsed::Help)));
            assert!(matches!(parse_submit_options(&list), Ok(Parsed::Help)));
            let list = args(&[flag]);
            assert!(matches!(parse_status_options(&list), Ok(Parsed::Help)));
        }
    }

    #[test]
    fn connecting_to_a_missing_socket_is_a_clean_error() {
        let transport = Transport::Unix(PathBuf::from("/nonexistent/service.sock"));
        let error = match connect(&transport) {
            Ok(_) => panic!("connected to a nonexistent socket"),
            Err(error) => error,
        };
        assert!(error.contains("cannot connect"), "{error}");
    }
}
