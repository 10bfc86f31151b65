//! Child processes, scratch directories and the run watchdog.
//!
//! Every process the benchmark starts and every scratch directory it
//! creates is registered here, so each exit path — normal return, panic
//! or the watchdog firing on a hung run — kills and reaps the processes
//! and removes the directories.

use std::io::{BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::clock;

static CHILDREN: Mutex<Vec<Child>> = Mutex::new(Vec::new());
static DIRS: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());

/// Where runs keep scratch state, traces and result records (relative
/// to the checkout root, ignored by git).
pub const WORK_DIR: &str = "perfbench/work";

/// Spawns `command` with stdin closed and stderr sent to `log` (or
/// discarded), returning its pid and its stdout pipe. The child leads a
/// new process group, so killing it also kills what it started (the
/// daemon's process-backend workers).
pub fn spawn(command: &mut Command, log: Option<&Path>) -> std::io::Result<(u32, ChildStdout)> {
    let stderr = match log {
        Some(path) => Stdio::from(std::fs::File::create(path)?),
        None => Stdio::null(),
    };
    let mut child = command
        .process_group(0)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(stderr)
        .spawn()?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let pid = child.id();
    lock(&CHILDREN).push(child);
    Ok((pid, stdout))
}

/// Reads the first stdout line of a child (e.g. a worker host's bound
/// address) on a helper thread, giving up after `timeout`. The helper
/// keeps draining the pipe so the child never blocks on it, and ends
/// when the child's stdout closes; join it after the child is reaped.
pub fn first_line(
    stdout: ChildStdout,
    timeout: Duration,
) -> (Option<String>, std::thread::JoinHandle<()>) {
    let (tx, rx) = std::sync::mpsc::channel();
    let drain = std::thread::spawn(move || {
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        let ok = reader.read_line(&mut line).is_ok_and(|n| n > 0);
        let _ = tx.send(ok.then(|| line.trim().to_string()));
        let mut sink = Vec::new();
        let _ = std::io::Read::read_to_end(&mut reader, &mut sink);
    });
    (rx.recv_timeout(timeout).ok().flatten(), drain)
}

/// Waits up to `timeout` for child `pid` to exit on its own; kills it
/// otherwise. Returns whether it exited by itself.
pub fn reap(pid: u32, timeout: Duration) -> bool {
    let deadline = clock::now() + timeout;
    loop {
        {
            let mut children = lock(&CHILDREN);
            let Some(index) = children.iter().position(|c| c.id() == pid) else {
                return true;
            };
            if let Ok(Some(_)) = children[index].try_wait() {
                // Already reaped by `try_wait`; this only collects the status.
                let _ = children.remove(index).wait();
                return true;
            }
            if clock::now() >= deadline {
                let mut child = children.remove(index);
                kill_group(&mut child);
                return false;
            }
        }
        clock::pause(Duration::from_millis(5));
    }
}

/// Kills and reaps child `pid` at once.
pub fn kill(pid: u32) {
    reap(pid, Duration::ZERO);
}

/// Kills and reaps every registered child and removes every registered
/// directory.
pub fn cleanup_all() {
    let children: Vec<Child> = lock(&CHILDREN).drain(..).collect();
    for mut child in children {
        kill_group(&mut child);
    }
    let dirs: Vec<PathBuf> = lock(&DIRS).drain(..).collect();
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// SIGKILLs the child's whole process group, then reaps the child.
fn kill_group(child: &mut Child) {
    let _ = Command::new("kill")
        .args(["-KILL", "--", &format!("-{}", child.id())])
        .stderr(Stdio::null())
        .status();
    let _ = child.kill();
    let _ = child.wait();
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Registries stay valid at every step, so a panicked holder leaves
    // nothing half-updated.
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A scratch directory under [`WORK_DIR`], removed on drop and by
/// [`cleanup_all`]. Its path stays relative to the checkout root, which
/// keeps Unix socket paths inside it short.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn new(label: &str) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = Path::new(WORK_DIR).join(format!(
            "tmp-{label}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        lock(&DIRS).push(path.clone());
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        lock(&DIRS).retain(|d| d != &self.path);
    }
}

/// Ends the whole run with exit code 3 once `limit` has passed, after
/// cleaning up: a hung daemon, host or worker can never leave a stuck
/// benchmark behind.
pub fn start_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        clock::pause(limit);
        eprintln!(
            "perfbench: watchdog: run exceeded {:.0} s; stopping every child and exiting",
            limit.as_secs_f64()
        );
        cleanup_all();
        std::process::exit(3);
    });
}

/// Resets this process's `VmHWM` to its current resident set (Linux
/// `clear_refs` value 5), so the next reading is the peak of what
/// follows.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Measures how much CPU time the hypervisor stole from this machine
/// over an interval (the `steal` column of `/proc/stat`). Stolen time
/// stretches every timing taken meanwhile, so result records keep it per
/// round to tell host interference from a real slowdown.
pub struct StealMeter(Option<(u64, u64)>);

impl StealMeter {
    pub fn start() -> Self {
        StealMeter(cpu_ticks())
    }

    /// Stolen share of all CPU time since [`start`](Self::start).
    pub fn share(&self) -> f64 {
        match (self.0, cpu_ticks()) {
            (Some((steal0, total0)), Some((steal1, total1))) if total1 > total0 => {
                (steal1 - steal0) as f64 / (total1 - total0) as f64
            }
            _ => 0.0,
        }
    }
}

/// `(steal, total)` clock ticks of the aggregate `cpu` line.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().unwrap_or(0))
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Peak resident set (`VmHWM`) of process `pid` in MB, from procfs.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
