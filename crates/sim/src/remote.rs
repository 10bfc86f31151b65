//! The one dispatcher behind both out-of-process backends, and the one
//! serve loop their workers run.
//!
//! A worker is a *host on a byte channel*. For
//! [`ProcessExecutor`](crate::executor::ProcessExecutor) the channel is
//! a spawned worker subprocess's stdin/stdout; for [`RemoteExecutor`] it
//! is a TCP connection to a `serve-worker` host. Both speak the same
//! NDJSON frames ([`crate::wire`]), embedding the exact
//! [`WorkItem`]/[`PartResult`] objects:
//!
//! | direction | frame | meaning |
//! |---|---|---|
//! | dispatcher → worker | `Hello { protocol }` | open a work channel |
//! | worker → dispatcher | `Welcome { protocol }` | versions match, send work |
//! | worker → dispatcher | `Reject { reason }` | refused (version skew, …) |
//! | dispatcher → worker | `Assign(WorkItem)` | execute one item |
//! | worker → dispatcher | `Completed(PartResult)` | the item's result |
//!
//! Only how a channel is opened differs between the backends (a
//! [`Transport`]: spawn `jobs` copies of a command, or connect to each
//! configured address); everything else is one dispatch loop. It is
//! **work-stealing**: one dispatcher thread per channel slot pulls items
//! off a shared pending queue, so a slow worker never stalls the run —
//! it just steals fewer items. A worker that dies mid-item has the item
//! re-queued for the surviving slots; deaths of *fresh* channels (no
//! completed items) charge the item's bounded retry budget, and retried
//! items back off with a bounded exponential pause whose jitter derives
//! deterministically from the item fingerprint (no ambient randomness).
//! A run fails instead of looping when an item keeps killing fresh
//! channels or when every worker is gone with work still queued, and
//! results dedup on the item **fingerprint**, so a re-queued item is
//! never merged twice. Before a slot takes an item off the queue it asks
//! the observer whether the run was cancelled; once it was, no further
//! item is assigned and the run fails with [`ExecutorError::cancelled`].
//!
//! Determinism is inherited, not re-argued: workers compute parts with
//! [`run_work_item`] (per-part seed, `threads` budget scoped around the
//! part), the cache pass sits above the backend, and the `Runner`
//! reassembles results in `(scenario, part)` order — so `RunSummary` is
//! byte-identical to `--backend local` at any worker count, including
//! under mid-run worker kills.
//!
//! **Where reads can time out, no call blocks forever.** TCP channels
//! are opened with [`TcpStream::connect_timeout`] and carry a socket
//! read timeout of [`REMOTE_READ_POLL_MS`]; each reply is bounded by a
//! per-item deadline enforced by *counting* [`Frame::Idle`] polls (never
//! by reading a wall clock — detlint rule D002). A host that accepts TCP
//! but never replies is abandoned after the deadline and its item
//! re-queued on the survivors. Child pipes never time out, so the
//! process backend has no deadline. The `remote.connect`/`remote.read`
//! failpoints ([`crate::faults`]) sit on the TCP dispatcher side;
//! `worker.item` and `remote.host.item` are the serve loop's
//! per-assignment failpoint on a process worker and on a host.

// Wire code faces untrusted bytes: panicking extractors are banned here
// (the test module opts back in, where a panic is the failure report).
#![deny(clippy::unwrap_used)]

use std::collections::{BTreeSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::executor::{
    run_work_item, ExecutionObserver, Executor, ExecutorError, PartResult, WorkItem,
    DEFAULT_MAX_ITEM_RETRIES,
};
use crate::faults;
use crate::scenario_api::Scenario;
use crate::wire::{self, Frame, FrameReader};

/// Version of the dispatcher↔worker wire protocol. Part of the
/// handshake: a worker refuses a dispatcher whose version differs, which
/// fails the run up front instead of corrupting it halfway through.
pub const REMOTE_PROTOCOL_VERSION: u32 = 1;

/// How long one connection attempt to a worker host may take before the
/// host counts as unreachable.
pub const REMOTE_CONNECT_TIMEOUT_MS: u64 = 5_000;

/// Socket read timeout bounding every blocking read on a host channel.
/// Reads poll at this granularity while waiting out the per-reply
/// deadline, so the deadline is enforced by counting polls instead of
/// reading a wall clock.
pub const REMOTE_READ_POLL_MS: u64 = 200;

/// Default per-reply deadline: a host that has not answered an
/// assignment (or the handshake) within this budget is abandoned and
/// its in-flight item re-queued on the surviving hosts. Deliberately
/// generous — a deadline shorter than the slowest legitimate item would
/// turn a healthy fleet into serial re-queueing; tune it down per run
/// with [`RemoteExecutor::deadline_millis`] (`--remote-deadline-ms`).
pub const DEFAULT_REMOTE_DEADLINE_MS: u64 = 60_000;

/// Ceiling on one retry-backoff pause, so retries stay exponential only
/// up to a bounded, test-friendly cap.
const BACKOFF_CAP_MS: u64 = 500;

/// How long a retried item's dispatcher thread pauses before re-queueing
/// it: bounded exponential in the charged retry count, with jitter
/// folded in deterministically from the item's fingerprint bytes (two
/// colliding items desynchronize without any ambient randomness).
fn retry_backoff_millis(fingerprint: &str, retries: usize) -> u64 {
    let base = 10u64.saturating_mul(1 << retries.min(5) as u32);
    let jitter = fingerprint.bytes().fold(0u64, |acc, b| {
        acc.wrapping_mul(31).wrapping_add(u64::from(b))
    }) % base.max(1);
    (base + jitter).min(BACKOFF_CAP_MS)
}

/// Is this error a bounded-read timeout (the deadline machinery), as
/// opposed to a dead or misbehaving peer?
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
    )
}

/// The shared dispatch queue plus the in-flight ledger that makes the
/// work-stealing termination protocol sound. An idle dispatcher thread
/// may only exit when the queue is empty AND nothing is in flight:
/// otherwise a dying worker could re-queue its in-flight item after
/// every survivor already went home, stranding the item with live
/// workers available (the race the in-flight count exists to close).
/// Threads with nothing to steal park on the paired [`Condvar`] and are
/// woken by every re-queue, every settled item and every fatal error.
struct DispatchQueue {
    pending: VecDeque<(WorkItem, usize)>,
    in_flight: usize,
}

/// Frames the dispatcher sends to a worker (one JSON object per line).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DispatchFrame {
    /// Opens a work channel; must be the first frame on a connection.
    Hello {
        /// The dispatcher's [`REMOTE_PROTOCOL_VERSION`].
        protocol: u32,
    },
    /// Assigns one work item; the worker answers with
    /// [`WorkerFrame::Completed`].
    Assign(WorkItem),
}

/// Frames a worker sends back to the dispatcher (one JSON object per
/// line).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkerFrame {
    /// Handshake accepted; the worker will serve assignments.
    Welcome {
        /// The worker's [`REMOTE_PROTOCOL_VERSION`].
        protocol: u32,
    },
    /// Handshake refused; the worker closes the channel after this.
    Reject {
        /// Human-readable refusal cause (version skew, bad hello, …).
        reason: String,
    },
    /// One assignment's result, echoing the item's identity.
    Completed(PartResult),
}

/// A freshly opened byte channel to one worker, before the handshake.
pub(crate) struct Link {
    /// Where the worker's frames arrive.
    pub(crate) reader: Box<dyn Read + Send>,
    /// Where assignments go. Dropping it closes the channel (and, for a
    /// subprocess, reaps the worker).
    pub(crate) writer: Box<dyn Write + Send>,
}

/// How a backend opens channels to its workers — the only part of
/// dispatch that differs between the process and remote backends.
pub(crate) trait Transport: Sync {
    /// How a failed first open is phrased before the peer's name:
    /// `cannot spawn`, `cannot connect to`.
    const OPEN_FAILED: &'static str;
    /// Failpoint hit after each assignment is sent, before its reply is
    /// read.
    const READ_POINT: Option<&'static str> = None;
    /// Dispatcher slots: one thread and at most one open channel each.
    fn slots(&self) -> usize;
    /// Names slot `slot`'s worker in messages, e.g.
    /// `worker host '127.0.0.1:7461'`.
    fn peer(&self, slot: usize) -> String;
    /// Opens a fresh channel for `slot` (spawn or connect).
    fn open(&self, slot: usize) -> io::Result<Link>;
}

/// Why opening a channel did not produce a usable one — the two cases
/// have opposite consequences for the run.
enum ConnectFailure {
    /// The worker cannot be reached or vanished mid-handshake. Fatal on
    /// a slot's first attempt (a configured worker must exist when the
    /// run starts); mere worker loss on a reopen, where the other slots
    /// absorb the queue.
    Dead(io::Error),
    /// The worker answered and refused us (version skew, not speaking
    /// the protocol at all). Always fatal: a misconfigured worker would
    /// silently absorb retries otherwise.
    Refused(String),
}

/// A live, handshaken work channel to one worker.
struct Channel {
    reader: FrameReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
    /// Items this channel answered successfully — distinguishes a worker
    /// that dies on its very first item (the item is suspect) from one
    /// that wears out after completing work (the item is innocent).
    completed: usize,
    /// Per-reply deadline in [`REMOTE_READ_POLL_MS`] polls; `None` where
    /// reads never time out.
    deadline_polls: Option<u64>,
}

impl Channel {
    fn open<T: Transport>(
        transport: &T,
        slot: usize,
        deadline_polls: Option<u64>,
    ) -> Result<Channel, ConnectFailure> {
        let link = transport.open(slot).map_err(ConnectFailure::Dead)?;
        let mut channel = Channel {
            reader: FrameReader::new(link.reader),
            writer: link.writer,
            completed: 0,
            deadline_polls,
        };
        let hello = DispatchFrame::Hello {
            protocol: REMOTE_PROTOCOL_VERSION,
        };
        wire::write_frame(&mut channel.writer, &hello).map_err(ConnectFailure::Dead)?;
        match channel.recv() {
            Ok(WorkerFrame::Welcome { protocol }) if protocol == REMOTE_PROTOCOL_VERSION => {
                Ok(channel)
            }
            Ok(WorkerFrame::Welcome { protocol }) => Err(ConnectFailure::Refused(format!(
                "speaks remote protocol v{protocol}, this dispatcher speaks v{REMOTE_PROTOCOL_VERSION}"
            ))),
            Ok(WorkerFrame::Reject { reason }) => Err(ConnectFailure::Refused(reason)),
            Ok(WorkerFrame::Completed(_)) => Err(ConnectFailure::Refused(
                "answered the handshake with a result frame".to_string(),
            )),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => Err(ConnectFailure::Refused(
                format!("sent an unusable handshake reply: {e}"),
            )),
            Err(e) => Err(ConnectFailure::Dead(e)),
        }
    }

    /// Reads one frame under the per-reply deadline: every
    /// [`Frame::Idle`] (a socket read timeout) is one counted poll, so a
    /// worker that stops answering surfaces a `TimedOut` error after
    /// `deadline_polls` polls instead of wedging the dispatcher thread.
    fn recv(&mut self) -> io::Result<WorkerFrame> {
        let mut polls: u64 = 0;
        loop {
            match self.reader.read_frame()? {
                Frame::Line(line) => {
                    return serde_json::from_str(&line).map_err(|e| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("unparseable frame: {e}"),
                        )
                    })
                }
                Frame::Eof => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "the worker closed the channel",
                    ))
                }
                Frame::Idle => {
                    polls += 1;
                    if let Some(limit) = self.deadline_polls.filter(|&limit| polls >= limit) {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!(
                                "no reply within the {} ms deadline",
                                limit * REMOTE_READ_POLL_MS
                            ),
                        ));
                    }
                }
            }
        }
    }

    /// Sends one assignment and reads its result, skipping stale repeats
    /// of results the `merged` ledger already holds. Any error means the
    /// channel is unusable and must be replaced.
    fn assign<T: Transport>(
        &mut self,
        item: &WorkItem,
        merged: &Mutex<BTreeSet<String>>,
    ) -> io::Result<PartResult> {
        wire::write_frame(&mut self.writer, &DispatchFrame::Assign(item.clone()))?;
        T::READ_POINT.map_or(Ok(()), faults::hit_io)?;
        loop {
            let WorkerFrame::Completed(result) = self.recv()? else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "handshake frame mid-run",
                ));
            };
            let stale = result.fingerprint != item.fingerprint
                && merged
                    .lock()
                    .expect("merged lock")
                    .contains(&result.fingerprint);
            if !stale {
                return Ok(result);
            }
            eprintln!(
                "warning: dropped a stale repeat of {}#{}'s result",
                result.scenario_id, result.part
            );
        }
    }
}

/// Runs `items` on the workers `transport` opens: the one dispatch loop
/// of the process and remote backends (module docs). `deadline_ms`
/// bounds each reply where the transport's reads time out; pass `None`
/// for transports whose reads never do. One item may kill at most
/// [`DEFAULT_MAX_ITEM_RETRIES`] fresh channels.
pub(crate) fn dispatch<T: Transport>(
    transport: &T,
    items: Vec<WorkItem>,
    observer: &dyn ExecutionObserver,
    deadline_ms: Option<u64>,
) -> Result<Vec<PartResult>, ExecutorError> {
    if items.is_empty() {
        return Ok(Vec::new());
    }
    let total = items.len();
    let slots = transport.slots().min(total);
    let deadline_polls = deadline_ms.map(|ms| ms.div_ceil(REMOTE_READ_POLL_MS).max(1));
    let queue: Mutex<DispatchQueue> = Mutex::new(DispatchQueue {
        pending: items.into_iter().map(|item| (item, 0)).collect(),
        in_flight: 0,
    });
    let wake = Condvar::new();
    let results: Mutex<Vec<PartResult>> = Mutex::new(Vec::new());
    // Fingerprints already merged — the dedup ledger that guarantees a
    // re-queued item can never land twice.
    let merged: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());
    let fatal: Mutex<Option<ExecutorError>> = Mutex::new(None);
    // An item leaves a thread's hands one of exactly two ways; both wake
    // the parked stealers so the termination condition (empty queue,
    // nothing in flight) is re-evaluated.
    let requeue = |item: WorkItem, retries: usize| {
        let mut state = queue.lock().expect("queue lock");
        state.pending.push_back((item, retries));
        state.in_flight -= 1;
        wake.notify_all();
    };
    let settle = || {
        queue.lock().expect("queue lock").in_flight -= 1;
        wake.notify_all();
    };
    // Fails the run over the item in hand; parked stealers re-check the
    // fatal flag on every wake-up.
    let fail = |message: String| {
        fatal
            .lock()
            .expect("fatal lock")
            .get_or_insert(ExecutorError::new(message));
        settle();
    };
    std::thread::scope(|scope| {
        for slot in 0..slots {
            let (queue, wake, results, merged) = (&queue, &wake, &results, &merged);
            let (fail, requeue, settle, fatal) = (&fail, &requeue, &settle, &fatal);
            scope.spawn(move || {
                let peer = transport.peer(slot);
                let mut channel: Option<Channel> = None;
                let mut ever_connected = false;
                loop {
                    if fatal.lock().expect("fatal lock").is_some() {
                        break;
                    }
                    let next = {
                        let mut state = queue.lock().expect("queue lock");
                        loop {
                            if !state.pending.is_empty() && observer.cancelled() {
                                let cancelled =
                                    ExecutorError::cancelled(state.pending.len(), total);
                                fatal.lock().expect("fatal lock").get_or_insert(cancelled);
                                wake.notify_all();
                                break None;
                            }
                            if let Some(entry) = state.pending.pop_front() {
                                state.in_flight += 1;
                                break Some(entry);
                            }
                            if state.in_flight == 0 {
                                // Drained for good: nothing queued and
                                // nothing left that could re-queue.
                                break None;
                            }
                            // Another slot holds the remaining items; if
                            // its worker dies they come back here. Park
                            // until a re-queue, a settle or a fatal.
                            state = wake.wait(state).expect("queue lock");
                            if fatal.lock().expect("fatal lock").is_some() {
                                break None;
                            }
                        }
                    };
                    let Some((item, retries)) = next else {
                        break;
                    };
                    let mut active = match channel.take() {
                        Some(open) => open,
                        None => match Channel::open(transport, slot, deadline_polls) {
                            Ok(opened) => {
                                ever_connected = true;
                                opened
                            }
                            Err(ConnectFailure::Refused(reason)) => {
                                fail(format!("{peer} refused the dispatcher: {reason}"));
                                break;
                            }
                            // A worker that accepts TCP but never answers
                            // the handshake is *hung*, not misconfigured:
                            // abandon it and let the survivors drain the
                            // queue, even on the very first attempt.
                            Err(ConnectFailure::Dead(e)) if ever_connected || is_timeout(&e) => {
                                eprintln!(
                                    "warning: {peer} is gone ({e}); re-queueing {}#{} for the remaining workers",
                                    item.scenario_id, item.part
                                );
                                requeue(item, retries);
                                break;
                            }
                            Err(ConnectFailure::Dead(e)) => {
                                fail(format!("{} {peer}: {e}", T::OPEN_FAILED));
                                break;
                            }
                        },
                    };
                    observer.item_started(&item);
                    match active.assign::<T>(&item, merged) {
                        Ok(result) => {
                            if let Some(error) = &result.error {
                                fail(format!(
                                    "{peer} failed on {}#{}: {error}",
                                    item.scenario_id, item.part
                                ));
                                break;
                            }
                            if result.scenario_id != item.scenario_id
                                || result.part != item.part
                                || result.fingerprint != item.fingerprint
                            {
                                fail(format!(
                                    "{peer} answered {}#{} with a result for {}#{} (protocol error)",
                                    item.scenario_id, item.part, result.scenario_id, result.part
                                ));
                                break;
                            }
                            active.completed += 1;
                            let first_landing = merged
                                .lock()
                                .expect("merged lock")
                                .insert(result.fingerprint.clone());
                            if first_landing {
                                observer.item_finished(&result);
                                results.lock().expect("results lock").push(result);
                            } else {
                                eprintln!(
                                    "warning: dropped a duplicate result for {}#{} from {peer} (fingerprint already merged)",
                                    item.scenario_id, item.part
                                );
                            }
                            settle();
                            channel = Some(active);
                        }
                        Err(e) if is_timeout(&e) => {
                            // Per-item deadline: the worker is hung
                            // (connected, silent). Abandon it — a late
                            // reply on this channel would desync the
                            // framing anyway — re-queue the item on the
                            // survivors and end this thread. No retry
                            // charge: the worker is at fault, not the
                            // item.
                            drop(active);
                            eprintln!(
                                "warning: {peer} hit the per-item deadline on {}#{} ({e}); re-queueing for the remaining workers",
                                item.scenario_id, item.part
                            );
                            requeue(item, retries);
                            break;
                        }
                        Err(e) => {
                            // The channel is gone or confused: drop it,
                            // re-queue the in-flight item and reopen
                            // lazily on the next iteration. Only deaths
                            // of *fresh* channels (no completed items)
                            // are charged to the item — a toxic item
                            // kills every fresh worker it meets, while a
                            // worker wearing out after completed work
                            // says nothing about the item it held.
                            let fresh_death = active.completed == 0;
                            drop(active);
                            let retries = retries + usize::from(fresh_death);
                            if retries > DEFAULT_MAX_ITEM_RETRIES {
                                fail(format!(
                                    "{}#{} killed {retries} fresh worker channel(s) ({e}); giving up",
                                    item.scenario_id, item.part
                                ));
                                break;
                            }
                            let pause = retry_backoff_millis(&item.fingerprint, retries);
                            eprintln!(
                                "warning: {peer} failed while running {}#{} ({e}); re-queueing after {pause} ms ({retries}/{DEFAULT_MAX_ITEM_RETRIES} charged retries)",
                                item.scenario_id, item.part
                            );
                            // detlint: allow(D002) reason="bounded retry backoff; the pause is deterministic (fingerprint-derived) and its duration never feeds back into any output"
                            std::thread::sleep(Duration::from_millis(pause));
                            requeue(item, retries);
                        }
                    }
                }
                // Dropping the channel closes it; the worker sees EOF.
            });
        }
    });
    if let Some(error) = fatal.into_inner().expect("fatal lock") {
        return Err(error);
    }
    let stranded = queue.into_inner().expect("queue lock").pending.len();
    if stranded > 0 {
        return Err(ExecutorError::new(format!(
            "all {slots} worker channel(s) are gone with {stranded} of {total} item(s) still queued"
        )));
    }
    Ok(results.into_inner().expect("results lock"))
}

/// The multi-host backend: dispatches work items to a fleet of
/// [`serve_remote_host`] worker hosts over TCP, one dispatcher slot per
/// configured address, through the shared dispatch loop (module docs).
/// A host that is unreachable when the run starts, or that rejects the
/// handshake (version skew), fails the run immediately.
pub struct RemoteExecutor {
    workers: Vec<String>,
    deadline_ms: u64,
}

impl RemoteExecutor {
    /// Creates a remote executor dispatching to `workers` (socket
    /// addresses like `127.0.0.1:7461`; list an address twice for two
    /// concurrent channels to the same host).
    pub fn new(workers: Vec<String>) -> Self {
        RemoteExecutor {
            workers,
            deadline_ms: DEFAULT_REMOTE_DEADLINE_MS,
        }
    }

    /// Sets the per-reply deadline in milliseconds (clamped to at least
    /// one read poll). A host that has not answered within this budget
    /// is abandoned and its item re-queued on the surviving hosts.
    #[must_use]
    pub fn deadline_millis(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = deadline_ms.max(REMOTE_READ_POLL_MS);
        self
    }
}

impl Transport for RemoteExecutor {
    const OPEN_FAILED: &'static str = "cannot connect to";
    const READ_POINT: Option<&'static str> = Some(faults::points::REMOTE_READ);

    fn slots(&self) -> usize {
        self.workers.len()
    }

    fn peer(&self, slot: usize) -> String {
        format!("worker host '{}'", self.workers[slot])
    }

    fn open(&self, slot: usize) -> io::Result<Link> {
        faults::hit_io(faults::points::REMOTE_CONNECT)?;
        let target = self.workers[slot]
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::AddrNotAvailable,
                    "address resolves to no socket address",
                )
            })?;
        let stream =
            TcpStream::connect_timeout(&target, Duration::from_millis(REMOTE_CONNECT_TIMEOUT_MS))?;
        // The protocol is strictly request/response with small frames;
        // without TCP_NODELAY every round trip stalls on Nagle vs
        // delayed-ACK (~40 ms each way — measured ~87 ms/item on
        // loopback, dwarfing the work itself).
        stream.set_nodelay(true)?;
        // Bound every read: the clone shares the socket and its timeout,
        // so reads poll at this granularity and the dispatcher counts
        // the polls against the per-reply deadline.
        stream.set_read_timeout(Some(Duration::from_millis(REMOTE_READ_POLL_MS)))?;
        Ok(Link {
            reader: Box::new(stream.try_clone()?),
            writer: Box::new(stream),
        })
    }
}

impl Executor for RemoteExecutor {
    fn execute(
        &self,
        items: Vec<WorkItem>,
        observer: &dyn ExecutionObserver,
    ) -> Result<Vec<PartResult>, ExecutorError> {
        if self.workers.is_empty() && !items.is_empty() {
            return Err(ExecutorError::new(
                "remote backend has no worker hosts configured (add --worker ADDR)",
            ));
        }
        dispatch(self, items, observer, Some(self.deadline_ms))
    }
}

/// The next line from a serve-side reader, `None` at EOF. Serve-side
/// transports carry no read timeout; should one idle anyway, keep
/// waiting.
fn next_line<R: Read>(frames: &mut FrameReader<R>) -> io::Result<Option<String>> {
    loop {
        match frames.read_frame()? {
            Frame::Line(line) => return Ok(Some(line)),
            Frame::Eof => return Ok(None),
            Frame::Idle => {}
        }
    }
}

/// The one serve loop every worker runs — a process worker over its
/// stdin/stdout, a worker host over each TCP connection: handshake,
/// then assignments until EOF. Transport-agnostic, so tests drive it
/// over in-memory buffers.
///
/// A hello with the wrong protocol version — or anything that is not a
/// hello — is answered with [`WorkerFrame::Reject`] and an error return;
/// a malformed assignment line (or one over
/// [`wire::MAX_FRAME_BYTES`]) is a protocol violation and ends the loop
/// without a response (the dispatcher charges it like a death). Blank
/// lines between assignments are skipped. An unknown scenario id becomes
/// a per-item error result, which the dispatcher treats as fatal.
///
/// Every read assignment hits `item_point` before it is answered:
/// [`faults::points::WORKER_ITEM`] on a process worker,
/// [`faults::points::REMOTE_HOST_ITEM`] on a host. Failpoint counters
/// are process-wide, so a `crash@N` spec injects one deterministic
/// crash no matter how a host's connections interleave (the bench
/// worker translates the legacy `ONIONBOTS_WORKER_CRASH_AFTER_ITEMS`
/// hook into exactly that spec). An injected error ends the loop without
/// answering, which the dispatcher treats exactly like a death.
///
/// # Errors
/// Returns the underlying I/O error when the transport breaks or the
/// dispatcher violates the protocol.
pub fn serve_remote_connection<R, W, F>(
    input: R,
    mut output: W,
    item_point: &str,
    resolve: F,
) -> io::Result<()>
where
    R: Read,
    W: Write,
    F: Fn(&str) -> Option<Arc<dyn Scenario>>,
{
    let mut frames = FrameReader::new(input);
    let Some(hello) = next_line(&mut frames)? else {
        // EOF before any frame: a probe, not a dispatcher.
        return Ok(());
    };
    let refusal = match serde_json::from_str::<DispatchFrame>(&hello) {
        Ok(DispatchFrame::Hello { protocol }) if protocol == REMOTE_PROTOCOL_VERSION => None,
        Ok(DispatchFrame::Hello { protocol }) => Some(format!(
            "dispatcher speaks remote protocol v{protocol}, this host speaks v{REMOTE_PROTOCOL_VERSION}"
        )),
        Ok(DispatchFrame::Assign(_)) => Some("assignment before handshake".to_string()),
        Err(e) => Some(format!("unparseable hello frame: {e}")),
    };
    if let Some(reason) = refusal {
        let reject = WorkerFrame::Reject {
            reason: reason.clone(),
        };
        wire::write_frame(&mut output, &reject)?;
        return Err(io::Error::new(io::ErrorKind::InvalidData, reason));
    }
    let welcome = WorkerFrame::Welcome {
        protocol: REMOTE_PROTOCOL_VERSION,
    };
    wire::write_frame(&mut output, &welcome)?;
    // EOF: the dispatcher is done with this channel.
    while let Some(line) = next_line(&mut frames)? {
        if line.trim().is_empty() {
            continue;
        }
        let frame: DispatchFrame = serde_json::from_str(&line).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed dispatch frame: {e}"),
            )
        })?;
        let DispatchFrame::Assign(item) = frame else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "duplicate handshake on an established channel",
            ));
        };
        faults::hit_io(item_point)?;
        let result = match resolve(&item.scenario_id) {
            Some(scenario) => PartResult::ok(&item, run_work_item(&*scenario, &item)),
            None => PartResult::failed(
                &item,
                format!(
                    "scenario '{}' is not registered on this worker",
                    item.scenario_id
                ),
            ),
        };
        wire::write_frame(&mut output, &WorkerFrame::Completed(result))?;
    }
    Ok(())
}

/// Runs a worker host: accepts dispatcher connections on `listener`
/// forever (one thread per connection, registry resolved through
/// `resolve`) and serves each with [`serve_remote_connection`] under the
/// `remote.host.item` failpoint. Fault schedules armed in this process
/// (via [`crate::faults::arm_from_env`]) apply host-wide: the
/// `remote.host.item` counter spans every connection.
///
/// Never returns `Ok`: a worker host runs until its process is killed.
///
/// # Errors
/// Returns the underlying I/O error when accepting fails outright.
pub fn serve_remote_host<F>(listener: TcpListener, resolve: F) -> io::Result<()>
where
    F: Fn(&str) -> Option<Arc<dyn Scenario>> + Sync,
{
    std::thread::scope(|scope| loop {
        let (stream, peer) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let resolve = &resolve;
        scope.spawn(move || {
            // Mirror of the dispatcher side: request/response frames must
            // not sit in Nagle's buffer waiting for a delayed ACK.
            let reader = match stream.set_nodelay(true).and_then(|()| stream.try_clone()) {
                Ok(reader) => reader,
                Err(e) => {
                    eprintln!("warning: dropping connection from {peer}: {e}");
                    return;
                }
            };
            let item_point = faults::points::REMOTE_HOST_ITEM;
            if let Err(e) = serve_remote_connection(reader, &stream, item_point, resolve) {
                eprintln!("warning: connection from {peer} ended with a protocol error: {e}");
            }
        });
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::scenario_api::ScenarioParams;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    /// How one scripted in-memory worker channel behaves.
    #[derive(Clone, Copy)]
    enum Script {
        /// Answers every assignment.
        Echo,
        /// Answers every assignment twice.
        Twice,
        /// Answers this many assignments, then dies holding the next.
        DieAfter(usize),
        /// Answers with another item's identity.
        WrongEcho,
        /// Welcomes, then never answers: every read times out.
        Idle,
        /// Refuses the handshake.
        Reject,
    }

    /// The worker end of a fake channel, shared by its two halves: the
    /// writer feeds it frames, the reader drains its replies.
    struct Peer {
        script: Script,
        answered: usize,
        /// Assignments received, shared by every channel of the transport.
        assigned: Arc<AtomicUsize>,
        inbox: Vec<u8>,
        outbox: VecDeque<u8>,
        dead: bool,
    }

    impl Peer {
        fn reply(&mut self, frame: &WorkerFrame) {
            self.outbox.extend(wire::encode_frame(frame).unwrap());
        }

        fn on_frame(&mut self, frame: DispatchFrame) {
            let item = match (frame, self.script) {
                (DispatchFrame::Hello { .. }, Script::Reject) => {
                    let reason = "fake refusal".to_string();
                    return self.reply(&WorkerFrame::Reject { reason });
                }
                (DispatchFrame::Hello { .. }, _) => {
                    let protocol = REMOTE_PROTOCOL_VERSION;
                    return self.reply(&WorkerFrame::Welcome { protocol });
                }
                (DispatchFrame::Assign(item), _) => item,
            };
            self.assigned.fetch_add(1, Ordering::SeqCst);
            let mut result = PartResult::ok(&item, Vec::new());
            let copies = match self.script {
                Script::Idle => 0,
                Script::DieAfter(n) if self.answered == n => {
                    self.dead = true;
                    0
                }
                Script::Twice => 2,
                Script::WrongEcho => {
                    result.part += 1;
                    result.fingerprint = "bogus".to_string();
                    1
                }
                _ => 1,
            };
            for _ in 0..copies {
                self.reply(&WorkerFrame::Completed(result.clone()));
            }
            self.answered += 1;
        }
    }

    struct FakeReader(Arc<Mutex<Peer>>);

    impl Read for FakeReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let mut peer = self.0.lock().unwrap();
            if peer.outbox.is_empty() {
                return match peer.script {
                    Script::Idle => Err(io::ErrorKind::TimedOut.into()),
                    _ => Ok(0),
                };
            }
            let n = buf.len().min(peer.outbox.len());
            for (slot, byte) in buf.iter_mut().zip(peer.outbox.drain(..n)) {
                *slot = byte;
            }
            Ok(n)
        }
    }

    struct FakeWriter(Arc<Mutex<Peer>>);

    impl Write for FakeWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let mut peer = self.0.lock().unwrap();
            if peer.dead {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            peer.inbox.extend_from_slice(buf);
            while let Some(end) = peer.inbox.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = peer.inbox.drain(..=end).collect();
                let frame = serde_json::from_slice(&line[..end]).unwrap();
                peer.on_frame(frame);
            }
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// In-memory stand-in for both transports: `script(slot, open)`
    /// decides how the `open`-th channel of `slot` behaves, `None`
    /// making that open fail.
    struct Fake {
        script: fn(usize, usize) -> Option<Script>,
        opens: Mutex<Vec<usize>>,
        assigned: Arc<AtomicUsize>,
    }

    impl Transport for Fake {
        const OPEN_FAILED: &'static str = "cannot reach";

        fn slots(&self) -> usize {
            self.opens.lock().unwrap().len()
        }

        fn peer(&self, slot: usize) -> String {
            format!("fake worker {slot}")
        }

        fn open(&self, slot: usize) -> io::Result<Link> {
            let open = {
                let mut opens = self.opens.lock().unwrap();
                opens[slot] += 1;
                opens[slot] - 1
            };
            let script = (self.script)(slot, open).ok_or(io::ErrorKind::ConnectionRefused)?;
            let peer = Arc::new(Mutex::new(Peer {
                script,
                answered: 0,
                assigned: self.assigned.clone(),
                inbox: Vec::new(),
                outbox: VecDeque::new(),
                dead: false,
            }));
            Ok(Link {
                reader: Box::new(FakeReader(peer.clone())),
                writer: Box::new(FakeWriter(peer)),
            })
        }
    }

    /// Dispatches `n` items over `slots` scripted channels with a
    /// three-poll deadline; returns the outcome and the opens per slot.
    fn run(
        slots: usize,
        n: usize,
        script: fn(usize, usize) -> Option<Script>,
    ) -> (Result<Vec<PartResult>, ExecutorError>, Vec<usize>) {
        let (outcome, fake) = run_observed(slots, n, script, &());
        (outcome, fake.opens.into_inner().unwrap())
    }

    /// [`run`] with `observer` attached; returns the spent transport.
    fn run_observed(
        slots: usize,
        n: usize,
        script: fn(usize, usize) -> Option<Script>,
        observer: &dyn ExecutionObserver,
    ) -> (Result<Vec<PartResult>, ExecutorError>, Fake) {
        let fake = Fake {
            script,
            opens: Mutex::new(vec![0; slots]),
            assigned: Arc::new(AtomicUsize::new(0)),
        };
        let items = (0..n)
            .map(|part| WorkItem {
                scenario_id: "toy".to_string(),
                part,
                part_seed: part as u64,
                fingerprint: format!("{part:064x}"),
                params: ScenarioParams::with_seed(1),
                threads: 1,
            })
            .collect();
        let deadline = Some(3 * REMOTE_READ_POLL_MS);
        let outcome = dispatch(&fake, items, observer, deadline);
        (outcome, fake)
    }

    fn error_of(outcome: Result<Vec<PartResult>, ExecutorError>) -> String {
        outcome.unwrap_err().to_string()
    }

    #[test]
    fn every_item_lands_exactly_once_through_deaths_duplicates_and_hangs() {
        let (outcome, opens) = run(4, 24, |slot, open| {
            Some(match (slot, open) {
                (0, _) => Script::DieAfter(1),
                (1, _) => Script::Twice,
                (2, 0) => Script::DieAfter(0),
                (2, _) => Script::Echo,
                _ => Script::Idle,
            })
        });
        let mut parts: Vec<usize> = outcome.unwrap().iter().map(|r| r.part).collect();
        parts.sort_unstable();
        assert_eq!(parts, (0..24).collect::<Vec<_>>());
        assert!(opens[3] <= 1, "the hung worker is abandoned, not reopened");
    }

    #[test]
    fn a_toxic_item_gives_up_after_the_retry_budget() {
        let (outcome, opens) = run(1, 1, |_, _| Some(Script::DieAfter(0)));
        let message = error_of(outcome);
        assert!(message.contains("giving up"), "{message}");
        assert_eq!(opens, vec![DEFAULT_MAX_ITEM_RETRIES + 1]);
    }

    #[test]
    fn a_wrong_identity_echo_is_fatal() {
        let (outcome, _) = run(1, 2, |_, _| Some(Script::WrongEcho));
        let message = error_of(outcome);
        assert!(message.contains("protocol error"), "{message}");
    }

    #[test]
    fn refusing_or_unreachable_workers_fail_the_run_up_front() {
        let (outcome, _) = run(2, 4, |slot, _| {
            Some(if slot == 0 {
                Script::Reject
            } else {
                Script::Idle
            })
        });
        let message = error_of(outcome);
        assert!(message.contains("refused"), "{message}");
        let (outcome, _) = run(1, 4, |_, _| None);
        let message = error_of(outcome);
        assert!(message.contains("cannot reach fake worker 0"), "{message}");
    }

    #[test]
    fn the_run_fails_rather_than_hangs_when_every_worker_is_gone() {
        // Slot 0 hangs past the deadline; slot 1 completes one item, dies
        // and cannot be reopened. Work is left with nobody to run it.
        let (outcome, opens) = run(2, 4, |slot, open| match (slot, open) {
            (0, _) => Some(Script::Idle),
            (_, 0) => Some(Script::DieAfter(1)),
            _ => None,
        });
        let message = error_of(outcome);
        assert!(message.contains("are gone"), "{message}");
        assert_eq!(opens, vec![1, 2]);
    }

    /// Cancels its run as the first item finishes, recording which parts
    /// were started.
    #[derive(Default)]
    struct CancelAtFirstFinish {
        started: Mutex<Vec<usize>>,
        cancelled: AtomicBool,
    }

    impl ExecutionObserver for CancelAtFirstFinish {
        fn item_started(&self, item: &WorkItem) {
            self.started.lock().unwrap().push(item.part);
        }
        fn item_finished(&self, _result: &PartResult) {
            self.cancelled.store(true, Ordering::SeqCst);
        }
        fn cancelled(&self) -> bool {
            self.cancelled.load(Ordering::SeqCst)
        }
    }

    #[test]
    fn a_cancel_stops_further_assignments() {
        let observer = CancelAtFirstFinish::default();
        let (outcome, fake) = run_observed(1, 4, |_, _| Some(Script::Echo), &observer);
        let error = outcome.unwrap_err();
        assert!(error.is_cancelled(), "{error}");
        assert_eq!(
            error.to_string(),
            "job cancelled with 3 of 4 item(s) still pending"
        );
        assert_eq!(fake.assigned.load(Ordering::SeqCst), 1);
        assert_eq!(*observer.started.lock().unwrap(), vec![0]);

        // Three slots: each slot checks after its own item finished, which
        // set the token, so no slot is assigned a second item.
        let observer = CancelAtFirstFinish::default();
        let (outcome, fake) = run_observed(3, 8, |_, _| Some(Script::Echo), &observer);
        assert!(outcome.unwrap_err().is_cancelled());
        let assigned = fake.assigned.load(Ordering::SeqCst);
        assert!((1..=3).contains(&assigned), "{assigned} assignment(s)");
        assert_eq!(observer.started.lock().unwrap().len(), assigned);
    }

    /// Counts the bytes a reader hands out.
    struct Counted<R> {
        inner: R,
        consumed: Arc<AtomicUsize>,
    }

    impl<R: Read> Read for Counted<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.consumed.fetch_add(n, Ordering::SeqCst);
            Ok(n)
        }
    }

    #[test]
    fn the_tcp_serve_loop_drops_an_over_cap_frame() {
        use crate::wire::endless::{Unterminated, CONSUME_BOUND, STREAM_BYTES};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            // Streams until the host hangs up.
            io::copy(&mut Unterminated::new(STREAM_BYTES), &mut stream).is_err()
        });
        let (stream, _) = listener.accept().unwrap();
        let consumed = Arc::new(AtomicUsize::new(0));
        let reader = Counted {
            inner: stream.try_clone().unwrap(),
            consumed: consumed.clone(),
        };
        let item_point = faults::points::REMOTE_HOST_ITEM;
        let error = serve_remote_connection(reader, &stream, item_point, |_| None).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        assert!(error.to_string().contains("frame exceeds"), "{error}");
        assert!(consumed.load(Ordering::SeqCst) <= CONSUME_BOUND);
        drop(stream);
        assert!(client.join().unwrap(), "the host hung up mid-stream");
    }
}
