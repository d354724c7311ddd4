//! The one request path of the [`EmbedService`], and its TCP /
//! Unix-socket front-end.
//!
//! Every channel answers through the functions below: admission (a
//! draining server, an invalid task, the capacity bounds), then a quote,
//! a commit or a release. A socket server runs them on its reader and
//! worker threads; [`ServerHandle::inline`] runs them on the caller's
//! thread, for stdin `sft serve`, sequential `sft batch` and in-process
//! experiments, with lines framed exactly as on a connection.
//!
//! One listener thread accepts connections; each connection gets a reader
//! thread that parses protocol lines, runs admission control
//! ([`crate::admission`], answered from the [`CapacityLedger`]'s copy of
//! the network so readers never touch the service lock) and enqueues accepted jobs onto
//! a bounded [`JobQueue`]; a fixed worker pool pops jobs and solves them
//! against the **shared** service (one `Network`, one distance engine, one
//! `SteinerCache`) behind an `RwLock`.
//!
//! Quotes *and commit solves* run concurrently under the read half:
//! a commit snapshots the ledger sequence number, solves, then applies
//! its delta transactionally in a short write-locked critical section
//! that re-checks the deadline, the touched nodes' versions, and the
//! residual capacities before mutating anything — see [`crate::ledger`]
//! for the snapshot/validate/confirm cycle and the bounded
//! re-solve-on-conflict policy. A commit whose every optimistic attempt
//! lost its race makes one last attempt wholly under the write lock.
//! Each request solves on the worker that popped it: the pool is the
//! server's only fan-out level.
//!
//! Releases (`{"op":"release","session":N}`) ride the same queue and
//! worker pool: admission credits the departing session's capacity to
//! later arrivals immediately, and the teardown itself runs under the
//! write lock — look the session up, apply the inverse delta
//! all-or-nothing, confirm a `Release` record into the same ledger log.
//!
//! Rejections (`overloaded`, `insufficient_capacity`, `shutting_down`,
//! parse errors) are answered inline, so an overloaded
//! server stays responsive: every request gets a structured response,
//! never a hang or a dropped connection. Jobs whose deadline expires
//! while queued are shed — at pop time, and from a full queue at
//! admission time so a dead backlog cannot hold `overloaded` against
//! live work.
//!
//! Shutdown is graceful by construction: the wire line
//! `{"op":"shutdown"}` (or [`ServerHandle::shutdown`]) closes the queue
//! and trips the shared drain [`CancelToken`]; workers answer what was
//! already admitted (in-flight solves are cancelled at their next poll
//! and answered `shutting_down`), then exit; readers answer later
//! requests with `shutting_down`. Every solve runs under a child of the
//! drain token carrying that job's deadline, so deadline expiry likewise
//! interrupts a solve mid-flight instead of waiting it out.

use crate::admission::{AdmissionConfig, JobQueue};
use crate::ledger::{CapacityLedger, CommitRecord, CommitRejection, LedgerSnapshot};
use crate::protocol::{EmbedResponse, Request, RequestMode, WireError};
use crate::service::{EmbedService, ServiceError};
use sft_core::{CommitDelta, CoreError, MulticastTask, Network, SolveResult};
use sft_graph::CancelToken;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The read/write halves of one accepted or dialed connection.
pub type Connection = (Box<dyn Read + Send>, Box<dyn Write + Send>);

/// How often the accept loop re-checks the drain flag.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// Longest request line the server reads, newline excluded (1 MiB). A
/// longer line is answered `parse_error` and its connection closed, so
/// a client that never sends a newline cannot grow server memory.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Configuration for [`serve`].
#[derive(Copy, Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads solving admitted requests.
    pub workers: usize,
    /// Admission-control knobs (queue bound, default deadline, capacity
    /// pre-check).
    pub admission: AdmissionConfig,
    /// Solve semantics for requests that do not name a `mode`. The socket
    /// default is [`RequestMode::Quote`]: quotes are pure functions of the
    /// frozen network, so results are independent of connection
    /// interleaving — the property the batch-equivalence guarantee needs.
    pub default_mode: RequestMode,
    /// Optimistic solve attempts per commit (each retry re-solves against
    /// the post-conflict state; values below 1 behave as 1). When all of
    /// them lose their snapshot race, one last attempt solves and applies
    /// under the write lock, so commits are never refused as `conflict`.
    pub commit_retries: usize,
    /// Run the re-embed/defrag batch ([`ServerHandle::defrag`]) on this
    /// period from a maintenance thread. `None` (the default) leaves
    /// defragmentation to explicit handle calls.
    pub defrag_every: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            admission: AdmissionConfig::default(),
            default_mode: RequestMode::Quote,
            commit_retries: 3,
            defrag_every: None,
        }
    }
}

/// What one re-embed/defrag batch did — see [`ServerHandle::defrag`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DefragReport {
    /// Live sessions the pass re-embedded (those whose commit recorded
    /// a task).
    pub sessions: usize,
    /// Sessions whose re-solve chose a different instance set than the
    /// one they held.
    pub moved: usize,
    /// Distinct live VNF instances before the pass.
    pub instances_before: usize,
    /// Distinct live VNF instances after the pass.
    pub instances_after: usize,
}

/// One admitted request, for the worker pool (or, on a server with no
/// listener, for the caller's thread).
struct Job {
    id: Option<u64>,
    kind: JobKind,
    deadline_ms: Option<u64>,
    deadline: Option<Instant>,
}

/// What an admitted job asks the worker pool to do.
enum JobKind {
    /// Solve one embedding task (quote or commit).
    Embed {
        task: MulticastTask,
        mode: RequestMode,
    },
    /// Tear down a committed session.
    Release { session: u64 },
}

/// A connection's write half, shared by its reader thread and the workers.
type Reply = Arc<Mutex<Box<dyn Write + Send>>>;

/// A queued job and the connection its answer goes to.
type Queued = (Job, Reply);

/// State shared by the listener, readers and workers.
struct Shared {
    service: RwLock<EmbedService>,
    /// The optimistic capacity ledger commits transact through; its
    /// network copy also answers admission so readers need no service
    /// lock.
    ledger: CapacityLedger,
    queue: JobQueue<Queued>,
    draining: AtomicBool,
    /// The drain token: every in-flight solve runs under a child of this
    /// token (with the job's own deadline), so initiating a drain
    /// interrupts solves at their next poll instead of waiting them out.
    drain: CancelToken,
    config: ServerConfig,
    /// Jobs shed because their deadline expired while queued.
    shed_jobs: AtomicU64,
    /// Commit attempts that lost their snapshot race and re-solved.
    conflicts: AtomicU64,
    /// Requests turned away by the admission bandwidth bound (the
    /// service's own counter covers commit-time link rejections).
    bandwidth_rejections: AtomicU64,
}

impl Shared {
    fn new(service: EmbedService, config: ServerConfig) -> Self {
        Shared {
            ledger: CapacityLedger::new(service.network()),
            service: RwLock::new(service),
            queue: JobQueue::new(config.admission.queue_bound),
            draining: AtomicBool::new(false),
            drain: CancelToken::new(),
            config,
            shed_jobs: AtomicU64::new(0),
            conflicts: AtomicU64::new(0),
            bandwidth_rejections: AtomicU64::new(0),
        }
    }

    /// Stops accepting work; already-admitted jobs still drain, but any
    /// solve in flight is cancelled at its next poll point.
    fn initiate_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.drain.cancel();
        self.queue.close();
    }

    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Service lock access recovers from poison: a worker panicking
    /// mid-request must not take the whole server down. Solves never
    /// mutate under the read half, and the only write-half mutation —
    /// [`EmbedService::apply_commit`] — is all-or-nothing, so the state
    /// behind a poisoned lock is always consistent.
    fn read_service(&self) -> RwLockReadGuard<'_, EmbedService> {
        self.service.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write_service(&self) -> RwLockWriteGuard<'_, EmbedService> {
        self.service.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Where a server listens.
enum Acceptor {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Acceptor {
    /// Binds `addr`: `unix:<path>` for a Unix socket (any existing socket
    /// file is replaced), anything else as a TCP `host:port`.
    fn bind(addr: &str) -> io::Result<Self> {
        if let Some(path) = addr.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                listener.set_nonblocking(true)?;
                return Ok(Acceptor::Unix(listener));
            }
            #[cfg(not(unix))]
            {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    format!("unix sockets are not available on this platform: {path}"),
                ));
            }
        }
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Acceptor::Tcp(listener))
    }

    fn local_addr(&self) -> Option<SocketAddr> {
        match self {
            Acceptor::Tcp(l) => l.local_addr().ok(),
            #[cfg(unix)]
            Acceptor::Unix(_) => None,
        }
    }

    /// Non-blocking accept: `Ok(None)` means "nothing pending right now".
    fn try_accept(&self) -> io::Result<Option<Connection>> {
        match self {
            Acceptor::Tcp(l) => match l.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    // One small JSON line per response: waiting for ACKs
                    // (Nagle) only adds delayed-ACK latency to every RTT.
                    stream.set_nodelay(true)?;
                    let writer = stream.try_clone()?;
                    Ok(Some((Box::new(stream), Box::new(writer))))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            #[cfg(unix)]
            Acceptor::Unix(l) => match l.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    let writer = stream.try_clone()?;
                    Ok(Some((Box::new(stream), Box::new(writer))))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`] then [`ServerHandle::join`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    local_addr: Option<SocketAddr>,
    listener_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// A server with no listener that spawns no thread: requests reach it
    /// only through [`ServerHandle::answer`] and
    /// [`ServerHandle::answer_lines`], each answered on the caller's
    /// thread before the call returns, as a socket client with one request
    /// in flight would be answered. `config.workers` and
    /// `config.defrag_every` are unused (call [`ServerHandle::defrag`]
    /// instead), and the queue bound never binds, since nothing queues.
    pub fn inline(service: EmbedService, config: ServerConfig) -> ServerHandle {
        ServerHandle {
            shared: Arc::new(Shared::new(service, config)),
            local_addr: None,
            listener_thread: None,
            workers: Vec::new(),
        }
    }

    /// Answers one request on the caller's thread: the socket's admission
    /// checks, then what a worker does with the admitted job (shed it if
    /// its deadline has passed, else quote, commit or release). A shutdown
    /// request starts the drain; later requests answer `shutting_down`.
    pub fn answer(&self, request: Request) -> EmbedResponse {
        match admit(request, &self.shared) {
            Ok(job) => work(&job, &self.shared),
            Err(answer) => answer,
        }
    }

    /// Answers a JSONL request stream line by line with
    /// [`ServerHandle::answer`], writing (and flushing) each answer before
    /// the next line is read. Lines are framed as on a socket connection:
    /// blank and `#` lines are skipped, a line that is not UTF-8 is
    /// answered `parse_error` and the next one served, and a line over
    /// [`MAX_LINE_BYTES`] is answered `parse_error` and ends the stream
    /// unread. Unlike a socket, a last line with no newline is answered. A
    /// request without an `id` takes its 1-based line number, and a
    /// shutdown line ends the stream after its `draining` answer.
    ///
    /// # Errors
    ///
    /// I/O errors reading `reader` or writing `writer`.
    pub fn answer_lines(&self, reader: impl Read, writer: &mut impl Write) -> io::Result<()> {
        let mut reader = BufReader::new(reader);
        let mut buf = Vec::new();
        let mut lineno = 0;
        while let Some(frame) = read_frame(&mut reader, &mut buf, true)? {
            lineno += 1;
            let line_id = Some(lineno);
            let (response, last) = match frame {
                Frame::Skip => continue,
                Frame::Refuse(error) => (EmbedResponse::wire_failure(line_id, error), false),
                Frame::TooLong(error) => (EmbedResponse::wire_failure(line_id, error), true),
                Frame::Request(line) => match crate::protocol::parse_request(line) {
                    Err(e) => (EmbedResponse::wire_failure(line_id, e), false),
                    Ok(request) => {
                        let last = matches!(request, Request::Shutdown { .. });
                        (self.answer(request.with_default_id(line_id)), last)
                    }
                },
            };
            writeln!(writer, "{}", response.to_json())?;
            writer.flush()?;
            if last {
                break;
            }
        }
        Ok(())
    }

    /// The bound TCP address (useful with `127.0.0.1:0`); `None` for Unix
    /// sockets and for [`ServerHandle::inline`].
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// Initiates a graceful drain: stop accepting, finish admitted work.
    pub fn shutdown(&self) {
        self.shared.initiate_drain();
    }

    /// Whether a drain has been initiated (by wire or by handle).
    pub fn is_draining(&self) -> bool {
        self.shared.is_draining()
    }

    /// Blocks until the listener and all workers have exited (call
    /// [`ServerHandle::shutdown`] first, or send `{"op":"shutdown"}`).
    /// Detached per-connection reader threads may outlive this — they hold
    /// no admitted work, only idle clients. After `join` returns,
    /// [`ServerHandle::stats`] reflects every request the server answered.
    pub fn join(&mut self) {
        if let Some(t) = self.listener_thread.take() {
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// A snapshot of the shared service's stats, including the server's
    /// own shed/conflict counters.
    pub fn stats(&self) -> crate::stats::ServiceStats {
        let mut stats = self.shared.read_service().stats();
        stats.jobs_shed = self.shared.shed_jobs.load(Ordering::Relaxed);
        stats.commit_conflicts = self.shared.conflicts.load(Ordering::Relaxed);
        stats.bandwidth_rejected += self.shared.bandwidth_rejections.load(Ordering::Relaxed);
        stats
    }

    /// The confirmed transactions in committed order (see
    /// [`crate::ledger`]): replaying their deltas serially onto an
    /// identically-built network reproduces the current state bit-for-bit.
    pub fn commit_log(&self) -> Vec<CommitRecord> {
        self.shared.ledger.commit_log()
    }

    /// A clone of the service's current network state (for replay and
    /// accounting checks; taken under the read lock, so it is a committed
    /// snapshot, never a mid-transaction view).
    pub fn network(&self) -> Network {
        self.shared.read_service().network().clone()
    }

    /// Runs one re-embed/defrag batch: every live session whose commit
    /// recorded its task is released and immediately re-solved against
    /// the network *without* its own usage, in one write-locked critical
    /// section. Long-running arrival/departure churn fragments
    /// placements — instances stranded where early sessions put them,
    /// while later arrivals deploy fresh copies elsewhere — and a
    /// periodic pass lets sessions consolidate onto shared instances
    /// (§IV-D reuse) that did not exist when they first arrived.
    ///
    /// Safe by construction: each session's release precedes its
    /// re-commit inside the same critical section, so the re-solve sees
    /// at least the capacity the session held and a failed re-solve
    /// restores the original placement verbatim. Both legs confirm
    /// through the ledger, so the commit log still replays serially to
    /// the exact post-defrag network.
    pub fn defrag(&self) -> DefragReport {
        defrag_pass(&self.shared)
    }
}

/// The re-embed/defrag batch behind [`ServerHandle::defrag`] and the
/// `defrag_every` maintenance thread.
fn defrag_pass(shared: &Shared) -> DefragReport {
    let mut service = shared.write_service();
    let instances_before = service.network().deployed_pairs().len();
    let mut report = DefragReport {
        instances_before,
        instances_after: instances_before,
        ..DefragReport::default()
    };
    for (session, task) in shared.ledger.live_session_tasks() {
        let Ok(usage) = shared.ledger.release_usage(session) else {
            continue;
        };
        if service.apply_release(&usage).is_err() {
            // Unreachable while the ledger's copy and the network agree;
            // skip the session rather than crash if they ever drift.
            continue;
        }
        shared
            .ledger
            .confirm_release(session)
            .expect("a session release_usage resolved cannot fail to confirm");
        let replaced = service
            .solve_uncommitted(&task)
            .map(|result| service.network().commit_delta(&task, &result.embedding))
            .and_then(|delta| service.apply_commit(&delta).map(|()| delta));
        let delta = replaced.unwrap_or_else(|_| {
            // The session's own capacity was just freed, so restoring its
            // exact usage always fits (`apply_delta` re-creates released
            // pairs no matter which side of the delta they sit on).
            service
                .apply_commit(&usage)
                .expect("restoring a just-released session cannot fail");
            usage.clone()
        });
        shared
            .ledger
            .confirm_with_task(Some(session), &delta, Some(task));
        report.sessions += 1;
        let mut held: Vec<_> = usage.usage().collect();
        let mut now: Vec<_> = delta.usage().collect();
        held.sort_unstable();
        now.sort_unstable();
        if held != now {
            report.moved += 1;
        }
    }
    report.instances_after = service.network().deployed_pairs().len();
    report
}

/// Starts a server for `service` on `addr` (`host:port` or `unix:<path>`).
///
/// Every request (and every defrag re-solve) is solved on the worker that
/// popped it: the `workers` pool is the server's one fan-out level.
///
/// # Errors
///
/// I/O errors binding the listener.
pub fn serve(service: EmbedService, addr: &str, config: ServerConfig) -> io::Result<ServerHandle> {
    let acceptor = Acceptor::bind(addr)?;
    let local_addr = acceptor.local_addr();
    let shared = Arc::new(Shared::new(service, config));

    let mut workers = Vec::with_capacity(config.workers.max(1));
    for _ in 0..config.workers.max(1) {
        let shared = Arc::clone(&shared);
        workers.push(std::thread::spawn(move || worker_loop(&shared)));
    }

    if let Some(period) = config.defrag_every {
        let shared = Arc::clone(&shared);
        workers.push(std::thread::spawn(move || {
            maintenance_loop(&shared, period)
        }));
    }

    let listener_shared = Arc::clone(&shared);
    let listener_thread = std::thread::spawn(move || {
        accept_loop(&acceptor, &listener_shared);
    });

    Ok(ServerHandle {
        shared,
        local_addr,
        listener_thread: Some(listener_thread),
        workers,
    })
}

/// Accepts connections until a drain is initiated, spawning one reader
/// thread per connection. Reader threads are detached: they exit on client
/// EOF and never hold work the drain must wait for.
fn accept_loop(acceptor: &Acceptor, shared: &Arc<Shared>) {
    loop {
        if shared.is_draining() {
            return;
        }
        match acceptor.try_accept() {
            Ok(Some((reader, writer))) => {
                let shared = Arc::clone(shared);
                std::thread::spawn(move || {
                    connection_loop(reader, Arc::new(Mutex::new(writer)), &shared);
                });
            }
            Ok(None) => std::thread::sleep(ACCEPT_POLL),
            Err(_) => return,
        }
    }
}

/// How one line of a request stream reads — see [`read_frame`].
enum Frame<'a> {
    /// A request line, trimmed.
    Request(&'a str),
    /// A blank or `#` comment line: nothing to answer.
    Skip,
    /// A line that is not UTF-8: answer `parse_error`, then read on.
    Refuse(WireError),
    /// A line over [`MAX_LINE_BYTES`]: answer `parse_error` and read no
    /// further, so a client that never sends a newline cannot grow memory.
    TooLong(WireError),
}

/// Reads the next line of a request stream into `buf` (reused from line
/// to line, so a warm connection reads without allocating). Every channel
/// frames its input here. `Ok(None)` is the end of the stream. Bytes after
/// the last newline are a line only when `keep_tail` is set: a socket
/// drops them, so a commit cut off mid-line never lands.
fn read_frame<'a>(
    reader: &mut impl BufRead,
    buf: &'a mut Vec<u8>,
    keep_tail: bool,
) -> io::Result<Option<Frame<'a>>> {
    buf.clear();
    // One byte past the cap tells an over-long line from a full one.
    let limit = MAX_LINE_BYTES as u64 + 1;
    if reader.by_ref().take(limit).read_until(b'\n', buf)? == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if buf.len() > MAX_LINE_BYTES {
        let error = WireError::parse(format!("request line exceeds {MAX_LINE_BYTES} bytes"));
        return Ok(Some(Frame::TooLong(error)));
    } else if !keep_tail {
        return Ok(None);
    }
    let Ok(line) = std::str::from_utf8(buf) else {
        return Ok(Some(Frame::Refuse(WireError::parse(
            "request line is not valid UTF-8",
        ))));
    };
    let line = line.trim();
    Ok(Some(if line.is_empty() || line.starts_with('#') {
        Frame::Skip
    } else {
        Frame::Request(line)
    }))
}

/// Parses lines off one connection, admits or rejects each request, and
/// answers everything that never reaches the worker pool. Lines are framed
/// by [`read_frame`]: an over-long line closes the connection, and an
/// unterminated tail at EOF is dropped unexecuted.
fn connection_loop(reader: Box<dyn Read + Send>, reply: Reply, shared: &Arc<Shared>) {
    let mut reader = BufReader::new(reader);
    let mut buf = Vec::new();
    // A read error ends the connection like EOF does.
    while let Ok(Some(frame)) = read_frame(&mut reader, &mut buf, false) {
        let response = match frame {
            Frame::Skip => continue,
            Frame::Refuse(error) => EmbedResponse::wire_failure(None, error),
            Frame::TooLong(error) => {
                send(&reply, &EmbedResponse::wire_failure(None, error));
                return;
            }
            Frame::Request(line) => match crate::protocol::parse_request(line) {
                Err(e) => EmbedResponse::wire_failure(None, e),
                Ok(request) => match admit(request, shared) {
                    Ok(job) => match enqueue(job, &reply, shared) {
                        Ok(()) => continue,
                        Err(refusal) => refusal,
                    },
                    Err(answer) => answer,
                },
            },
        };
        if !send(&reply, &response) {
            return;
        }
    }
}

/// Admission for one parsed request, on the thread that read it. `Ok` is
/// a job for the worker pool. `Err` is the answer given without one: a
/// refusal, or the `draining` acknowledgement of a shutdown request, which
/// starts the drain.
fn admit(request: Request, shared: &Shared) -> Result<Job, EmbedResponse> {
    match request {
        Request::Shutdown { id, .. } => {
            shared.initiate_drain();
            Err(EmbedResponse::draining(id))
        }
        Request::Embed(req) => {
            admit_embed(&req, shared).map_err(|e| EmbedResponse::failure(req.id, &e))
        }
        Request::Release {
            id,
            session,
            deadline_ms,
            ..
        } => admit_release(id, session, deadline_ms, shared)
            .map_err(|e| EmbedResponse::failure(id, &e)),
    }
}

/// The admission checks of one embed request: a draining server, an
/// invalid task, and (when configured) the capacity bounds.
fn admit_embed(req: &crate::protocol::EmbedRequest, shared: &Shared) -> Result<Job, ServiceError> {
    if shared.is_draining() {
        return Err(ServiceError::ShuttingDown);
    }
    let task = req.to_task().map_err(ServiceError::Core)?;
    if shared.config.admission.capacity_check {
        // Answered from the ledger's copy: admission needs no service
        // lock, so a long write-locked commit never stalls rejections.
        if let Err(e) = shared.ledger.check_capacity(&task) {
            if matches!(e, ServiceError::InsufficientBandwidth { .. }) {
                shared.bandwidth_rejections.fetch_add(1, Ordering::Relaxed);
            }
            return Err(e);
        }
    }
    let mode = req.mode.unwrap_or(shared.config.default_mode);
    Ok(job(
        req.id,
        JobKind::Embed { task, mode },
        req.deadline_ms,
        shared,
    ))
}

/// Admits one release request. The session is *not* resolved here — the
/// worker answers `unknown_session` / `already_released` with authority —
/// but a live session's capacity is credited to admission immediately
/// ([`CapacityLedger::note_queued_release`]), so a full network with a
/// queued release does not bounce the arrival that release makes room
/// for.
fn admit_release(
    id: Option<u64>,
    session: u64,
    deadline_ms: Option<u64>,
    shared: &Shared,
) -> Result<Job, ServiceError> {
    if shared.is_draining() {
        return Err(ServiceError::ShuttingDown);
    }
    shared.ledger.note_queued_release(session);
    Ok(job(id, JobKind::Release { session }, deadline_ms, shared))
}

/// An admitted job, its deadline counted from now (the request's own
/// `deadline_ms`, else the configured default).
fn job(id: Option<u64>, kind: JobKind, deadline_ms: Option<u64>, shared: &Shared) -> Job {
    let deadline_ms = deadline_ms.or(shared.config.admission.default_deadline_ms);
    Job {
        id,
        kind,
        deadline_ms,
        deadline: deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
    }
}

/// Queues an admitted job for the worker pool, shedding a dead backlog
/// once if the queue is full of already-expired jobs. `Err` is the refusal
/// to send instead; a refused release withdraws its admission credit.
fn enqueue(job: Job, reply: &Reply, shared: &Shared) -> Result<(), EmbedResponse> {
    let refused = match shared.queue.try_push((job, Arc::clone(reply))) {
        Ok(()) => return Ok(()),
        // A full queue may be full of already-dead jobs: shed them (each
        // still gets its deadline_exceeded response) and retry once.
        Err((queued, ServiceError::Overloaded { .. })) if shed_expired_jobs(shared) > 0 => {
            match shared.queue.try_push(queued) {
                Ok(()) => return Ok(()),
                Err(refused) => refused,
            }
        }
        Err(refused) => refused,
    };
    let ((job, _), e) = refused;
    drop_credit(&job, shared);
    Err(EmbedResponse::failure(job.id, &e))
}

/// Whether a job's deadline has passed.
fn job_expired(job: &Job) -> bool {
    job.deadline.is_some_and(|d| Instant::now() > d)
}

/// The structured response for a job shed or rejected on its deadline.
fn expired_response(job: &Job) -> EmbedResponse {
    EmbedResponse::failure(
        job.id,
        &ServiceError::DeadlineExceeded {
            deadline_ms: job.deadline_ms.unwrap_or(0),
        },
    )
}

/// Returns a shed release job's admission credit (it will never confirm).
fn drop_credit(job: &Job, shared: &Shared) {
    if let JobKind::Release { session } = job.kind {
        shared.ledger.clear_queued_release(session);
    }
}

/// Removes already-expired jobs from the queue, answers their clients,
/// and counts them in the server stats. Returns how many were shed.
fn shed_expired_jobs(shared: &Shared) -> usize {
    let dead = shared.queue.shed(|(job, _)| job_expired(job));
    shared
        .shed_jobs
        .fetch_add(dead.len() as u64, Ordering::Relaxed);
    for (job, reply) in &dead {
        drop_credit(job, shared);
        send(reply, &expired_response(job));
    }
    dead.len()
}

/// Runs the periodic re-embed/defrag batch until a drain is initiated,
/// polling the drain flag so shutdown never waits out a full period.
fn maintenance_loop(shared: &Arc<Shared>, period: Duration) {
    let mut next = Instant::now() + period;
    while !shared.is_draining() {
        if Instant::now() >= next {
            defrag_pass(shared);
            next = Instant::now() + period;
        }
        std::thread::sleep(ACCEPT_POLL.min(period));
    }
}

/// Pops admitted jobs until the queue is closed **and** drained, so a
/// graceful shutdown completes all in-flight work.
fn worker_loop(shared: &Arc<Shared>) {
    while let Some((job, reply)) = shared.queue.pop() {
        send(&reply, &work(&job, shared));
    }
}

/// What a worker does with one admitted job: a job whose deadline expired
/// while it waited is shed — answered, counted, never run — and any other
/// job runs.
fn work(job: &Job, shared: &Shared) -> EmbedResponse {
    if job_expired(job) {
        shared.shed_jobs.fetch_add(1, Ordering::Relaxed);
        drop_credit(job, shared);
        return expired_response(job);
    }
    run_job(job, shared)
}

/// Solves one admitted job under a child of the drain token carrying the
/// job's deadline, so both deadline expiry and a drain interrupt the
/// solve at its next poll point instead of waiting it out. Quotes run
/// under the read lock — a cancelled quote has mutated nothing. Commits
/// go through the transactional path, where the deadline is re-checked
/// *before* any mutation.
fn run_job(job: &Job, shared: &Shared) -> EmbedResponse {
    match &job.kind {
        JobKind::Embed {
            task,
            mode: RequestMode::Quote,
        } => {
            let cancel = shared.drain.child(job.deadline);
            let result = shared
                .read_service()
                .solve_uncommitted_cancellable(task, Some(&cancel));
            if job_expired(job) {
                return expired_response(job);
            }
            match result {
                Ok(r) => EmbedResponse::success(job.id, &r, false),
                // Not expired (checked above), so the cancellation came
                // from the drain side of the token.
                Err(ServiceError::Core(CoreError::Cancelled)) => {
                    EmbedResponse::failure(job.id, &ServiceError::ShuttingDown)
                }
                Err(e) => EmbedResponse::failure(job.id, &e),
            }
        }
        JobKind::Embed {
            task,
            mode: RequestMode::Commit,
        } => commit_job(job, task, shared),
        JobKind::Release { session } => release_job(job, *session, shared),
    }
}

/// The transactional release path. A live session's references are
/// guaranteed to exist (nothing but this path removes them, and releases
/// serialize under the write lock), so no optimistic retry loop is
/// needed: look the session up, apply the inverse delta all-or-nothing,
/// confirm into the ledger. The deadline is re-checked before any
/// mutation, exactly like the commit path.
fn release_job(job: &Job, session: u64, shared: &Shared) -> EmbedResponse {
    let mut service = shared.write_service();
    if job_expired(job) {
        drop(service);
        shared.ledger.clear_queued_release(session);
        return expired_response(job);
    }
    let usage = match shared.ledger.release_usage(session) {
        Ok(u) => u,
        Err(e) => {
            drop(service);
            shared.ledger.clear_queued_release(session);
            return EmbedResponse::failure(job.id, &e);
        }
    };
    let freed = match service.apply_release(&usage) {
        Ok(freed) => freed,
        // Unreachable while the ledger's copy and the network agree; a
        // structured error (network untouched — apply is all-or-nothing)
        // beats a crash if they ever drift.
        Err(e) => {
            drop(service);
            shared.ledger.clear_queued_release(session);
            return EmbedResponse::failure(job.id, &e);
        }
    };
    shared
        .ledger
        .confirm_release(session)
        .expect("a session release_usage resolved cannot fail to confirm");
    let shared_refs = usage.deploys().len() + usage.refs().len() - freed.len();
    EmbedResponse::released(
        job.id,
        session,
        freed.into_iter().map(|(f, v)| (f.0, v.0)).collect(),
        shared_refs,
        usage.total_bandwidth(),
    )
}

/// The transactional commit path: up to `commit_retries` optimistic
/// attempts snapshot and solve under the read lock, then validate and
/// apply in a short write-locked critical section. When every one of them
/// lost its snapshot race, a last attempt snapshots, solves, validates
/// and applies under the write lock, as [`defrag_pass`] does, so no other
/// commit can interleave: a commit is refused only for capacity,
/// feasibility, delay or deadline. The response and the network always
/// agree — a refusal has mutated **nothing**, and a success response
/// reports exactly what was committed.
fn commit_job(job: &Job, task: &MulticastTask, shared: &Shared) -> EmbedResponse {
    let retries = shared.config.commit_retries.max(1);
    for _ in 0..retries {
        // Snapshot + solve under the read half, concurrently with quotes
        // and other commit solves. The snapshot is coherent with the
        // solve because confirms happen under the write half.
        let solved = match solve_commit(job, task, &shared.read_service(), shared) {
            Ok(solved) => solved,
            Err(response) => return response,
        };
        if let Some(response) = apply_solved(
            job,
            task,
            &mut shared.write_service(),
            shared,
            solved,
            false,
        ) {
            return response;
        }
        shared.conflicts.fetch_add(1, Ordering::Relaxed);
    }
    let mut service = shared.write_service();
    let solved = match solve_commit(job, task, &service, shared) {
        Ok(solved) => solved,
        Err(response) => return response,
    };
    apply_solved(job, task, &mut service, shared, solved, true).unwrap_or_else(|| {
        // Unreachable while the ledger and the network agree: nothing
        // could confirm between this attempt's snapshot and its apply.
        shared.conflicts.fetch_add(1, Ordering::Relaxed);
        EmbedResponse::failure(
            job.id,
            &ServiceError::Conflict {
                attempts: retries + 1,
            },
        )
    })
}

/// A solved commit attempt: the ledger snapshot it solved against, the
/// result, and the delta committing it would apply.
type Solved = (LedgerSnapshot, SolveResult, CommitDelta);

/// A commit attempt's first half: snapshot the ledger, solve against
/// `service`, derive the delta. `Err` is the answer for a solve that
/// failed or was cancelled, having mutated nothing.
fn solve_commit(
    job: &Job,
    task: &MulticastTask,
    service: &EmbedService,
    shared: &Shared,
) -> Result<Solved, EmbedResponse> {
    let snapshot = shared.ledger.snapshot();
    let cancel = shared.drain.child(job.deadline);
    match service.solve_uncommitted_cancellable(task, Some(&cancel)) {
        Ok(result) => {
            let delta = service.network().commit_delta(task, &result.embedding);
            Ok((snapshot, result, delta))
        }
        // A cancelled solve mutated nothing: report the deadline if the
        // job's budget ran out, otherwise the drain tripped it.
        Err(ServiceError::Core(CoreError::Cancelled)) => Err(if job_expired(job) {
            expired_response(job)
        } else {
            EmbedResponse::failure(job.id, &ServiceError::ShuttingDown)
        }),
        Err(e) => Err(EmbedResponse::failure(job.id, &e)),
    }
}

/// A commit attempt's second half, under the write lock: the deadline and
/// the touched versions are re-checked before anything mutates, and the
/// capacity re-check is `apply_commit` itself (all-or-nothing against the
/// authoritative network). `None` means the attempt lost its snapshot
/// race and mutated nothing. `locked` marks an attempt that held the
/// write lock since its snapshot, where a capacity failure is a refusal.
fn apply_solved(
    job: &Job,
    task: &MulticastTask,
    service: &mut EmbedService,
    shared: &Shared,
    (snapshot, result, delta): Solved,
    locked: bool,
) -> Option<EmbedResponse> {
    match shared.ledger.validate(&snapshot, &delta, job_expired(job)) {
        Ok(()) => {}
        Err(CommitRejection::Expired) => return Some(expired_response(job)),
        Err(CommitRejection::Conflict { .. } | CommitRejection::ConflictEdge { .. }) => {
            return None
        }
    }
    match service.apply_commit(&delta) {
        Ok(()) => {
            // The task rides along so the defrag pass can re-solve this
            // session later.
            shared
                .ledger
                .confirm_with_task(job.id, &delta, Some(task.clone()));
            Some(EmbedResponse::success(job.id, &result, true))
        }
        // Capacity (node or link) moved in a way the version vector
        // cannot see only if the ledger's copy and network disagree — an
        // optimistic attempt treats it as a lost race and re-solves
        // rather than crash or half-apply.
        Err(ServiceError::Core(
            CoreError::CapacityExceeded { .. } | CoreError::LinkCapacityExceeded { .. },
        )) if !locked => None,
        Err(e) => Some(EmbedResponse::failure(job.id, &e)),
    }
}

/// Writes one response line in a single write (one TCP segment under
/// `TCP_NODELAY`); returns whether the connection is still up.
fn send(reply: &Reply, response: &EmbedResponse) -> bool {
    let mut line = response.to_json();
    line.push('\n');
    // Poison recovery: a worker that panicked mid-write at worst left a
    // torn line on one client's connection, not corrupt server state.
    let mut writer = reply.lock().unwrap_or_else(PoisonError::into_inner);
    writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.flush())
        .is_ok()
}

/// Connects to a server address (`host:port` or `unix:<path>`), returning
/// the read/write halves — the client side of [`serve`], shared by
/// `sft client`, the integration tests and the bench.
///
/// # Errors
///
/// I/O errors establishing the connection.
pub fn connect(addr: &str) -> io::Result<Connection> {
    if let Some(path) = addr.strip_prefix("unix:") {
        #[cfg(unix)]
        {
            let stream = UnixStream::connect(path)?;
            let writer = stream.try_clone()?;
            return Ok((Box::new(stream), Box::new(writer)));
        }
        #[cfg(not(unix))]
        {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("unix sockets are not available on this platform: {path}"),
            ));
        }
    }
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let writer = stream.try_clone()?;
    Ok((Box::new(stream), Box::new(writer)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_response, EmbedRequest, ErrorCode, ResponseBody};
    use sft_core::{Network, VnfCatalog};
    use sft_graph::{Graph, NodeId};

    fn ring_network(n: usize, capacity: f64) -> Network {
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_edge(NodeId(i), NodeId((i + 1) % n), 1.0).unwrap();
        }
        Network::builder(g, VnfCatalog::uniform(3))
            .all_servers(capacity)
            .unwrap()
            .uniform_setup_cost(2.0)
            .unwrap()
            .build()
            .unwrap()
    }

    fn start(capacity: f64, config: ServerConfig) -> (ServerHandle, String) {
        let svc = EmbedService::with_defaults(ring_network(10, capacity));
        let handle = serve(svc, "127.0.0.1:0", config).unwrap();
        let addr = handle.local_addr().unwrap().to_string();
        (handle, addr)
    }

    fn roundtrip(addr: &str, lines: &[String]) -> Vec<crate::protocol::EmbedResponse> {
        let (reader, mut writer) = connect(addr).unwrap();
        for l in lines {
            writeln!(writer, "{l}").unwrap();
        }
        writer.flush().unwrap();
        let reader = BufReader::new(reader);
        reader
            .lines()
            .take(lines.len())
            .map(|l| parse_response(&l.unwrap()).unwrap())
            .collect()
    }

    fn request(id: u64, source: usize) -> String {
        let mut r = EmbedRequest::new(source, vec![(source + 3) % 10], vec![0, 1]);
        r.id = Some(id);
        r.to_json()
    }

    #[test]
    fn serves_quotes_over_tcp() {
        let (mut handle, addr) = start(3.0, ServerConfig::default());
        let responses = roundtrip(&addr, &[request(1, 0), request(2, 4)]);
        for r in &responses {
            assert!(
                matches!(
                    r.body,
                    ResponseBody::Ok {
                        committed: false,
                        ..
                    }
                ),
                "{r:?}"
            );
        }
        let stats = handle.stats();
        assert_eq!(stats.tasks_served, 2);
        assert_eq!(stats.commits, 0, "socket default is quote");
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn malformed_and_infeasible_lines_get_structured_errors() {
        let (mut handle, addr) = start(0.0, ServerConfig::default());
        let responses = roundtrip(&addr, &["not json".to_string(), request(7, 0)]);
        let codes: Vec<_> = responses
            .iter()
            .map(|r| match &r.body {
                ResponseBody::Error(e) => e.code,
                other => panic!("expected an error, got {other:?}"),
            })
            .collect();
        assert!(codes.contains(&ErrorCode::ParseError));
        assert!(codes.contains(&ErrorCode::InsufficientCapacity));
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn wire_shutdown_drains_and_rejects_later_requests() {
        let (mut handle, addr) = start(3.0, ServerConfig::default());
        let (reader, mut writer) = connect(&addr).unwrap();
        let mut reader = BufReader::new(reader);
        // Wait the quote out before initiating the drain: once the drain
        // token trips, even an in-flight solve is cancelled.
        writeln!(writer, "{}", request(1, 0)).unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(
            matches!(
                parse_response(line.trim()).unwrap().body,
                ResponseBody::Ok { .. }
            ),
            "{line}"
        );
        writeln!(writer, "{{\"op\":\"shutdown\",\"id\":99}}").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp = parse_response(line.trim()).unwrap();
        assert!(matches!(resp.body, ResponseBody::Draining), "{resp:?}");
        assert_eq!(resp.id, Some(99));
        // A request after the drain is rejected, not dropped.
        writeln!(writer, "{}", request(2, 4)).unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        match parse_response(line.trim()).unwrap().body {
            ResponseBody::Error(e) => assert_eq!(e.code, ErrorCode::ShuttingDown),
            other => panic!("expected shutting_down, got {other:?}"),
        }
        handle.join();
    }

    #[test]
    fn zero_bound_queue_answers_overloaded() {
        let config = ServerConfig {
            admission: AdmissionConfig {
                queue_bound: 0,
                ..AdmissionConfig::default()
            },
            ..ServerConfig::default()
        };
        let (mut handle, addr) = start(3.0, config);
        let responses = roundtrip(&addr, &[request(1, 0)]);
        match &responses[0].body {
            ResponseBody::Error(e) => assert_eq!(e.code, ErrorCode::Overloaded),
            other => panic!("expected overloaded, got {other:?}"),
        }
        handle.shutdown();
        handle.join();
    }

    #[cfg(unix)]
    #[test]
    fn serves_over_a_unix_socket() {
        let path = std::env::temp_dir().join(format!("sft-test-{}.sock", std::process::id()));
        let addr = format!("unix:{}", path.display());
        let svc = EmbedService::with_defaults(ring_network(10, 3.0));
        let mut handle = serve(svc, &addr, ServerConfig::default()).unwrap();
        let responses = roundtrip(&addr, &[request(5, 2)]);
        assert!(matches!(responses[0].body, ResponseBody::Ok { .. }));
        handle.shutdown();
        handle.join();
        let _ = std::fs::remove_file(path);
    }

    /// A `Shared` without a listener, for driving `run_job` directly.
    fn shared_for(capacity: f64, config: ServerConfig) -> Arc<Shared> {
        shared_with(ring_network(10, capacity), config)
    }

    fn shared_with(network: Network, config: ServerConfig) -> Arc<Shared> {
        Arc::new(Shared::new(EmbedService::with_defaults(network), config))
    }

    fn embed_job(id: u64, source: usize, mode: RequestMode, deadline: Option<Instant>) -> Job {
        Job {
            id: Some(id),
            kind: JobKind::Embed {
                task: EmbedRequest::new(source, vec![(source + 3) % 10], vec![0, 1])
                    .to_task()
                    .unwrap(),
                mode,
            },
            deadline_ms: deadline.map(|_| 5),
            deadline,
        }
    }

    fn commit_job_with_deadline(id: u64, source: usize, deadline: Option<Instant>) -> Job {
        embed_job(id, source, RequestMode::Commit, deadline)
    }

    fn release_job_for(id: u64, session: u64) -> Job {
        Job {
            id: Some(id),
            kind: JobKind::Release { session },
            deadline_ms: None,
            deadline: None,
        }
    }

    /// The headline regression: a commit whose deadline expires must
    /// answer `deadline_exceeded` AND leave the network byte-identical —
    /// never the old commit-then-reject leak. (With cancellable solves
    /// the expired token now aborts at the solver's first poll, before
    /// validate even runs; the contract is the same.)
    #[test]
    fn post_solve_expired_commit_leaves_the_network_unchanged() {
        let shared = shared_for(3.0, ServerConfig::default());
        let before_residual = shared.read_service().network().total_residual_capacity();
        let before_pairs = shared.read_service().network().deployed_pairs();

        let long_gone = Instant::now() - Duration::from_millis(50);
        let response = run_job(&commit_job_with_deadline(1, 0, Some(long_gone)), &shared);
        match response.body {
            ResponseBody::Error(e) => assert_eq!(e.code, ErrorCode::DeadlineExceeded),
            other => panic!("expected deadline_exceeded, got {other:?}"),
        }

        let service = shared.read_service();
        assert_eq!(
            service.network().total_residual_capacity(),
            before_residual,
            "an expired commit must not consume capacity"
        );
        assert_eq!(service.network().deployed_pairs(), before_pairs);
        assert_eq!(service.stats().commits, 0);
        assert_eq!(shared.ledger.commit_count(), 0);
    }

    /// The deadline is re-checked before apply: a commit whose solve
    /// finished in time but whose deadline passed while it waited for the
    /// write lock answers `deadline_exceeded`, and the network, the
    /// ledger's copy and the commit log stay untouched.
    #[test]
    fn a_deadline_passing_while_the_commit_waits_for_the_write_lock_refuses_it() {
        let shared = shared_for(3.0, ServerConfig::default());
        let seed = ring_network(10, 3.0);
        let deadline = Instant::now() + Duration::from_millis(300);
        let job = commit_job_with_deadline(1, 0, Some(deadline));
        let guard = shared.read_service();
        let response = std::thread::scope(|s| {
            let worker = s.spawn(|| run_job(&job, &shared));
            // The solve runs under the read half beside this guard; once
            // it has answered, the commit blocks on the write half.
            while guard.stats().tasks_served == 0 {
                assert!(Instant::now() < deadline, "the solve must finish in time");
                std::thread::sleep(Duration::from_millis(1));
            }
            while Instant::now() <= deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            drop(guard);
            worker.join().unwrap()
        });
        match response.body {
            ResponseBody::Error(e) => assert_eq!(e.code, ErrorCode::DeadlineExceeded),
            other => panic!("expected deadline_exceeded, got {other:?}"),
        }
        let copy = shared.ledger.network();
        for network in [shared.read_service().network().clone(), copy] {
            assert_eq!(network.deployment_refcounts(), seed.deployment_refcounts());
            assert_eq!(network.edge_usage(), seed.edge_usage());
            for v in seed.servers() {
                assert_eq!(network.residual_capacity(v), seed.residual_capacity(v));
            }
        }
        assert_eq!(shared.read_service().stats().commits, 0);
        assert!(shared.ledger.commit_log().is_empty());
    }

    /// Deadline expiry cancels a quote *mid-solve*: the per-job child
    /// token (already tripped here) aborts the solver at its first poll,
    /// the client gets the `deadline` taxonomy error, and the solve never
    /// completed — nothing was served, committed, or logged.
    #[test]
    fn expired_quote_is_cancelled_mid_solve_with_the_deadline_taxonomy() {
        let shared = shared_for(3.0, ServerConfig::default());
        let before_residual = shared.read_service().network().total_residual_capacity();
        let before_pairs = shared.read_service().network().deployed_pairs();

        let long_gone = Instant::now() - Duration::from_millis(50);
        let job = embed_job(1, 0, RequestMode::Quote, Some(long_gone));
        let response = run_job(&job, &shared);
        match response.body {
            ResponseBody::Error(e) => assert_eq!(e.code, ErrorCode::DeadlineExceeded),
            other => panic!("expected deadline_exceeded, got {other:?}"),
        }

        let service = shared.read_service();
        assert_eq!(
            service.stats().tasks_served,
            0,
            "the solve was interrupted, not completed"
        );
        assert_eq!(service.network().total_residual_capacity(), before_residual);
        assert_eq!(service.network().deployed_pairs(), before_pairs);
        assert_eq!(shared.ledger.commit_count(), 0);
    }

    /// A drain cancels in-flight solves through the shared token: a job
    /// with no deadline at all is interrupted and answered
    /// `shutting_down`, for quotes and commits alike, with the network
    /// and ledger untouched.
    #[test]
    fn drain_cancels_in_flight_solves_with_shutting_down() {
        let shared = shared_for(3.0, ServerConfig::default());
        shared.drain.cancel();
        for mode in [RequestMode::Quote, RequestMode::Commit] {
            let response = run_job(&embed_job(1, 0, mode, None), &shared);
            match response.body {
                ResponseBody::Error(e) => assert_eq!(e.code, ErrorCode::ShuttingDown),
                other => panic!("expected shutting_down, got {other:?}"),
            }
        }
        assert_eq!(shared.read_service().stats().commits, 0);
        assert_eq!(shared.ledger.commit_count(), 0);
    }

    /// Without a deadline the same job commits — response and network
    /// agree in the success direction too, and the ledger logs it.
    #[test]
    fn live_commits_apply_and_land_in_the_commit_log() {
        let shared = shared_for(3.0, ServerConfig::default());
        for (id, source) in [(1u64, 0usize), (2, 4)] {
            let response = run_job(&commit_job_with_deadline(id, source, None), &shared);
            assert!(
                matches!(
                    response.body,
                    ResponseBody::Ok {
                        committed: true,
                        ..
                    }
                ),
                "{response:?}"
            );
        }
        assert_eq!(shared.read_service().stats().commits, 2);
        let log = shared.ledger.commit_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].seq, 1);
        assert_eq!(log[1].seq, 2);
        // Replay: the logged deltas rebuild the exact deployment set.
        let mut replay = ring_network(10, 3.0);
        for record in &log {
            replay.apply_delta(&record.delta()).unwrap();
        }
        assert_eq!(
            replay.deployed_pairs(),
            shared.read_service().network().deployed_pairs()
        );
    }

    /// Satellite bugfix: a panic while holding the service write lock
    /// poisons it; the server must recover instead of dying on the next
    /// `.expect("service lock")`.
    #[test]
    fn poisoned_service_lock_does_not_kill_the_server() {
        let (mut handle, addr) = start(3.0, ServerConfig::default());
        let shared = Arc::clone(&handle.shared);
        let poisoner = std::thread::spawn(move || {
            let _guard = shared.service.write().unwrap();
            panic!("deliberate panic while holding the service write lock");
        });
        assert!(poisoner.join().is_err(), "the panic must have fired");
        assert!(handle.shared.service.is_poisoned(), "lock must be poisoned");

        // Quotes, commits and stats must all still work.
        let responses = roundtrip(&addr, &[request(1, 0)]);
        assert!(
            matches!(responses[0].body, ResponseBody::Ok { .. }),
            "{responses:?}"
        );
        let mut commit = EmbedRequest::new(0, vec![3, 6], vec![0, 1]);
        commit.id = Some(2);
        commit.mode = Some(RequestMode::Commit);
        let responses = roundtrip(&addr, &[commit.to_json()]);
        assert!(
            matches!(
                responses[0].body,
                ResponseBody::Ok {
                    committed: true,
                    ..
                }
            ),
            "{responses:?}"
        );
        assert_eq!(handle.stats().commits, 1);
        handle.shutdown();
        handle.join();
    }

    /// Satellite bugfix: a full queue of already-expired jobs must not
    /// hold `overloaded` against live work — admission sheds the dead
    /// backlog (answering each) and admits the live job.
    #[test]
    fn expired_backlog_is_shed_so_live_jobs_are_admitted() {
        let shared = shared_for(
            3.0,
            ServerConfig {
                admission: AdmissionConfig {
                    queue_bound: 2,
                    ..AdmissionConfig::default()
                },
                ..ServerConfig::default()
            },
        );
        // Fill the queue with jobs whose deadline is already gone. No
        // worker threads are running, so they sit there dead.
        let long_gone = Instant::now() - Duration::from_millis(50);
        let reply: Reply = Arc::new(Mutex::new(Box::new(io::sink())));
        for id in 0..2 {
            let job = commit_job_with_deadline(id, 0, Some(long_gone));
            shared
                .queue
                .try_push((job, Arc::clone(&reply)))
                .unwrap_or_else(|_| panic!("queue has room"));
        }

        // A live request through the real admission path must shed the
        // dead jobs and be admitted instead of bouncing as overloaded.
        let mut req = EmbedRequest::new(4, vec![7], vec![0, 1]);
        req.id = Some(9);
        let job = admit(Request::Embed(req), &shared).expect("live job passes admission");
        assert!(
            enqueue(job, &reply, &shared).is_ok(),
            "live job must be admitted"
        );
        assert_eq!(shared.shed_jobs.load(Ordering::Relaxed), 2);
        assert_eq!(shared.queue.len(), 1, "only the live job remains");
        let (survivor, _) = shared.queue.pop().unwrap();
        assert_eq!(survivor.id, Some(9));
    }

    /// Workers also shed expired jobs at pop time (counted, answered,
    /// never run) — end-to-end through a real server.
    #[test]
    fn expired_deadlines_are_shed_at_pop_and_counted() {
        let config = ServerConfig {
            admission: AdmissionConfig {
                default_deadline_ms: Some(0),
                ..AdmissionConfig::default()
            },
            ..ServerConfig::default()
        };
        let (mut handle, addr) = start(3.0, config);
        std::thread::sleep(Duration::from_millis(5));
        let responses = roundtrip(&addr, &[request(1, 0)]);
        match &responses[0].body {
            ResponseBody::Error(e) => assert_eq!(e.code, ErrorCode::DeadlineExceeded),
            other => panic!("expected deadline_exceeded, got {other:?}"),
        }
        assert_eq!(handle.stats().jobs_shed, 1);
        handle.shutdown();
        handle.join();
    }

    /// The tentpole, end to end: commit a session over the socket, release
    /// it, and the network is back to its seed state — and the session
    /// taxonomy (`unknown_session`, `already_released`) answers misuse.
    #[test]
    fn release_over_the_socket_returns_capacity() {
        let (mut handle, addr) = start(3.0, ServerConfig::default());
        let seed = ring_network(10, 3.0);
        let mut commit = EmbedRequest::new(0, vec![3, 6], vec![0, 1]);
        commit.id = Some(1);
        commit.mode = Some(RequestMode::Commit);
        let release = Request::Release {
            v: crate::protocol::PROTOCOL_VERSION,
            id: Some(2),
            session: 1,
            deadline_ms: None,
        };
        // Answers on one connection arrive in completion order, so the
        // release goes out only once the commit it names has answered.
        let (reader, mut writer) = connect(&addr).unwrap();
        let mut reader = BufReader::new(reader);
        let mut responses = Vec::new();
        for line in [commit.to_json(), release.to_json()] {
            writeln!(writer, "{line}").unwrap();
            writer.flush().unwrap();
            let mut answer = String::new();
            reader.read_line(&mut answer).unwrap();
            responses.push(parse_response(answer.trim_end()).unwrap());
        }
        assert!(
            matches!(
                responses[0].body,
                ResponseBody::Ok {
                    committed: true,
                    ..
                }
            ),
            "{responses:?}"
        );
        match &responses[1].body {
            ResponseBody::Released { session, freed, .. } => {
                assert_eq!(*session, 1);
                assert!(!freed.is_empty(), "the only session frees its instances");
            }
            other => panic!("expected released, got {other:?}"),
        }
        // The network is bit-identical to the seed again.
        let network = handle.network();
        assert_eq!(network.deployment_refcounts(), seed.deployment_refcounts());
        assert_eq!(
            network.total_residual_capacity(),
            seed.total_residual_capacity()
        );
        let stats = handle.stats();
        assert_eq!(stats.commits, 1);
        assert_eq!(stats.releases, 1);

        // Misuse answers with the session taxonomy, not a hang or a panic.
        let again = Request::Release {
            v: crate::protocol::PROTOCOL_VERSION,
            id: Some(3),
            session: 1,
            deadline_ms: None,
        };
        let never = Request::Release {
            v: crate::protocol::PROTOCOL_VERSION,
            id: Some(4),
            session: 999,
            deadline_ms: None,
        };
        let responses = roundtrip(&addr, &[again.to_json(), never.to_json()]);
        let codes: Vec<_> = responses
            .iter()
            .map(|r| match &r.body {
                ResponseBody::Error(e) => e.code,
                other => panic!("expected an error, got {other:?}"),
            })
            .collect();
        assert!(codes.contains(&ErrorCode::AlreadyReleased), "{codes:?}");
        assert!(codes.contains(&ErrorCode::UnknownSession), "{codes:?}");
        handle.shutdown();
        handle.join();
    }

    /// A release lands in the commit log as a `Release` record, and
    /// serially replaying the mixed log reproduces the network state.
    #[test]
    fn mixed_commit_release_log_replays_serially() {
        use crate::ledger::LedgerOp;
        let shared = shared_for(3.0, ServerConfig::default());
        for (id, source) in [(1u64, 0usize), (2, 4)] {
            let response = run_job(&commit_job_with_deadline(id, source, None), &shared);
            assert!(
                matches!(response.body, ResponseBody::Ok { .. }),
                "{response:?}"
            );
        }
        let response = run_job(&release_job_for(10, 1), &shared);
        assert!(
            matches!(response.body, ResponseBody::Released { .. }),
            "{response:?}"
        );

        let log = shared.ledger.commit_log();
        assert_eq!(log.len(), 3);
        assert_eq!(log[2].op, LedgerOp::Release);
        assert_eq!(log[2].id, Some(1));
        let mut replay = ring_network(10, 3.0);
        for record in &log {
            match record.op {
                LedgerOp::Commit => replay.apply_delta(&record.delta()).unwrap(),
                LedgerOp::Release => {
                    replay.apply_release(&record.delta()).unwrap();
                }
            }
        }
        let network = shared.read_service().network().clone();
        assert_eq!(
            replay.deployment_refcounts(),
            network.deployment_refcounts()
        );
        assert_eq!(
            replay.total_residual_capacity(),
            network.total_residual_capacity()
        );
    }

    /// The re-embed/defrag batch: every live session is torn down and
    /// re-committed inside one critical section; the mixed log (commits,
    /// releases, defrag's release/commit pairs) still replays serially to
    /// the live network, and releasing everything afterwards returns the
    /// network to its seed — defrag never leaks or strands capacity.
    #[test]
    fn defrag_re_embeds_live_sessions_and_stays_replay_consistent() {
        use crate::ledger::LedgerOp;
        let shared = shared_for(3.0, ServerConfig::default());
        for (id, source) in [(1u64, 0usize), (2, 4), (3, 7)] {
            let response = run_job(&commit_job_with_deadline(id, source, None), &shared);
            assert!(
                matches!(response.body, ResponseBody::Ok { .. }),
                "{response:?}"
            );
        }
        let response = run_job(&release_job_for(10, 1), &shared);
        assert!(matches!(response.body, ResponseBody::Released { .. }));

        let report = defrag_pass(&shared);
        assert_eq!(report.sessions, 2, "both live sessions re-embed");
        assert!(report.moved <= report.sessions);
        assert!(
            report.instances_after <= report.instances_before,
            "defrag never adds instances: {report:?}"
        );
        assert_eq!(shared.ledger.live_sessions(), vec![2, 3]);

        // Serial replay of the mixed log reproduces the live network.
        let mut replay = ring_network(10, 3.0);
        for record in &shared.ledger.commit_log() {
            match record.op {
                LedgerOp::Commit => replay.apply_delta(&record.delta()).unwrap(),
                LedgerOp::Release => {
                    replay.apply_release(&record.delta()).unwrap();
                }
            }
        }
        let network = shared.read_service().network().clone();
        assert_eq!(
            replay.deployment_refcounts(),
            network.deployment_refcounts()
        );
        assert_eq!(
            replay.total_residual_capacity(),
            network.total_residual_capacity()
        );

        // Releasing the re-embedded sessions drains back to the seed.
        for (id, session) in [(11u64, 2u64), (12, 3)] {
            let response = run_job(&release_job_for(id, session), &shared);
            assert!(
                matches!(response.body, ResponseBody::Released { .. }),
                "{response:?}"
            );
        }
        let seed = ring_network(10, 3.0);
        let network = shared.read_service().network().clone();
        assert_eq!(network.deployment_refcounts(), seed.deployment_refcounts());
        assert_eq!(
            network.total_residual_capacity(),
            seed.total_residual_capacity()
        );
    }

    /// The `defrag_every` maintenance thread runs passes between requests
    /// without breaking session accounting: however many passes fire, a
    /// later release still returns the network to its seed.
    #[test]
    fn periodic_defrag_preserves_session_accounting() {
        let config = ServerConfig {
            defrag_every: Some(Duration::from_millis(10)),
            ..ServerConfig::default()
        };
        let (mut handle, addr) = start(3.0, config);
        let mut commit = EmbedRequest::new(0, vec![3, 6], vec![0, 1]);
        commit.id = Some(1);
        commit.mode = Some(RequestMode::Commit);
        let responses = roundtrip(&addr, &[commit.to_json()]);
        assert!(matches!(responses[0].body, ResponseBody::Ok { .. }));
        std::thread::sleep(Duration::from_millis(60));
        let release = Request::Release {
            v: crate::protocol::PROTOCOL_VERSION,
            id: Some(2),
            session: 1,
            deadline_ms: None,
        };
        let responses = roundtrip(&addr, &[release.to_json()]);
        assert!(
            matches!(responses[0].body, ResponseBody::Released { .. }),
            "{responses:?}"
        );
        handle.shutdown();
        handle.join();
        let seed = ring_network(10, 3.0);
        let network = handle.network();
        assert_eq!(network.deployment_refcounts(), seed.deployment_refcounts());
        assert_eq!(
            network.total_residual_capacity(),
            seed.total_residual_capacity()
        );
    }

    #[test]
    fn commit_mode_requests_commit_through_the_socket() {
        let (mut handle, addr) = start(3.0, ServerConfig::default());
        let mut r = EmbedRequest::new(0, vec![3, 6], vec![0, 1]);
        r.id = Some(1);
        r.mode = Some(crate::protocol::RequestMode::Commit);
        let responses = roundtrip(&addr, &[r.to_json()]);
        assert!(
            matches!(
                responses[0].body,
                ResponseBody::Ok {
                    committed: true,
                    ..
                }
            ),
            "{responses:?}"
        );
        assert_eq!(handle.stats().commits, 1);
        handle.shutdown();
        handle.join();
    }

    /// A writer that counts its `write` calls.
    struct CountingWriter(Arc<AtomicU64>);

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.fetch_add(1, Ordering::Relaxed);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_answer_is_one_write() {
        let writes = Arc::new(AtomicU64::new(0));
        let reply: Reply = Arc::new(Mutex::new(Box::new(CountingWriter(Arc::clone(&writes)))));
        let parse = crate::protocol::parse_request("not json").unwrap_err();
        assert!(send(&reply, &EmbedResponse::wire_failure(None, parse)));
        assert_eq!(writes.load(Ordering::Relaxed), 1);
        assert!(send(&reply, &EmbedResponse::draining(Some(4))));
        assert_eq!(writes.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn an_over_long_line_is_refused_and_closed_while_others_are_served() {
        let (mut handle, addr) = start(3.0, ServerConfig::default());
        let stream = TcpStream::connect(&addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let sender = std::thread::spawn(move || {
            let _ = writer.write_all(&vec![b'x'; 2 << 20]);
        });
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let answer = parse_response(line.trim_end()).unwrap();
        assert!(
            matches!(&answer.body, ResponseBody::Error(e) if e.code == ErrorCode::ParseError),
            "{answer:?}"
        );
        // The server closed the connection: no further answer arrives.
        let mut rest = String::new();
        assert!(
            !matches!(reader.read_line(&mut rest), Ok(n) if n > 0),
            "{rest}"
        );
        sender.join().unwrap();
        // Another connection is served as usual.
        let responses = roundtrip(&addr, &[request(2, 0)]);
        assert!(
            matches!(responses[0].body, ResponseBody::Ok { .. }),
            "{responses:?}"
        );
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn a_non_utf8_line_is_refused_and_the_next_line_served() {
        let (mut handle, addr) = start(3.0, ServerConfig::default());
        let (reader, mut writer) = connect(&addr).unwrap();
        writer.write_all(b"{\"source\":\xff\xfe}\n").unwrap();
        writeln!(writer, "{}", request(5, 0)).unwrap();
        let answers: Vec<_> = BufReader::new(reader)
            .lines()
            .take(2)
            .map(|l| parse_response(&l.unwrap()).unwrap())
            .collect();
        assert!(
            matches!(&answers[0].body, ResponseBody::Error(e) if e.code == ErrorCode::ParseError),
            "{answers:?}"
        );
        assert_eq!(answers[1].id, Some(5));
        assert!(
            matches!(answers[1].body, ResponseBody::Ok { .. }),
            "{answers:?}"
        );
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn a_commit_cut_off_before_its_newline_never_lands() {
        let (mut handle, addr) = start(3.0, ServerConfig::default());
        let mut r = EmbedRequest::new(0, vec![3, 6], vec![0, 1]);
        r.id = Some(1);
        r.mode = Some(RequestMode::Commit);
        // The client writes the whole commit but no newline, then closes
        // its side; the server's answer (if any) ends the read.
        assert_eq!(
            answer_to_raw_then_close(&addr, r.to_json().into_bytes()),
            None
        );
        assert!(handle.commit_log().is_empty());
        let (now, seed) = (handle.network(), ring_network(10, 3.0));
        assert_eq!(now.deployment_refcounts(), seed.deployment_refcounts());
        assert_eq!(now.edge_usage(), seed.edge_usage());
        for v in seed.servers() {
            assert_eq!(now.residual_capacity(v), seed.residual_capacity(v));
        }
        assert_eq!(handle.stats().commits, 0);
        handle.shutdown();
        handle.join();
    }

    /// A client that writes a burst of commits in one write and vanishes
    /// without reading an answer leaves nothing half-done: the commit log
    /// replays serially to the live network (refcounts, residuals, link
    /// loads), every logged commit is counted, and undoing the log in
    /// reverse returns the replay to the seed.
    #[test]
    fn a_client_vanishing_mid_pipeline_leaves_a_replayable_log() {
        use crate::ledger::LedgerOp;
        let mut g = Graph::new(10);
        for i in 0..10 {
            g.add_edge_with_capacity(NodeId(i), NodeId((i + 1) % 10), 1.0, Some(1.0))
                .unwrap();
        }
        let seed = Network::builder(g, VnfCatalog::uniform(3))
            .all_servers(3.0)
            .unwrap()
            .uniform_setup_cost(2.0)
            .unwrap()
            .build()
            .unwrap();
        let svc = EmbedService::with_defaults(seed.clone());
        let mut handle = serve(svc, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = handle.local_addr().unwrap().to_string();
        const COMMITS: usize = 24;
        let mut burst = String::new();
        for id in 1..=COMMITS {
            let source = id % 10;
            let dests = vec![(source + 3) % 10, (source + 6) % 10];
            let mut r = EmbedRequest::new(source, dests, vec![0, 1]);
            r.id = Some(id as u64);
            r.mode = Some(RequestMode::Commit);
            r.bandwidth = Some(0.05);
            burst.push_str(&r.to_json());
            burst.push('\n');
        }
        let mut client = TcpStream::connect(&addr).unwrap();
        client.write_all(burst.as_bytes()).unwrap();
        drop(client);
        // Drain once half the burst has landed, with the rest in flight.
        let start = Instant::now();
        while handle.commit_log().len() < COMMITS / 2 && start.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(1));
        }
        handle.shutdown();
        handle.join();

        let log = handle.commit_log();
        assert!(!log.is_empty(), "some commits landed before the drain");
        let mut replay = seed.clone();
        for record in &log {
            assert_eq!(record.op, LedgerOp::Commit);
            replay.apply_delta(&record.delta()).unwrap();
        }
        let live = handle.network();
        assert_eq!(replay.deployment_refcounts(), live.deployment_refcounts());
        assert_eq!(replay.edge_usage(), live.edge_usage());
        for v in seed.servers() {
            assert_eq!(replay.residual_capacity(v), live.residual_capacity(v));
        }
        assert_eq!(handle.stats().commits, log.len() as u64);
        for record in log.iter().rev() {
            replay.apply_release(&record.delta()).unwrap();
        }
        assert_eq!(replay.deployment_refcounts(), seed.deployment_refcounts());
        assert_eq!(replay.edge_usage(), seed.edge_usage());
        for v in seed.servers() {
            assert_eq!(replay.residual_capacity(v), seed.residual_capacity(v));
        }
        for e in seed.graph().edge_ids() {
            assert_eq!(replay.edge_residual(e), seed.edge_residual(e));
        }
    }

    /// Writes `bytes`, half-closes, and returns whatever the server
    /// answers before it closes the connection (`None` for nothing).
    fn answer_to_raw_then_close(addr: &str, bytes: Vec<u8>) -> Option<String> {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&bytes).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        (!out.is_empty()).then_some(out)
    }
}
