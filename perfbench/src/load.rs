//! Set-up and the closed-loop socket load.
//!
//! Load-generator hygiene: every connection comes from
//! `sft_service::connect` (which sets `TCP_NODELAY`), each request line
//! goes out in one `write_all`, and every input is generated before the
//! clock starts. Sending without `TCP_NODELAY`, as a `writeln!` on a raw
//! stream does, splits each line into two segments and puts every round
//! trip on the Linux delayed-ACK floor: against the same server, on a
//! shared two-core host, a Palmetto quote's p50 measured 44.1 ms that way
//! and 1.0 ms through `connect`. The socket and churn latencies in the older `BENCH_*.json`
//! files sit on that floor, so no claim should be compared against them.

use crate::report::median;
use crate::workload::{release_line, Recipe, Step, Stream, PROBE_SESSION_BASE};
use sft_core::{SolveOptions, Strategy};
use sft_service::protocol::{parse_response, ErrorCode, ResponseBody};
use sft_service::{
    connect, serve, AdmissionConfig, EmbedService, RequestMode, ServerConfig, ServerHandle,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// `sft serve --listen`'s defaults: 4 workers, queue bound 128, capacity
/// pre-check on, no default deadline, quote by default, 3 commit
/// retries, no periodic defrag; the solver runs its stage-1 sweep on all
/// cores (`SolveOptions::default()`).
fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 4,
        admission: AdmissionConfig {
            queue_bound: 128,
            default_deadline_ms: None,
            capacity_check: true,
        },
        default_mode: RequestMode::Quote,
        commit_retries: 3,
        defrag_every: None,
    }
}

/// One client connection: a buffered reader and the write half.
pub struct Client {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
    buf: String,
}

impl Client {
    fn open(addr: &str) -> Result<Self, String> {
        let (reader, writer) = connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        Ok(Client {
            reader: BufReader::new(reader),
            writer,
            buf: String::new(),
        })
    }

    /// Sends one line in a single write and reads one answer line back;
    /// returns the answer (without its newline) and the round trip.
    pub fn round_trip(&mut self, line: &str) -> Result<(&str, u64), String> {
        self.buf.clear();
        let start = Instant::now();
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let read = self
            .reader
            .read_line(&mut self.buf)
            .map_err(|e| format!("read: {e}"))?;
        let rtt = start.elapsed().as_nanos() as u64;
        if read == 0 || !self.buf.ends_with('\n') {
            return Err("connection closed before a full answer line".into());
        }
        Ok((self.buf.trim_end_matches('\n'), rtt))
    }
}

/// A running server and the address it listens on.
pub struct Server {
    pub handle: ServerHandle,
    pub addr: String,
}

impl Server {
    pub fn stop(mut self) {
        self.handle.shutdown();
        self.handle.join();
    }
}

/// Builds the network and starts the server, timing from the start of
/// `Network::build` until a first connection is established (`connect`
/// returned). The clock stops there, not at the first answer: the
/// server's accept loop polls every 20 ms, so whether the first answer
/// comes about 1 ms or 21 ms after the build is a race between two
/// threads, and a median over that race flips between the two modes.
/// Returns the server, that connection, and the set-up time in seconds.
pub fn set_up(recipe: &Recipe) -> Result<(Server, Client, f64), String> {
    let start = Instant::now();
    let network = recipe.build();
    let service = EmbedService::new(network, Strategy::Msa, SolveOptions::default())
        .map_err(|e| format!("service: {e}"))?;
    let handle =
        serve(service, "127.0.0.1:0", server_config()).map_err(|e| format!("serve: {e}"))?;
    let addr = handle
        .local_addr()
        .ok_or("a TCP server has an address")?
        .to_string();
    let client = Client::open(&addr)?;
    let secs = start.elapsed().as_secs_f64();
    Ok((Server { handle, addr }, client, secs))
}

/// How the server answered one request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// An embedding (`ok`).
    Ok,
    /// A release acknowledgement (`released`).
    Released,
    /// A legitimate refusal: `insufficient_capacity`, `infeasible` or
    /// `delay_infeasible`.
    Refused(ErrorCode),
    /// No answer, an unstructured one, or any other error (its code):
    /// the request failed.
    Failed(Option<ErrorCode>),
}

/// One request of the load.
pub struct Sample {
    pub embed: bool,
    pub rtt_ns: u64,
    pub outcome: Outcome,
    /// `cost.total` of an `ok` embed answer.
    pub cost: Option<f64>,
    /// Sent inside the timed window (not during the warm-up or drain).
    pub timed: bool,
}

/// What one connection saw.
#[derive(Default)]
pub struct ConnLog {
    pub samples: Vec<Sample>,
    /// Requests the connection sent in the warm-up and the timed window.
    pub steps: usize,
    /// Wire answers of the embeds, kept for the replay comparison.
    pub answers: Vec<String>,
    /// Broken correctness gates (missing, unstructured, misaddressed or
    /// wrong answers).
    pub violations: Vec<String>,
}

/// Per-workload check of a quote answer against its expected bytes.
pub type Expect<'a> = &'a (dyn Fn(usize, u64, &str) -> bool + Sync);

/// How much one connection sends in an episode.
pub struct Budget {
    /// Requests sent untimed before the start signal.
    pub warmup: usize,
    /// Requests sent in all, warm-up included.
    pub steps: usize,
    /// Longest the timed window may last.
    pub seconds: f64,
}

/// Drives one connection in a closed loop (one request in flight): a
/// sentinel round trip (so no timed request waits for the server to
/// accept the connection), the untimed warm-up, then the timed window
/// until the budget is spent or `stop` is set; the first connection to
/// finish sets `stop`, so both load the server for the same window. Then
/// it waits at `window_done` and `drain` (the caller checks the live
/// state in between), releases whatever sessions it still holds, and
/// sends a sentinel whose answer must be the next line, so no request was
/// answered twice.
pub fn drive(
    mut client: Client,
    mut stream: Stream<'_>,
    [start, window_done, drain]: [&Barrier; 3],
    stop: &AtomicBool,
    budget: &Budget,
    keep_answers: bool,
    expect: Expect<'_>,
) -> ConnLog {
    let mut log = ConnLog::default();
    let mut up = match sentinel(&mut client) {
        Ok(()) => true,
        Err(e) => {
            log.violations.push(e);
            false
        }
    };
    let mut next = |timed: bool, log: &mut ConnLog, client: &mut Client| {
        let Some(step) = stream.next() else {
            log.violations.push(format!(
                "the generated stream ran out after {} steps",
                log.steps
            ));
            return false;
        };
        log.steps += 1;
        send(
            client,
            step,
            &mut stream,
            log,
            timed,
            keep_answers,
            Some(expect),
        )
    };
    while up && log.steps < budget.warmup {
        up = next(false, &mut log, &mut client);
    }
    start.wait();
    let end = Instant::now() + Duration::from_secs_f64(budget.seconds);
    while up && log.steps < budget.steps && !stop.load(Ordering::Relaxed) && Instant::now() < end {
        up = next(true, &mut log, &mut client);
    }
    stop.store(true, Ordering::Relaxed);
    window_done.wait();
    drain.wait();
    if !up {
        return log;
    }
    for step in stream.drain() {
        if !send(&mut client, step, &mut stream, &mut log, false, false, None) {
            return log;
        }
    }
    if let Err(e) = sentinel(&mut client) {
        log.violations.push(e);
    }
    log
}

/// A line that is not protocol JSON: the connection reader answers it
/// itself with an id-less `parse_error`.
const SENTINEL: &str = "probe\n";

/// One sentinel round trip; its answer must be the next line.
fn sentinel(client: &mut Client) -> Result<(), String> {
    match client.round_trip(SENTINEL) {
        Ok((answer, _)) if is_parse_error(answer) => Ok(()),
        Ok((answer, _)) => Err(format!("sentinel got a stray answer: {answer}")),
        Err(e) => Err(format!("sentinel: {e}")),
    }
}

fn is_parse_error(answer: &str) -> bool {
    matches!(parse_response(answer), Ok(r) if r.id.is_none()
        && matches!(&r.body, ResponseBody::Error(e) if e.code == ErrorCode::ParseError))
}

/// Sends one step, classifies its answer, and updates the stream's
/// window. Returns false when the connection is unusable.
fn send(
    client: &mut Client,
    step: Step,
    stream: &mut Stream<'_>,
    log: &mut ConnLog,
    timed: bool,
    keep_answers: bool,
    expect: Option<Expect<'_>>,
) -> bool {
    let (id, line, embed, session, group) = match step {
        Step::Embed { id, line, group } => (id, line, true, None, group),
        Step::Release { id, session, line } => (id, line, false, Some(session), None),
    };
    let (answer, rtt_ns) = match client.round_trip(&line) {
        Ok(a) => a,
        Err(e) => {
            log.violations.push(format!("request {id}: {e}"));
            log.samples.push(Sample {
                embed,
                rtt_ns: 0,
                outcome: Outcome::Failed(None),
                cost: None,
                timed,
            });
            return false;
        }
    };
    if let (Some(group), Some(expect)) = (group, expect) {
        if !expect(group, id, answer) {
            log.violations.push(format!(
                "quote {id} (group {group}) differs from the in-process answer: {answer}"
            ));
        }
    }
    if embed && keep_answers {
        log.answers.push(answer.to_string());
    }
    let (outcome, cost) = match classify(answer, id, session) {
        Ok(c) => c,
        Err(e) => {
            log.violations.push(e);
            (Outcome::Failed(None), None)
        }
    };
    if embed && outcome == Outcome::Ok && group.is_none() {
        stream.committed(id);
    }
    log.samples.push(Sample {
        embed,
        rtt_ns,
        outcome,
        cost,
        timed,
    });
    true
}

/// Classifies one answer. An `Err` is a broken gate: an unstructured
/// answer, or one addressed to another request or of the wrong kind.
fn classify(answer: &str, id: u64, release: Option<u64>) -> Result<(Outcome, Option<f64>), String> {
    let response = parse_response(answer)
        .map_err(|e| format!("request {id}: unstructured answer ({e:?}): {answer}"))?;
    if response.id != Some(id) {
        return Err(format!("request {id}: answer carries id {:?}", response.id));
    }
    Ok(match (&response.body, release) {
        (ResponseBody::Ok { .. }, None) => (Outcome::Ok, response.total_cost()),
        (ResponseBody::Released { session, .. }, Some(s)) if *session == s => {
            (Outcome::Released, None)
        }
        (ResponseBody::Error(e), None)
            if matches!(
                e.code,
                ErrorCode::InsufficientCapacity
                    | ErrorCode::Infeasible
                    | ErrorCode::DelayInfeasible
            ) =>
        {
            (Outcome::Refused(e.code), None)
        }
        (ResponseBody::Error(e), _) => (Outcome::Failed(Some(e.code)), None),
        _ => return Err(format!("request {id}: answer of the wrong kind: {answer}")),
    })
}

/// Probe round trips, outside the timed load: the floor (a line the
/// connection reader answers itself) and the hand-off (a release of an
/// unknown session, which a worker answers without solving). Returns the
/// two medians in microseconds.
pub fn probe(client: &mut Client, rounds: usize) -> Result<(f64, f64), String> {
    let mut floor = Vec::with_capacity(rounds);
    let mut handoff = Vec::with_capacity(rounds);
    for i in 0..rounds as u64 {
        let (answer, rtt) = client.round_trip(SENTINEL)?;
        if !is_parse_error(answer) {
            return Err(format!("floor probe answered {answer}"));
        }
        floor.push(rtt as f64 / 1e3);
        let id = PROBE_SESSION_BASE + i;
        let (answer, rtt) = client.round_trip(&release_line(id, id))?;
        match parse_response(answer) {
            Ok(r) if matches!(&r.body, ResponseBody::Error(e) if e.code == ErrorCode::UnknownSession) =>
                {}
            _ => return Err(format!("handoff probe answered {answer}")),
        }
        handoff.push(rtt as f64 / 1e3);
    }
    let floor = median(&mut floor);
    Ok((floor, median(&mut handoff) - floor))
}

/// Opens a fresh connection to the server.
pub fn open(server: &Server) -> Result<Client, String> {
    Client::open(&server.addr)
}
