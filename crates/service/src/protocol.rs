//! The versioned request/response wire protocol (v1).
//!
//! Every channel into the service — `sft batch` files, `sft serve` on
//! stdin, and the socket front-end — speaks newline-delimited JSON built
//! from the types in this module, and **only** from them: requests are
//! parsed by [`parse_request`], responses are rendered by
//! [`EmbedResponse::to_json`], and the one [`SolveResult`] →
//! [`EmbedResponse`] conversion in the workspace is
//! [`EmbedResponse::success`].
//!
//! A request line:
//!
//! ```text
//! {"v": 1, "id": 7, "source": 0, "dests": [12, 31], "sfc": [0, 1],
//!  "mode": "quote", "deadline_ms": 500, "delay_budget_ms": 20.0}
//! ```
//!
//! The two time-valued fields are deliberately distinct: `deadline_ms`
//! is a *queue/solve* deadline (shed the request if unanswered in time),
//! `delay_budget_ms` is a *QoS* budget on the embedded tree itself
//! (every source→destination route must accumulate at most this much
//! link latency). `v`, `id`, `mode` and `deadline_ms` are optional; `v` defaults to the
//! current [`PROTOCOL_VERSION`], and a line carrying any *other* version
//! is rejected with [`ErrorCode::UnsupportedVersion`] — as is any unknown
//! key, so schema drift is an error rather than a silent no-op. The
//! control line `{"op": "shutdown"}` asks a server to drain gracefully,
//! and `{"op": "release", "session": 7}` tears a committed session down,
//! returning its instance references (and, for last references, their
//! capacity) to the network. Builds that predate an op reject it with
//! [`ErrorCode::ParseError`] (`unknown op`) and keep serving — unknown
//! ops are safe to send to old servers.
//!
//! A response line is either a result or a structured error:
//!
//! ```text
//! {"v":1,"id":7,"status":"ok","cost":{"total":12.5,"setup":2,"link":10.5},"committed":false,"instances":[[1,4]]}
//! {"v":1,"id":8,"status":"error","error":{"code":"insufficient_capacity","message":"..."}}
//! ```
//!
//! The parser is hand-rolled (the workspace has no serde) and
//! deliberately strict; serialization is canonical (fixed key order,
//! shortest round-trip float formatting), so equal values serialize to
//! byte-identical lines — the property the batch/socket equivalence
//! tests lean on.

use crate::service::ServiceError;
use sft_core::{CoreError, MulticastTask, Sfc, SolveResult, VnfId};
use sft_graph::NodeId;
use std::fmt;
use std::fmt::Write as _;

/// The wire-protocol version this build speaks.
pub const PROTOCOL_VERSION: u64 = 1;

/// Machine-readable error taxonomy carried in `error.code`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line was not valid protocol JSON (syntax, unknown key,
    /// missing field, bad type).
    ParseError,
    /// The request named a protocol version this build does not speak.
    UnsupportedVersion,
    /// The request parsed but the task is malformed (empty destinations,
    /// out-of-range ids, source among destinations, …).
    InvalidTask,
    /// The solver proved no feasible embedding exists for this task.
    Infeasible,
    /// The task's `delay_budget_ms` cannot be met: every candidate route
    /// for some destination exceeds the budget. Distinct from
    /// [`ErrorCode::Infeasible`] (connectivity/capacity) so clients can
    /// relax the budget rather than retry.
    DelayInfeasible,
    /// Admission control: the task's minimum new-instance demand exceeds
    /// the network's remaining committed capacity.
    InsufficientCapacity,
    /// Admission control: the request queue is at its configured bound.
    Overloaded,
    /// A commit lost its optimistic-concurrency race: concurrent commits
    /// kept invalidating its snapshot for the whole retry budget. The
    /// network is unchanged; the client may retry.
    Conflict,
    /// The request's deadline expired before a result could be produced.
    DeadlineExceeded,
    /// A release named a session id no commit on this server ever
    /// registered.
    UnknownSession,
    /// A release named a session that was already torn down.
    AlreadyReleased,
    /// The server is draining and no longer accepts work.
    ShuttingDown,
    /// An unexpected internal failure (a bug; the message has details).
    Internal,
}

impl ErrorCode {
    /// The wire string for this code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::ParseError => "parse_error",
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::InvalidTask => "invalid_task",
            ErrorCode::Infeasible => "infeasible",
            ErrorCode::DelayInfeasible => "delay_infeasible",
            ErrorCode::InsufficientCapacity => "insufficient_capacity",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Conflict => "conflict",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::UnknownSession => "unknown_session",
            ErrorCode::AlreadyReleased => "already_released",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses a wire string back into a code.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "parse_error" => ErrorCode::ParseError,
            "unsupported_version" => ErrorCode::UnsupportedVersion,
            "invalid_task" => ErrorCode::InvalidTask,
            "infeasible" => ErrorCode::Infeasible,
            "delay_infeasible" => ErrorCode::DelayInfeasible,
            "insufficient_capacity" => ErrorCode::InsufficientCapacity,
            "overloaded" => ErrorCode::Overloaded,
            "conflict" => ErrorCode::Conflict,
            "deadline_exceeded" => ErrorCode::DeadlineExceeded,
            "unknown_session" => ErrorCode::UnknownSession,
            "already_released" => ErrorCode::AlreadyReleased,
            "shutting_down" => ErrorCode::ShuttingDown,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A protocol-level failure: what went wrong, as taxonomy code + text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Taxonomy code for machine handling.
    pub code: ErrorCode,
    /// Human-readable description.
    pub message: String,
}

impl WireError {
    pub(crate) fn parse(message: impl Into<String>) -> Self {
        WireError {
            code: ErrorCode::ParseError,
            message: message.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for WireError {}

/// Per-request solve semantics.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum RequestMode {
    /// Dry-run: solve against the current network without committing
    /// instances. The default on the socket path — quotes are pure
    /// functions of the frozen network, so concurrent arrival order
    /// cannot change any answer.
    #[default]
    Quote,
    /// Solve and commit the new instances, so later tasks reuse them at
    /// zero setup cost (the paper's §IV-D online regime). Commits
    /// serialize against each other.
    Commit,
}

impl RequestMode {
    /// The wire string for this mode.
    pub fn as_str(self) -> &'static str {
        match self {
            RequestMode::Quote => "quote",
            RequestMode::Commit => "commit",
        }
    }
}

/// One embedding request, as carried on the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct EmbedRequest {
    /// Protocol version ([`PROTOCOL_VERSION`] unless the client pinned
    /// one; parsing rejects anything else).
    pub v: u64,
    /// Client correlation id (dimensionless), echoed verbatim in the
    /// response. Channels that interleave responses (the socket) assign
    /// arrival order when absent.
    pub id: Option<u64>,
    /// Source node index (dense node id into the served network).
    pub source: usize,
    /// Destination node indices (dense node ids into the served network).
    pub dests: Vec<usize>,
    /// Service function chain as VNF type indices (dense ids into the
    /// served catalog).
    pub sfc: Vec<usize>,
    /// Per-session bandwidth demand, in the network's capacity unit,
    /// charged against every delivery-tree edge; `None` (or 0) means the
    /// legacy uncapacitated behavior. Unknown-field-safe extension:
    /// omitted on the wire when unset, so bandwidth-free request lines
    /// are byte-identical to older builds.
    pub bandwidth: Option<f64>,
    /// Solve semantics; `None` means the channel default (quote on the
    /// socket, commit on stdin `serve`).
    pub mode: Option<RequestMode>,
    /// Per-request **queue/solve** deadline, in wall-clock milliseconds
    /// from arrival; a request still unanswered when it expires is
    /// rejected with [`ErrorCode::DeadlineExceeded`]. Says nothing about
    /// the embedded tree — that is `delay_budget_ms`.
    pub deadline_ms: Option<u64>,
    /// End-to-end **QoS** budget, in the network's latency unit
    /// (milliseconds by convention): every source→destination route of
    /// the returned embedding must accumulate at most this much link
    /// latency, or the request fails with
    /// [`ErrorCode::DelayInfeasible`]. Must be strictly positive.
    /// Unknown-field-safe extension: omitted on the wire when unset, so
    /// budget-free request lines are byte-identical to older builds.
    pub delay_budget_ms: Option<f64>,
}

impl EmbedRequest {
    /// A v1 request with no optional fields set.
    pub fn new(source: usize, dests: Vec<usize>, sfc: Vec<usize>) -> Self {
        EmbedRequest {
            v: PROTOCOL_VERSION,
            id: None,
            source,
            dests,
            sfc,
            bandwidth: None,
            mode: None,
            deadline_ms: None,
            delay_budget_ms: None,
        }
    }

    /// Converts the request into a validated [`MulticastTask`].
    ///
    /// # Errors
    ///
    /// [`CoreError`] for an empty/duplicated destination set, an empty
    /// chain, or a source listed as a destination.
    pub fn to_task(&self) -> Result<MulticastTask, CoreError> {
        let sfc = Sfc::new(self.sfc.iter().map(|&f| VnfId(f)).collect::<Vec<_>>())?;
        let task = MulticastTask::new(
            NodeId(self.source),
            self.dests.iter().map(|&d| NodeId(d)).collect::<Vec<_>>(),
            sfc,
        )?;
        let task = match self.bandwidth {
            Some(b) => task.with_bandwidth(b)?,
            None => task,
        };
        match self.delay_budget_ms {
            Some(budget) => task.with_delay_budget(budget),
            None => Ok(task),
        }
    }

    /// Canonical one-line JSON serialization (optional fields omitted
    /// when unset). `parse_request` of the output is the identity.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"v\":{}", self.v);
        if let Some(id) = self.id {
            let _ = write!(out, ",\"id\":{id}");
        }
        let _ = write!(out, ",\"source\":{}", self.source);
        let _ = write!(out, ",\"dests\":{}", render_uint_array(&self.dests));
        let _ = write!(out, ",\"sfc\":{}", render_uint_array(&self.sfc));
        if let Some(b) = self.bandwidth {
            let _ = write!(out, ",\"bandwidth\":{b}");
        }
        if let Some(mode) = self.mode {
            let _ = write!(out, ",\"mode\":\"{}\"", mode.as_str());
        }
        if let Some(ms) = self.deadline_ms {
            let _ = write!(out, ",\"deadline_ms\":{ms}");
        }
        if let Some(budget) = self.delay_budget_ms {
            let _ = write!(out, ",\"delay_budget_ms\":{budget}");
        }
        out.push('}');
        out
    }
}

/// Any request line a service channel accepts.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Solve one embedding task.
    Embed(EmbedRequest),
    /// Tear down a committed session: drop its instance references and
    /// return last-reference capacity to the network.
    Release {
        /// Protocol version.
        v: u64,
        /// Client correlation id.
        id: Option<u64>,
        /// The session to release — the correlation id its commit carried.
        session: u64,
        /// Per-request deadline in milliseconds from arrival.
        deadline_ms: Option<u64>,
    },
    /// Drain gracefully: finish in-flight work, then stop.
    Shutdown {
        /// Protocol version.
        v: u64,
        /// Client correlation id.
        id: Option<u64>,
    },
}

impl Request {
    /// The request with `default` in place of a missing correlation id
    /// (an `id` it carries wins).
    pub fn with_default_id(mut self, default: Option<u64>) -> Self {
        let id = match &mut self {
            Request::Embed(req) => &mut req.id,
            Request::Release { id, .. } | Request::Shutdown { id, .. } => id,
        };
        *id = id.or(default);
        self
    }

    /// Canonical one-line JSON serialization.
    pub fn to_json(&self) -> String {
        match self {
            Request::Embed(r) => r.to_json(),
            Request::Release {
                v,
                id,
                session,
                deadline_ms,
            } => {
                let mut out = String::new();
                let _ = write!(out, "{{\"v\":{v}");
                if let Some(id) = id {
                    let _ = write!(out, ",\"id\":{id}");
                }
                let _ = write!(out, ",\"op\":\"release\",\"session\":{session}");
                if let Some(ms) = deadline_ms {
                    let _ = write!(out, ",\"deadline_ms\":{ms}");
                }
                out.push('}');
                out
            }
            Request::Shutdown { v, id } => match id {
                Some(id) => format!("{{\"v\":{v},\"id\":{id},\"op\":\"shutdown\"}}"),
                None => format!("{{\"v\":{v},\"op\":\"shutdown\"}}"),
            },
        }
    }
}

/// One response line: version + correlation id + result or error body.
#[derive(Clone, Debug, PartialEq)]
pub struct EmbedResponse {
    /// Protocol version of the response.
    pub v: u64,
    /// The request's correlation id, echoed back.
    pub id: Option<u64>,
    /// Result payload or structured error.
    pub body: ResponseBody,
}

/// The payload of an [`EmbedResponse`].
#[derive(Clone, Debug, PartialEq)]
pub enum ResponseBody {
    /// A successful embedding.
    Ok {
        /// VNF setup cost of the embedding.
        setup: f64,
        /// Link connection cost of the embedding.
        link: f64,
        /// Whether the embedding's new instances were committed.
        committed: bool,
        /// `(stage, node)` pairs of the instances the embedding uses.
        instances: Vec<(usize, usize)>,
        /// The achieved worst-case source→destination delay, in the same
        /// unit as the request's `delay_budget_ms` — present exactly when
        /// the request carried a budget (and then guaranteed ≤ it).
        /// Omitted on the wire when absent, so budget-free responses are
        /// byte-identical to older builds.
        max_path_delay: Option<f64>,
    },
    /// A released session: what the teardown gave back.
    Released {
        /// The session that was torn down.
        session: u64,
        /// `(vnf, node)` instances whose last reference dropped — their
        /// capacity returned to the network.
        freed: Vec<(usize, usize)>,
        /// References dropped on instances other sessions still share
        /// (no capacity change).
        shared: usize,
        /// Total link bandwidth the teardown gave back (the session's
        /// per-edge charges, summed). Omitted on the wire when zero, so
        /// bandwidth-free sessions answer byte-identically to older
        /// builds.
        bw_freed: f64,
    },
    /// A structured failure.
    Error(WireError),
    /// Acknowledgement of a shutdown request: the server is draining.
    Draining,
}

impl EmbedResponse {
    /// **The** [`SolveResult`] → wire conversion: every channel renders
    /// success through this one constructor.
    pub fn success(id: Option<u64>, result: &SolveResult, committed: bool) -> Self {
        EmbedResponse {
            v: PROTOCOL_VERSION,
            id,
            body: ResponseBody::Ok {
                setup: result.cost.setup,
                link: result.cost.link,
                committed,
                instances: result
                    .embedding
                    .instances()
                    .into_iter()
                    .map(|(stage, node)| (stage, node.index()))
                    .collect(),
                max_path_delay: result.max_path_delay,
            },
        }
    }

    /// A structured error response for a failed request.
    pub fn failure(id: Option<u64>, error: &ServiceError) -> Self {
        EmbedResponse {
            v: PROTOCOL_VERSION,
            id,
            body: ResponseBody::Error(WireError {
                code: error.code(),
                message: error.to_string(),
            }),
        }
    }

    /// A structured error response from a protocol-level failure.
    pub fn wire_failure(id: Option<u64>, error: WireError) -> Self {
        EmbedResponse {
            v: PROTOCOL_VERSION,
            id,
            body: ResponseBody::Error(error),
        }
    }

    /// The acknowledgement sent for a successful [`Request::Release`].
    pub fn released(
        id: Option<u64>,
        session: u64,
        freed: Vec<(usize, usize)>,
        shared: usize,
        bw_freed: f64,
    ) -> Self {
        EmbedResponse {
            v: PROTOCOL_VERSION,
            id,
            body: ResponseBody::Released {
                session,
                freed,
                shared,
                bw_freed,
            },
        }
    }

    /// The acknowledgement sent for a [`Request::Shutdown`].
    pub fn draining(id: Option<u64>) -> Self {
        EmbedResponse {
            v: PROTOCOL_VERSION,
            id,
            body: ResponseBody::Draining,
        }
    }

    /// Total cost for an `Ok` body, `None` otherwise.
    pub fn total_cost(&self) -> Option<f64> {
        match &self.body {
            ResponseBody::Ok { setup, link, .. } => Some(setup + link),
            _ => None,
        }
    }

    /// Canonical one-line JSON serialization. [`parse_response`] of the
    /// output is the identity, and equal responses serialize to
    /// byte-identical lines (floats use shortest round-trip formatting).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"v\":{}", self.v);
        if let Some(id) = self.id {
            let _ = write!(out, ",\"id\":{id}");
        }
        match &self.body {
            ResponseBody::Ok {
                setup,
                link,
                committed,
                instances,
                max_path_delay,
            } => {
                let _ = write!(
                    out,
                    ",\"status\":\"ok\",\"cost\":{{\"total\":{},\"setup\":{},\"link\":{}}}",
                    setup + link,
                    setup,
                    link
                );
                let _ = write!(out, ",\"committed\":{committed},\"instances\":[");
                for (i, (stage, node)) in instances.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "[{stage},{node}]");
                }
                out.push(']');
                if let Some(delay) = max_path_delay {
                    let _ = write!(out, ",\"max_path_delay\":{delay}");
                }
            }
            ResponseBody::Released {
                session,
                freed,
                shared,
                bw_freed,
            } => {
                let _ = write!(out, ",\"status\":\"released\",\"session\":{session}");
                let _ = write!(out, ",\"freed\":[");
                for (i, (f, v)) in freed.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "[{f},{v}]");
                }
                let _ = write!(out, "],\"shared\":{shared}");
                if *bw_freed > 0.0 {
                    let _ = write!(out, ",\"bw_freed\":{bw_freed}");
                }
            }
            ResponseBody::Error(e) => {
                let _ = write!(
                    out,
                    ",\"status\":\"error\",\"error\":{{\"code\":\"{}\",\"message\":{}}}",
                    e.code.as_str(),
                    render_string(&e.message)
                );
            }
            ResponseBody::Draining => out.push_str(",\"status\":\"draining\""),
        }
        out.push('}');
        out
    }
}

/// Renders `[1,2,3]` without spaces.
fn render_uint_array(xs: &[usize]) -> String {
    let mut out = String::from("[");
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{x}");
    }
    out.push(']');
    out
}

/// Renders a JSON string literal with the escapes the parser accepts.
fn render_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parses one request line.
///
/// # Errors
///
/// [`WireError`] with [`ErrorCode::ParseError`] for syntax/schema
/// problems, or [`ErrorCode::UnsupportedVersion`] when `v` names a
/// version this build does not speak.
pub fn parse_request(line: &str) -> Result<Request, WireError> {
    let mut s = Scanner::new(line);
    s.skip_ws();
    s.expect(b'{')?;
    let mut v: Option<u64> = None;
    let mut id: Option<u64> = None;
    let mut source: Option<usize> = None;
    let mut dests: Option<Vec<usize>> = None;
    let mut sfc: Option<Vec<usize>> = None;
    let mut bandwidth: Option<f64> = None;
    let mut mode: Option<RequestMode> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut delay_budget_ms: Option<f64> = None;
    let mut op: Option<String> = None;
    let mut session: Option<u64> = None;
    loop {
        s.skip_ws();
        if s.eat(b'}') {
            break;
        }
        let key = s.parse_string()?;
        s.skip_ws();
        s.expect(b':')?;
        s.skip_ws();
        match key.as_str() {
            "v" => v = Some(s.parse_uint()? as u64),
            "id" => id = Some(s.parse_uint()? as u64),
            "source" => source = Some(s.parse_uint()?),
            "dests" => dests = Some(s.parse_uint_array()?),
            "sfc" => sfc = Some(s.parse_uint_array()?),
            "bandwidth" => {
                let b = s.parse_float()?;
                if !b.is_finite() || b < 0.0 {
                    return Err(WireError::parse(format!(
                        "\"bandwidth\" must be a finite non-negative number, got {b}"
                    )));
                }
                bandwidth = Some(b);
            }
            "mode" => {
                mode = Some(match s.parse_string()?.as_str() {
                    "quote" => RequestMode::Quote,
                    "commit" => RequestMode::Commit,
                    other => {
                        return Err(WireError::parse(format!(
                            "unknown mode \"{other}\" (quote or commit)"
                        )))
                    }
                })
            }
            "deadline_ms" => deadline_ms = Some(s.parse_uint()? as u64),
            "delay_budget_ms" => {
                let budget = s.parse_float()?;
                if !budget.is_finite() || budget <= 0.0 {
                    return Err(WireError::parse(format!(
                        "\"delay_budget_ms\" must be a finite positive number, got {budget}"
                    )));
                }
                delay_budget_ms = Some(budget);
            }
            "op" => op = Some(s.parse_string()?),
            "session" => session = Some(s.parse_uint()? as u64),
            other => return Err(WireError::parse(format!("unknown key \"{other}\""))),
        }
        s.skip_ws();
        if s.eat(b',') {
            continue;
        }
        s.expect(b'}')?;
        break;
    }
    s.skip_ws();
    if !s.at_end() {
        return Err(WireError::parse(format!(
            "trailing input at byte {}",
            s.pos
        )));
    }
    let v = v.unwrap_or(PROTOCOL_VERSION);
    if v != PROTOCOL_VERSION {
        return Err(WireError {
            code: ErrorCode::UnsupportedVersion,
            message: format!(
                "protocol version {v} is not supported (this build speaks v{PROTOCOL_VERSION})"
            ),
        });
    }
    if let Some(op) = op {
        let task_fields = source.is_some()
            || dests.is_some()
            || sfc.is_some()
            || bandwidth.is_some()
            || delay_budget_ms.is_some()
            || mode.is_some();
        match op.as_str() {
            "shutdown" => {
                if task_fields || session.is_some() {
                    return Err(WireError::parse(
                        "a shutdown line carries no task fields".to_string(),
                    ));
                }
                return Ok(Request::Shutdown { v, id });
            }
            "release" => {
                if task_fields {
                    return Err(WireError::parse(
                        "a release line carries no task fields".to_string(),
                    ));
                }
                return Ok(Request::Release {
                    v,
                    id,
                    session: session.ok_or_else(|| WireError::parse("missing key \"session\""))?,
                    deadline_ms,
                });
            }
            other => return Err(WireError::parse(format!("unknown op \"{other}\""))),
        }
    }
    if session.is_some() {
        return Err(WireError::parse(
            "\"session\" is only valid on a release line".to_string(),
        ));
    }
    Ok(Request::Embed(EmbedRequest {
        v,
        id,
        source: source.ok_or_else(|| WireError::parse("missing key \"source\""))?,
        dests: dests.ok_or_else(|| WireError::parse("missing key \"dests\""))?,
        sfc: sfc.ok_or_else(|| WireError::parse("missing key \"sfc\""))?,
        bandwidth,
        mode,
        deadline_ms,
        delay_budget_ms,
    }))
}

/// Parses one response line (the client half of the protocol).
///
/// # Errors
///
/// [`WireError`] for syntax/schema problems or an unsupported `v`.
pub fn parse_response(line: &str) -> Result<EmbedResponse, WireError> {
    let mut s = Scanner::new(line);
    s.skip_ws();
    s.expect(b'{')?;
    let mut v: Option<u64> = None;
    let mut id: Option<u64> = None;
    let mut status: Option<String> = None;
    let mut cost: Option<(f64, f64)> = None; // (setup, link); total is derived
    let mut committed: Option<bool> = None;
    let mut instances: Option<Vec<(usize, usize)>> = None;
    let mut max_path_delay: Option<f64> = None;
    let mut error: Option<WireError> = None;
    let mut session: Option<u64> = None;
    let mut freed: Option<Vec<(usize, usize)>> = None;
    let mut shared: Option<usize> = None;
    let mut bw_freed: Option<f64> = None;
    loop {
        s.skip_ws();
        if s.eat(b'}') {
            break;
        }
        let key = s.parse_string()?;
        s.skip_ws();
        s.expect(b':')?;
        s.skip_ws();
        match key.as_str() {
            "v" => v = Some(s.parse_uint()? as u64),
            "id" => id = Some(s.parse_uint()? as u64),
            "status" => status = Some(s.parse_string()?),
            "cost" => cost = Some(parse_cost_object(&mut s)?),
            "committed" => committed = Some(s.parse_bool()?),
            "instances" => instances = Some(parse_pair_array(&mut s)?),
            "max_path_delay" => max_path_delay = Some(s.parse_float()?),
            "error" => error = Some(parse_error_object(&mut s)?),
            "session" => session = Some(s.parse_uint()? as u64),
            "freed" => freed = Some(parse_pair_array(&mut s)?),
            "shared" => shared = Some(s.parse_uint()?),
            "bw_freed" => bw_freed = Some(s.parse_float()?),
            other => return Err(WireError::parse(format!("unknown key \"{other}\""))),
        }
        s.skip_ws();
        if s.eat(b',') {
            continue;
        }
        s.expect(b'}')?;
        break;
    }
    s.skip_ws();
    if !s.at_end() {
        return Err(WireError::parse(format!(
            "trailing input at byte {}",
            s.pos
        )));
    }
    let v = v.unwrap_or(PROTOCOL_VERSION);
    if v != PROTOCOL_VERSION {
        return Err(WireError {
            code: ErrorCode::UnsupportedVersion,
            message: format!(
                "protocol version {v} is not supported (this build speaks v{PROTOCOL_VERSION})"
            ),
        });
    }
    let body = match status.as_deref() {
        Some("ok") => {
            let (setup, link) =
                cost.ok_or_else(|| WireError::parse("ok response missing \"cost\""))?;
            ResponseBody::Ok {
                setup,
                link,
                committed: committed
                    .ok_or_else(|| WireError::parse("ok response missing \"committed\""))?,
                instances: instances
                    .ok_or_else(|| WireError::parse("ok response missing \"instances\""))?,
                max_path_delay,
            }
        }
        Some("released") => ResponseBody::Released {
            session: session
                .ok_or_else(|| WireError::parse("released response missing \"session\""))?,
            freed: freed.ok_or_else(|| WireError::parse("released response missing \"freed\""))?,
            shared: shared
                .ok_or_else(|| WireError::parse("released response missing \"shared\""))?,
            bw_freed: bw_freed.unwrap_or(0.0),
        },
        Some("error") => ResponseBody::Error(
            error.ok_or_else(|| WireError::parse("error response missing \"error\""))?,
        ),
        Some("draining") => ResponseBody::Draining,
        Some(other) => return Err(WireError::parse(format!("unknown status \"{other}\""))),
        None => return Err(WireError::parse("missing key \"status\"")),
    };
    Ok(EmbedResponse { v, id, body })
}

fn parse_cost_object(s: &mut Scanner<'_>) -> Result<(f64, f64), WireError> {
    let mut setup = None;
    let mut link = None;
    s.expect(b'{')?;
    loop {
        s.skip_ws();
        if s.eat(b'}') {
            break;
        }
        let key = s.parse_string()?;
        s.skip_ws();
        s.expect(b':')?;
        s.skip_ws();
        match key.as_str() {
            "total" => {
                let _ = s.parse_float()?; // derived; setup + link is canonical
            }
            "setup" => setup = Some(s.parse_float()?),
            "link" => link = Some(s.parse_float()?),
            other => return Err(WireError::parse(format!("unknown cost key \"{other}\""))),
        }
        s.skip_ws();
        if s.eat(b',') {
            continue;
        }
        s.expect(b'}')?;
        break;
    }
    Ok((
        setup.ok_or_else(|| WireError::parse("cost missing \"setup\""))?,
        link.ok_or_else(|| WireError::parse("cost missing \"link\""))?,
    ))
}

fn parse_error_object(s: &mut Scanner<'_>) -> Result<WireError, WireError> {
    let mut code = None;
    let mut message = None;
    s.expect(b'{')?;
    loop {
        s.skip_ws();
        if s.eat(b'}') {
            break;
        }
        let key = s.parse_string()?;
        s.skip_ws();
        s.expect(b':')?;
        s.skip_ws();
        match key.as_str() {
            "code" => {
                let raw = s.parse_string()?;
                code =
                    Some(ErrorCode::parse(&raw).ok_or_else(|| {
                        WireError::parse(format!("unknown error code \"{raw}\""))
                    })?);
            }
            "message" => message = Some(s.parse_string()?),
            other => return Err(WireError::parse(format!("unknown error key \"{other}\""))),
        }
        s.skip_ws();
        if s.eat(b',') {
            continue;
        }
        s.expect(b'}')?;
        break;
    }
    Ok(WireError {
        code: code.ok_or_else(|| WireError::parse("error missing \"code\""))?,
        message: message.ok_or_else(|| WireError::parse("error missing \"message\""))?,
    })
}

fn parse_pair_array(s: &mut Scanner<'_>) -> Result<Vec<(usize, usize)>, WireError> {
    let mut out = Vec::new();
    s.expect(b'[')?;
    s.skip_ws();
    if s.eat(b']') {
        return Ok(out);
    }
    loop {
        s.skip_ws();
        s.expect(b'[')?;
        s.skip_ws();
        let a = s.parse_uint()?;
        s.skip_ws();
        s.expect(b',')?;
        s.skip_ws();
        let b = s.parse_uint()?;
        s.skip_ws();
        s.expect(b']')?;
        out.push((a, b));
        s.skip_ws();
        if s.eat(b',') {
            continue;
        }
        s.expect(b']')?;
        return Ok(out);
    }
}

/// Parses a whole JSONL stream; returns `(1-based line number, outcome)`
/// for every non-blank, non-comment line.
pub fn parse_stream(text: &str) -> Vec<(usize, Result<Request, WireError>)> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| {
            let t = l.trim();
            !t.is_empty() && !t.starts_with('#')
        })
        .map(|(i, l)| (i + 1, parse_request(l)))
        .collect()
}

/// Minimal byte scanner over one line.
struct Scanner<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn new(line: &'a str) -> Self {
        Scanner {
            bytes: line.as_bytes(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `c` if it is next; returns whether it did.
    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), WireError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(WireError::parse(format!(
                "expected `{}` at byte {}, found {}",
                c as char,
                self.pos,
                match self.peek() {
                    Some(b) => format!("`{}`", b as char),
                    None => "end of line".into(),
                }
            )))
        }
    }

    fn parse_string(&mut self) -> Result<String, WireError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(WireError::parse("unterminated string"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return Err(WireError::parse("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(WireError::parse("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| WireError::parse("invalid \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| WireError::parse("invalid \\u escape"))?;
                            let c = char::from_u32(cp).ok_or_else(|| {
                                WireError::parse("\\u escape is not a scalar value")
                            })?;
                            out.push(c);
                            self.pos += 4;
                        }
                        other => {
                            return Err(WireError::parse(format!(
                                "unsupported escape `\\{}`",
                                other as char
                            )))
                        }
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar (multi-byte sequences whole).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xc0) == 0x80 {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| WireError::parse("invalid UTF-8 in string"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn parse_uint(&mut self) -> Result<usize, WireError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(WireError::parse(format!(
                "expected a non-negative integer at byte {start}"
            )));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits are ASCII")
            .parse()
            .map_err(|_| WireError::parse(format!("integer out of range at byte {start}")))
    }

    fn parse_bool(&mut self) -> Result<bool, WireError> {
        for (lit, value) in [("true", true), ("false", false)] {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                return Ok(value);
            }
        }
        Err(WireError::parse(format!(
            "expected a boolean at byte {}",
            self.pos
        )))
    }

    fn parse_float(&mut self) -> Result<f64, WireError> {
        let start = self.pos;
        if matches!(self.peek(), Some(b'-')) {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(WireError::parse(format!(
                "expected a number at byte {start}"
            )));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number chars are ASCII")
            .parse()
            .map_err(|_| WireError::parse(format!("malformed number at byte {start}")))
    }

    fn parse_uint_array(&mut self) -> Result<Vec<usize>, WireError> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(out);
        }
        loop {
            self.skip_ws();
            out.push(self.parse_uint()?);
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            self.expect(b']')?;
            return Ok(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn embed(line: &str) -> EmbedRequest {
        match parse_request(line).unwrap() {
            Request::Embed(r) => r,
            other => panic!("expected an embed request, got {other:?}"),
        }
    }

    #[test]
    fn parses_the_legacy_three_key_shape() {
        let req = embed(r#"{"source": 0, "dests": [12, 31, 40], "sfc": [0, 1, 2]}"#);
        assert_eq!(req.v, PROTOCOL_VERSION);
        assert_eq!(req.source, 0);
        assert_eq!(req.dests, vec![12, 31, 40]);
        assert_eq!(req.sfc, vec![0, 1, 2]);
        assert_eq!(req.id, None);
        assert_eq!(req.mode, None);
        let task = req.to_task().unwrap();
        assert_eq!(task.destination_count(), 3);
    }

    #[test]
    fn parses_every_v1_field() {
        let req = embed(
            r#"{"v": 1, "id": 9, "source": 2, "dests": [5], "sfc": [1], "mode": "commit", "deadline_ms": 250}"#,
        );
        assert_eq!(req.id, Some(9));
        assert_eq!(req.mode, Some(RequestMode::Commit));
        assert_eq!(req.deadline_ms, Some(250));
    }

    #[test]
    fn key_order_and_whitespace_are_free() {
        let req = embed(r#"  { "sfc":[1] ,"source":5,  "dests":[ 2 ] }  "#);
        assert_eq!(req.source, 5);
        assert_eq!(req.dests, vec![2]);
        assert_eq!(req.sfc, vec![1]);
    }

    #[test]
    fn rejects_malformed_lines_with_reasons() {
        for (line, needle) in [
            ("", "expected `{`"),
            ("{", "expected `\"`"),
            (r#"{"source": 1}"#, "missing key \"dests\""),
            (r#"{"source": 1, "dests": [2], "sfc": [0]} x"#, "trailing"),
            (r#"{"source": -1, "dests": [2], "sfc": [0]}"#, "integer"),
            (r#"{"bogus": 1}"#, "unknown key"),
            (r#"{"source": 1, "dests": 2, "sfc": [0]}"#, "expected `[`"),
            (r#"{"source": 1, "dests": [2,], "sfc": [0]}"#, "integer"),
            (
                r#"{"source": 1, "dests": [2], "sfc": [0], "mode": "warp"}"#,
                "unknown mode",
            ),
            (r#"{"op": "explode"}"#, "unknown op"),
            (r#"{"op": "shutdown", "source": 1}"#, "no task fields"),
            (r#"{"op": "release"}"#, "missing key \"session\""),
            (
                r#"{"op": "release", "session": 3, "sfc": [0]}"#,
                "no task fields",
            ),
            (
                r#"{"source": 1, "dests": [2], "sfc": [0], "session": 3}"#,
                "only valid on a release line",
            ),
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.code, ErrorCode::ParseError, "line {line:?}");
            assert!(err.message.contains(needle), "line {line:?}: got {err:?}");
        }
    }

    #[test]
    fn unknown_version_is_a_versioned_error() {
        let err = parse_request(r#"{"v": 2, "source": 0, "dests": [1], "sfc": [0]}"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::UnsupportedVersion);
        assert!(err.message.contains("v1"));
        // Responses carry the same taxonomy.
        let resp = EmbedResponse::wire_failure(Some(3), err);
        let line = resp.to_json();
        assert!(line.contains("\"code\":\"unsupported_version\""), "{line}");
        assert_eq!(parse_response(&line).unwrap(), resp);
    }

    #[test]
    fn shutdown_round_trips() {
        let req = Request::Shutdown {
            v: PROTOCOL_VERSION,
            id: Some(4),
        };
        assert_eq!(parse_request(&req.to_json()).unwrap(), req);
        let bare = parse_request(r#"{"op": "shutdown"}"#).unwrap();
        assert_eq!(
            bare,
            Request::Shutdown {
                v: PROTOCOL_VERSION,
                id: None
            }
        );
    }

    #[test]
    fn release_round_trips() {
        let req = Request::Release {
            v: PROTOCOL_VERSION,
            id: Some(11),
            session: 7,
            deadline_ms: Some(250),
        };
        let line = req.to_json();
        assert_eq!(parse_request(&line).unwrap(), req);
        let bare = parse_request(r#"{"op": "release", "session": 7}"#).unwrap();
        assert_eq!(
            bare,
            Request::Release {
                v: PROTOCOL_VERSION,
                id: None,
                session: 7,
                deadline_ms: None,
            }
        );
        let resp = EmbedResponse::released(Some(11), 7, vec![(0, 4), (2, 9)], 1, 0.0);
        let line = resp.to_json();
        assert!(line.contains("\"status\":\"released\""), "{line}");
        assert!(line.contains("\"freed\":[[0,4],[2,9]]"), "{line}");
        assert!(
            !line.contains("bw_freed"),
            "zero bandwidth stays off the wire"
        );
        assert_eq!(parse_response(&line).unwrap(), resp);
        // Empty freed list (a fully shared session) still round-trips.
        let resp = EmbedResponse::released(None, 9, vec![], 3, 0.0);
        assert_eq!(parse_response(&resp.to_json()).unwrap(), resp);
        // A bandwidth-carrying teardown reports what came back.
        let resp = EmbedResponse::released(Some(2), 7, vec![], 1, 2.5);
        let line = resp.to_json();
        assert!(line.contains("\"bw_freed\":2.5"), "{line}");
        assert_eq!(parse_response(&line).unwrap(), resp);
    }

    #[test]
    fn bandwidth_extension_round_trips_and_validates() {
        let req = embed(r#"{"source": 0, "dests": [1], "sfc": [0], "bandwidth": 2.5}"#);
        assert_eq!(req.bandwidth, Some(2.5));
        assert_eq!(req.to_task().unwrap().bandwidth(), 2.5);
        let line = req.to_json();
        assert!(line.contains("\"bandwidth\":2.5"), "{line}");
        assert_eq!(embed(&line), req);
        // Legacy lines stay byte-identical: no key emitted when unset.
        let legacy = EmbedRequest::new(0, vec![1], vec![0]);
        assert!(!legacy.to_json().contains("bandwidth"));
        assert_eq!(legacy.to_task().unwrap().bandwidth(), 0.0);
        // Malformed demands are parse errors, not task errors.
        let err = parse_request(r#"{"source": 0, "dests": [1], "sfc": [0], "bandwidth": -1}"#)
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::ParseError);
        // Bandwidth is a task field: a release line must not carry it.
        assert!(parse_request(r#"{"op": "release", "session": 1, "bandwidth": 1.0}"#).is_err());
    }

    #[test]
    fn delay_budget_extension_round_trips_and_validates() {
        let req = embed(r#"{"source": 0, "dests": [1], "sfc": [0], "delay_budget_ms": 20.5}"#);
        assert_eq!(req.delay_budget_ms, Some(20.5));
        assert_eq!(req.to_task().unwrap().delay_budget(), Some(20.5));
        let line = req.to_json();
        assert!(line.contains("\"delay_budget_ms\":20.5"), "{line}");
        assert_eq!(embed(&line), req);
        // Legacy lines stay byte-identical: no key emitted when unset.
        let legacy = EmbedRequest::new(0, vec![1], vec![0]);
        assert!(!legacy.to_json().contains("delay_budget_ms"));
        assert_eq!(legacy.to_task().unwrap().delay_budget(), None);
        // The queue deadline and the QoS budget are independent fields.
        let both = embed(
            r#"{"source": 0, "dests": [1], "sfc": [0], "deadline_ms": 250, "delay_budget_ms": 9}"#,
        );
        assert_eq!(both.deadline_ms, Some(250));
        assert_eq!(both.delay_budget_ms, Some(9.0));
        // Non-positive budgets are structured parse errors, not task errors.
        for bad in ["0", "-1", "-0.5"] {
            let line =
                format!(r#"{{"source": 0, "dests": [1], "sfc": [0], "delay_budget_ms": {bad}}}"#);
            let err = parse_request(&line).unwrap_err();
            assert_eq!(err.code, ErrorCode::ParseError, "budget {bad}");
            assert!(err.message.contains("positive"), "budget {bad}: {err}");
        }
        // The budget is a task field: a release line must not carry it.
        assert!(
            parse_request(r#"{"op": "release", "session": 1, "delay_budget_ms": 5.0}"#).is_err()
        );
    }

    #[test]
    fn requests_round_trip_through_canonical_json() {
        let mut req = EmbedRequest::new(3, vec![7, 9], vec![0, 2]);
        req.id = Some(42);
        req.mode = Some(RequestMode::Quote);
        req.deadline_ms = Some(1000);
        let line = req.to_json();
        assert_eq!(embed(&line), req);
        // Canonical output is stable under a second round trip.
        assert_eq!(embed(&line).to_json(), line);
    }

    #[test]
    fn responses_round_trip_including_escaped_messages() {
        let err = ServiceError::Parse {
            line: 7,
            reason: "unknown key \"bogus\"\twith\ntabs".into(),
        };
        let resp = EmbedResponse::failure(Some(7), &err);
        let line = resp.to_json();
        assert_eq!(parse_response(&line).unwrap(), resp);
        let ok = EmbedResponse {
            v: PROTOCOL_VERSION,
            id: None,
            body: ResponseBody::Ok {
                setup: 2.0,
                link: 10.25,
                committed: true,
                instances: vec![(1, 4), (2, 9)],
                max_path_delay: None,
            },
        };
        let line = ok.to_json();
        assert!(line.contains("\"total\":12.25"), "{line}");
        assert!(
            !line.contains("max_path_delay"),
            "budget-free responses stay byte-identical: {line}"
        );
        assert_eq!(parse_response(&line).unwrap(), ok);
        // A delay-constrained response reports the achieved delay.
        let qos = EmbedResponse {
            v: PROTOCOL_VERSION,
            id: Some(4),
            body: ResponseBody::Ok {
                setup: 2.0,
                link: 10.25,
                committed: false,
                instances: vec![(1, 4)],
                max_path_delay: Some(17.5),
            },
        };
        let line = qos.to_json();
        assert!(line.contains("\"max_path_delay\":17.5"), "{line}");
        assert_eq!(parse_response(&line).unwrap(), qos);
        let drain = EmbedResponse::draining(Some(1));
        assert_eq!(parse_response(&drain.to_json()).unwrap(), drain);
    }

    #[test]
    fn stream_skips_blanks_and_comments_and_numbers_lines() {
        let text =
            "\n# palmetto demo tasks\n{\"source\": 0, \"dests\": [1], \"sfc\": [0]}\nnot json\n";
        let parsed = parse_stream(text);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, 3);
        assert!(parsed[0].1.is_ok());
        assert_eq!(parsed[1].0, 4);
        assert!(parsed[1].1.is_err());
    }

    #[test]
    fn request_to_task_validates_domain_rules() {
        // Source among destinations is a domain error, not a parse error.
        let req = embed(r#"{"source": 2, "dests": [2], "sfc": [0]}"#);
        assert!(req.to_task().is_err());
        // Empty chain.
        let req = embed(r#"{"source": 0, "dests": [1], "sfc": []}"#);
        assert!(req.to_task().is_err());
    }

    #[test]
    fn error_codes_round_trip_their_wire_strings() {
        for code in [
            ErrorCode::ParseError,
            ErrorCode::UnsupportedVersion,
            ErrorCode::InvalidTask,
            ErrorCode::Infeasible,
            ErrorCode::DelayInfeasible,
            ErrorCode::InsufficientCapacity,
            ErrorCode::Overloaded,
            ErrorCode::Conflict,
            ErrorCode::DeadlineExceeded,
            ErrorCode::UnknownSession,
            ErrorCode::AlreadyReleased,
            ErrorCode::ShuttingDown,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::parse("nope"), None);
    }
}
