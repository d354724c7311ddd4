//! Long-running SFT-embedding service.
//!
//! The paper's setting (§I, §IV-D) is inherently online: pre-deployed VNF
//! instances are reused at zero setup cost, so each admitted multicast
//! task changes the cost landscape for the next one. This crate turns the
//! per-call solvers of `sft-core` into a process-shaped component:
//!
//! * [`EmbedService`] owns one [`sft_core::Network`] whose shortest-path
//!   rows are computed **once** per source (on first use) and shared by
//!   every request for the service's lifetime.
//! * A persistent [`sft_graph::SteinerCache`] lives across requests:
//!   delivery trees built for one task are served from the cache to later
//!   tasks with the same root and destination set. Trees depend only on
//!   the graph topology and edge weights — never on capacities or
//!   deployments — and the graph never changes under a network, so
//!   nothing ever invalidates them (see [`sft_graph::cache`]).
//! * [`protocol`] defines the **one** versioned request/response wire
//!   format (`v` field, error taxonomy, canonical serialization) spoken
//!   by every channel — `sft batch` files, stdin `serve`, and the socket
//!   front-end.
//! * [`server`] is the **one** request path: admission, then a quote, a
//!   commit or a release. The socket front-end (TCP or Unix-socket
//!   listener, bounded worker pool over the shared service, graceful
//!   drain) runs it on worker threads; [`ServerHandle::inline`] runs it
//!   on the caller's thread for stdin `serve`, sequential `sft batch`
//!   and in-process experiments.
//! * [`ledger`] makes socket commits transactional: workers solve
//!   against a versioned snapshot (read lock only), then validate and
//!   apply their capacity deltas atomically — deadline, conflict and
//!   capacity rejections mutate nothing, and the commit log replays
//!   serially to a bit-identical network. Commits register **sessions**;
//!   the `release` wire op tears one down through the same ledger,
//!   reference-counting shared VNF instances so an instance two sessions
//!   reuse survives the first release and frees with the last.
//! * [`admission`] sheds load *before* work is queued: a sound
//!   VNF-capacity demand bound against remaining committed capacity
//!   (`insufficient_capacity`, answered from the ledger's network copy
//!   on every channel) and queue-depth backpressure (`overloaded`), with
//!   already-expired queued jobs shed so they cannot block live work.
//! * [`EmbedService::submit_batch`] fans independent quotes across
//!   [`sft_graph::parallel::run_partitioned`] with the workspace's
//!   ordered-merge determinism guarantee: results are bit-identical to
//!   per-task one-shot solves at every thread count.
//! * [`ServiceStats`] reports tasks served, cache hit rate and p50/p99
//!   solve latency.

pub mod admission;
pub mod ledger;
pub mod protocol;
pub mod server;
pub mod service;
pub mod stats;

pub use admission::{check_capacity, AdmissionConfig, JobQueue};
pub use ledger::{CapacityLedger, CommitRecord, CommitRejection, LedgerOp, LedgerSnapshot};
pub use protocol::{
    parse_request, parse_response, parse_stream, EmbedRequest, EmbedResponse, ErrorCode, Request,
    RequestMode, ResponseBody, WireError, PROTOCOL_VERSION,
};
pub use server::{connect, serve, Connection, DefragReport, ServerConfig, ServerHandle};
pub use service::{EmbedService, ServiceError};
pub use stats::ServiceStats;
