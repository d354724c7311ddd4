//! The [`EmbedService`]: one network, many tasks, shared caches.

use crate::protocol::ErrorCode;
use crate::stats::ServiceStats;
use sft_core::{solve, CoreError, MulticastTask, Network, SolveOptions, SolveResult, Strategy};
use sft_graph::parallel::run_partitioned;
use sft_graph::SteinerCache;
use std::fmt;
use std::sync::Mutex;
use std::time::Instant;

/// Errors surfaced by the service layer. [`ServiceError::code`] maps each
/// variant onto the wire taxonomy, so every channel reports failures with
/// the same machine-readable codes.
#[derive(Debug)]
pub enum ServiceError {
    /// A solver or domain error for one task (the service itself stays up).
    Core(CoreError),
    /// The requested strategy cannot run in the service (RSA is the
    /// paper's random baseline, not a serving strategy).
    UnsupportedStrategy(Strategy),
    /// A malformed JSONL input line (1-based line number).
    Parse {
        /// 1-based line number in the input stream.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// Admission control: the request queue is at its configured bound;
    /// retry later.
    Overloaded {
        /// The configured queue bound that was hit.
        queue_bound: usize,
    },
    /// Admission control: the task's minimum new-instance demand cannot
    /// fit in the remaining committed capacity.
    InsufficientCapacity {
        /// Lower bound on the new capacity the task must consume.
        demand: f64,
        /// Remaining network-wide capacity for new instances.
        remaining: f64,
    },
    /// Admission control: the task's bandwidth demand is wider than every
    /// residual link, so no route can carry it. Shares the
    /// `insufficient_capacity` wire code with the node-side bound; the
    /// distinct variant keeps bandwidth rejections countable.
    InsufficientBandwidth {
        /// The task's per-session bandwidth demand.
        demand: f64,
        /// Residual bandwidth of the widest link.
        remaining: f64,
    },
    /// The request's deadline expired before a result could be produced.
    DeadlineExceeded {
        /// The deadline that was missed, in milliseconds.
        deadline_ms: u64,
    },
    /// A commit lost its optimistic-concurrency race: concurrent commits
    /// kept invalidating its snapshot for the whole retry budget. Nothing
    /// was mutated; the client may retry. The socket server makes its
    /// last attempt under the write lock, so it answers this only if its
    /// ledger and network ever disagree.
    Conflict {
        /// Solve attempts consumed before giving up.
        attempts: usize,
    },
    /// A release named a session id no commit ever carried.
    UnknownSession {
        /// The session id that was not found in the commit log.
        session: u64,
    },
    /// A release named a session that has already been released.
    AlreadyReleased {
        /// The session id whose capacity was already given back.
        session: u64,
    },
    /// The service is draining and no longer accepts new work.
    ShuttingDown,
}

impl ServiceError {
    /// The wire-taxonomy code for this error.
    pub fn code(&self) -> ErrorCode {
        match self {
            ServiceError::Core(e) => match e {
                CoreError::Infeasible { .. } => ErrorCode::Infeasible,
                CoreError::DelayInfeasible { .. } => ErrorCode::DelayInfeasible,
                CoreError::CapacityExceeded { .. } | CoreError::LinkCapacityExceeded { .. } => {
                    ErrorCode::InsufficientCapacity
                }
                // A cancelled solve surfaces as a missed deadline: the
                // token only trips when the job's budget ran out (the
                // drain path re-maps to ShuttingDown before reporting).
                CoreError::Cancelled => ErrorCode::DeadlineExceeded,
                CoreError::Graph(_) | CoreError::Lp(_) => ErrorCode::Internal,
                _ => ErrorCode::InvalidTask,
            },
            ServiceError::UnsupportedStrategy(_) => ErrorCode::Internal,
            ServiceError::Parse { .. } => ErrorCode::ParseError,
            ServiceError::Overloaded { .. } => ErrorCode::Overloaded,
            ServiceError::InsufficientCapacity { .. }
            | ServiceError::InsufficientBandwidth { .. } => ErrorCode::InsufficientCapacity,
            ServiceError::DeadlineExceeded { .. } => ErrorCode::DeadlineExceeded,
            ServiceError::Conflict { .. } => ErrorCode::Conflict,
            ServiceError::UnknownSession { .. } => ErrorCode::UnknownSession,
            ServiceError::AlreadyReleased { .. } => ErrorCode::AlreadyReleased,
            ServiceError::ShuttingDown => ErrorCode::ShuttingDown,
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Core(e) => write!(f, "{e}"),
            ServiceError::UnsupportedStrategy(s) => {
                write!(f, "strategy {s:?} is not supported by the service")
            }
            ServiceError::Parse { line, reason } => {
                write!(f, "line {line}: {reason}")
            }
            ServiceError::Overloaded { queue_bound } => {
                write!(
                    f,
                    "request queue is full ({queue_bound} pending); retry later"
                )
            }
            ServiceError::InsufficientCapacity { demand, remaining } => write!(
                f,
                "task needs at least {demand} new capacity but only {remaining} remains"
            ),
            ServiceError::InsufficientBandwidth { demand, remaining } => write!(
                f,
                "task demands {demand} bandwidth but the widest residual link has {remaining}"
            ),
            ServiceError::DeadlineExceeded { deadline_ms } => {
                write!(f, "deadline of {deadline_ms} ms expired before a result")
            }
            ServiceError::Conflict { attempts } => write!(
                f,
                "commit conflicted with concurrent commits ({attempts} attempts); \
                 network unchanged, retry"
            ),
            ServiceError::UnknownSession { session } => {
                write!(f, "no committed session {session} in the commit log")
            }
            ServiceError::AlreadyReleased { session } => {
                write!(f, "session {session} was already released")
            }
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<CoreError> for ServiceError {
    fn from(e: CoreError) -> Self {
        ServiceError::Core(e)
    }
}

/// How [`EmbedService::submit_batch`] treats the tasks of one batch.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum BatchMode {
    /// Tasks arrive in order and accrete state: each successful embedding
    /// is committed before the next task solves, so later tasks reuse the
    /// instances earlier ones placed (the paper's §IV-D online regime).
    /// Equivalent to calling [`EmbedService::solve_and_commit`] per task.
    #[default]
    Sequential,
    /// Tasks are independent snapshots of the current network: the batch
    /// fans across worker threads, nothing is committed, and every result
    /// is bit-identical to a one-shot [`sft_core::solve`] against the
    /// same frozen network — at every thread count.
    Independent,
}

/// How many latency samples the service retains for percentile stats.
/// A week-long churn run records millions of solves; the ring keeps the
/// most recent window in O(1) memory instead of every nano forever.
const LATENCY_WINDOW: usize = 4096;

/// A fixed-capacity ring of the most recent latency samples. Percentiles
/// computed from it describe current serving behaviour — exactly what a
/// long-running server wants — while memory stays constant no matter how
/// many requests have ever been served.
#[derive(Debug)]
pub(crate) struct LatencyReservoir {
    samples: Vec<u64>,
    /// Next slot to overwrite once the ring is full.
    next: usize,
    capacity: usize,
}

impl Default for LatencyReservoir {
    fn default() -> Self {
        LatencyReservoir::new(LATENCY_WINDOW)
    }
}

impl LatencyReservoir {
    pub(crate) fn new(capacity: usize) -> Self {
        LatencyReservoir {
            samples: Vec::with_capacity(capacity.min(LATENCY_WINDOW)),
            next: 0,
            capacity: capacity.max(1),
        }
    }

    /// Records one sample, overwriting the oldest once `capacity` samples
    /// are held.
    pub(crate) fn record(&mut self, ns: u64) {
        if self.samples.len() < self.capacity {
            self.samples.push(ns);
        } else {
            self.samples[self.next] = ns;
            self.next = (self.next + 1) % self.capacity;
        }
    }

    /// The retained samples, in no particular order (percentile math
    /// sorts its own copy).
    pub(crate) fn samples(&self) -> &[u64] {
        &self.samples
    }
}

/// Serving counters guarded by one mutex so read-only solves can record
/// through `&self` (the socket front-end shares the service behind an
/// `RwLock` and must not need the write half for quotes).
#[derive(Debug, Default)]
struct Counters {
    tasks_served: u64,
    failures: u64,
    commits: u64,
    releases: u64,
    /// Solves or commits turned away by link bandwidth
    /// ([`CoreError::LinkCapacityExceeded`]).
    bandwidth_rejections: u64,
    /// Solves refused because no routing could meet the task's delay
    /// budget ([`CoreError::DelayInfeasible`]).
    delay_infeasible: u64,
    latencies_ns: LatencyReservoir,
}

/// A long-running embedding service.
///
/// Owns the network (each distance row computed once, on first use),
/// a persistent Steiner cache shared across requests and worker threads,
/// and running latency/serving statistics.
#[derive(Debug)]
pub struct EmbedService {
    network: Network,
    /// Every solve's options, strategy included; each solve plugs in
    /// `cache` and its own cancel token.
    options: SolveOptions<'static>,
    cache: SteinerCache,
    counters: Mutex<Counters>,
}

impl EmbedService {
    /// Creates a service around `network`, solving every task with
    /// `strategy` under `options`. Solves use the service's own Steiner
    /// cache, whatever `options.cache` holds.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnsupportedStrategy`] for [`Strategy::Rsa`], the
    /// paper's random baseline.
    pub fn new(
        network: Network,
        strategy: Strategy,
        options: SolveOptions<'static>,
    ) -> Result<Self, ServiceError> {
        if matches!(strategy, Strategy::Rsa) {
            return Err(ServiceError::UnsupportedStrategy(strategy));
        }
        Ok(EmbedService {
            network,
            options: SolveOptions {
                strategy,
                ..options
            },
            cache: SteinerCache::new(),
            counters: Mutex::new(Counters::default()),
        })
    }

    /// Caps the Steiner cache at `max_entries` entries (CLOCK eviction),
    /// so an unbounded request stream cannot grow the service's memory
    /// without bound. Replaces the cache, dropping anything cached so far;
    /// call before serving traffic.
    pub fn with_cache_capacity(mut self, max_entries: usize) -> Self {
        self.cache = SteinerCache::bounded(max_entries);
        self
    }

    /// A service with the default strategy (MSA) and options (OPA, all
    /// cores).
    pub fn with_defaults(network: Network) -> Self {
        EmbedService::new(network, Strategy::Msa, SolveOptions::default())
            .expect("MSA is always supported")
    }

    /// The current network state (including committed instances).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The shared Steiner cache (for hit-rate inspection).
    pub fn cache(&self) -> &SteinerCache {
        &self.cache
    }

    /// Flushes the Steiner cache. Call this if the underlying *graph*
    /// (topology or edge weights) changes; committing embeddings does not
    /// require it — deployments and capacities are not cache inputs.
    pub fn invalidate_caches(&self) {
        self.cache.invalidate();
    }

    /// Solves one task against the current network **without** committing
    /// its instances (a dry-run / quote). Takes `&self`, so concurrent
    /// quotes can run side by side under a shared lock.
    ///
    /// # Errors
    ///
    /// Solver errors for this task; the service stays usable.
    pub fn solve_uncommitted(&self, task: &MulticastTask) -> Result<SolveResult, ServiceError> {
        self.solve_uncommitted_cancellable(task, None)
    }

    /// [`EmbedService::solve_uncommitted`] with a cooperative
    /// [`sft_graph::CancelToken`]: the token is threaded into the MSA
    /// candidate sweep and lazy distance-row computation, so tripping it
    /// (deadline expiry, queue shed, graceful drain) interrupts the solve
    /// mid-flight. A cancelled solve returns
    /// [`CoreError::Cancelled`] wrapped in [`ServiceError::Core`] and
    /// leaves the network and caches semantically untouched.
    ///
    /// # Errors
    ///
    /// Solver errors for this task, including the cancellation outcome;
    /// the service stays usable.
    pub fn solve_uncommitted_cancellable(
        &self,
        task: &MulticastTask,
        cancel: Option<&sft_graph::CancelToken>,
    ) -> Result<SolveResult, ServiceError> {
        let (result, ns) = self.timed_solve(task, cancel);
        self.note(&result, ns);
        result.map_err(ServiceError::Core)
    }

    /// Solves one task and commits its new instances, so later tasks reuse
    /// them at zero setup cost (sequential-arrival semantics, §IV-D).
    ///
    /// # Errors
    ///
    /// Solver errors for this task; the network is only mutated on
    /// success.
    pub fn solve_and_commit(&mut self, task: &MulticastTask) -> Result<SolveResult, ServiceError> {
        let (result, ns) = self.timed_solve(task, None);
        self.note(&result, ns);
        let result = result?;
        self.network.commit_embedding(task, &result.embedding)?;
        self.lock_counters().commits += 1;
        Ok(result)
    }

    /// Applies a pre-validated commit delta (the second phase of the
    /// socket server's snapshot-solve → validate-and-apply commit; the
    /// first phase is [`EmbedService::solve_uncommitted`] plus
    /// [`sft_core::Network::commit_delta`] under the read lock).
    /// All-or-nothing: on error the network is unchanged.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Core`] when the delta no longer fits the current
    /// network state (see [`sft_core::Network::validate_delta`]).
    pub fn apply_commit(&mut self, delta: &sft_core::CommitDelta) -> Result<(), ServiceError> {
        if let Err(e) = self.network.apply_delta(delta) {
            if matches!(e, CoreError::LinkCapacityExceeded { .. }) {
                self.lock_counters().bandwidth_rejections += 1;
            }
            return Err(e.into());
        }
        self.lock_counters().commits += 1;
        Ok(())
    }

    /// Applies the inverse of a committed session's delta — one reference
    /// back per used pair, freeing instances whose count reaches zero —
    /// and returns the freed pairs. All-or-nothing: on error the network
    /// is unchanged. The session-teardown counterpart of
    /// [`EmbedService::apply_commit`].
    ///
    /// # Errors
    ///
    /// [`ServiceError::Core`] when any pair has no live reference (see
    /// [`sft_core::Network::validate_release`]).
    pub fn apply_release(
        &mut self,
        delta: &sft_core::CommitDelta,
    ) -> Result<Vec<(sft_core::VnfId, sft_graph::NodeId)>, ServiceError> {
        let freed = self.network.apply_release(delta)?;
        self.lock_counters().releases += 1;
        Ok(freed)
    }

    /// Serves a batch of tasks; see [`BatchMode`] for the two semantics.
    /// Per-task failures are reported in place — one infeasible or
    /// malformed task never aborts the rest of the batch. The returned
    /// vector is index-aligned with `tasks`.
    pub fn submit_batch(
        &mut self,
        tasks: &[MulticastTask],
        mode: BatchMode,
    ) -> Vec<Result<SolveResult, ServiceError>> {
        match mode {
            BatchMode::Sequential => tasks.iter().map(|t| self.solve_and_commit(t)).collect(),
            BatchMode::Independent => self.batch_independent(tasks),
        }
    }

    /// Fans independent tasks across worker threads against the frozen
    /// network. Workers solve whole tasks (each internally sequential, so
    /// thread fan-out happens at exactly one level) over contiguous index
    /// chunks; chunk results concatenate back in task order, so the output
    /// is deterministic in the thread count.
    fn batch_independent(
        &mut self,
        tasks: &[MulticastTask],
    ) -> Vec<Result<SolveResult, ServiceError>> {
        let network = &self.network;
        let options = SolveOptions {
            cache: Some(&self.cache),
            ..self.options.clone()
        };
        let chunks = run_partitioned(self.options.parallelism, tasks.len(), |range| {
            range
                .map(|i| {
                    let start = Instant::now();
                    let r = solve(network, &tasks[i], &options);
                    (r, start.elapsed().as_nanos() as u64)
                })
                .collect::<Vec<_>>()
        });
        let mut out = Vec::with_capacity(tasks.len());
        for (result, ns) in chunks.into_iter().flatten() {
            self.note(&result, ns);
            out.push(result.map_err(ServiceError::Core));
        }
        out
    }

    /// Counter access recovers from poison: the counters are plain
    /// integers and a `Vec` push, so a panic elsewhere cannot leave them
    /// in a state worth abandoning the whole service over.
    fn lock_counters(&self) -> std::sync::MutexGuard<'_, Counters> {
        self.counters
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A snapshot of the serving statistics. Latency percentiles cover
    /// the most recent [`LATENCY_WINDOW`] solves (the retention window of
    /// the bounded reservoir), not the process's whole lifetime.
    pub fn stats(&self) -> ServiceStats {
        let counters = self.lock_counters();
        let mut stats = ServiceStats::from_latencies(
            counters.tasks_served,
            counters.failures,
            counters.commits,
            self.cache.stats(),
            counters.latencies_ns.samples(),
        );
        stats.releases = counters.releases;
        stats.bandwidth_rejected = counters.bandwidth_rejections;
        stats.delay_infeasible = counters.delay_infeasible;
        drop(counters);
        let dist = self.network.dist();
        stats.distance_rows = dist.rows_materialized();
        stats.distance_row_misses = dist.row_misses();
        let graph = self.network.graph();
        let utils: Vec<f64> = graph
            .edge_ids()
            .filter_map(|e| {
                graph.edge_capacity(e).map(|cap| {
                    if cap > 0.0 {
                        (cap - self.network.edge_residual(e)) / cap
                    } else {
                        0.0
                    }
                })
            })
            .collect();
        stats.link_edges = utils.len();
        if !utils.is_empty() {
            stats.link_max_util = utils.iter().copied().fold(0.0, f64::max);
            stats.link_mean_util = utils.iter().sum::<f64>() / utils.len() as f64;
        }
        stats
    }

    fn timed_solve(
        &self,
        task: &MulticastTask,
        cancel: Option<&sft_graph::CancelToken>,
    ) -> (Result<SolveResult, CoreError>, u64) {
        let start = Instant::now();
        let mut options = SolveOptions {
            cache: Some(&self.cache),
            ..self.options.clone()
        };
        if let Some(token) = cancel {
            options.cancel = Some(token.clone());
        }
        let result = solve(&self.network, task, &options);
        (result, start.elapsed().as_nanos() as u64)
    }

    fn note(&self, result: &Result<SolveResult, CoreError>, ns: u64) {
        let mut counters = self.lock_counters();
        counters.latencies_ns.record(ns);
        match result {
            Ok(_) => counters.tasks_served += 1,
            Err(e) => {
                counters.failures += 1;
                if matches!(e, CoreError::LinkCapacityExceeded { .. }) {
                    counters.bandwidth_rejections += 1;
                }
                if matches!(e, CoreError::DelayInfeasible { .. }) {
                    counters.delay_infeasible += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sft_core::{SequentialEmbedder, Sfc, VnfCatalog, VnfId};
    use sft_graph::{Graph, NodeId, Parallelism};

    fn ring_network(n: usize, capacity: f64) -> Network {
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_edge(NodeId(i), NodeId((i + 1) % n), 1.0 + (i % 3) as f64 * 0.2)
                .unwrap();
        }
        Network::builder(g, VnfCatalog::uniform(3))
            .all_servers(capacity)
            .unwrap()
            .uniform_setup_cost(2.0)
            .unwrap()
            .build()
            .unwrap()
    }

    fn task(source: usize, dests: &[usize], sfc: &[usize]) -> MulticastTask {
        MulticastTask::new(
            NodeId(source),
            dests.iter().map(|&d| NodeId(d)).collect::<Vec<_>>(),
            Sfc::new(sfc.iter().map(|&f| VnfId(f)).collect::<Vec<_>>()).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn rejects_rsa() {
        let net = ring_network(6, 2.0);
        assert!(matches!(
            EmbedService::new(net, Strategy::Rsa, SolveOptions::default()),
            Err(ServiceError::UnsupportedStrategy(Strategy::Rsa))
        ));
    }

    #[test]
    fn independent_batch_matches_oneshot_solves() {
        let net = ring_network(10, 3.0);
        // Each task is followed by its duplicate, and the first chunk holds
        // at least two tasks at every thread count below, so one worker
        // solves a task and then its duplicate. (A duplicate in another
        // chunk may run alongside its original, and then both miss.)
        let tasks: Vec<MulticastTask> = [
            task(0, &[3, 6], &[0, 1]),
            task(2, &[5, 9], &[1, 2]),
            task(7, &[1, 4], &[0]),
        ]
        .into_iter()
        .flat_map(|t| [t.clone(), t])
        .collect();
        for threads in [1usize, 2, 4] {
            let mut svc = EmbedService::new(
                ring_network(10, 3.0),
                Strategy::Msa,
                SolveOptions {
                    parallelism: Parallelism::new(threads),
                    ..SolveOptions::default()
                },
            )
            .unwrap();
            let batch = svc.submit_batch(&tasks, BatchMode::Independent);
            for (t, r) in tasks.iter().zip(&batch) {
                let one = solve(&net, t, &SolveOptions::default()).unwrap();
                let r = r.as_ref().unwrap();
                assert_eq!(one.embedding, r.embedding, "threads={threads}");
                assert_eq!(one.cost.setup, r.cost.setup);
                assert_eq!(one.cost.link, r.cost.link);
            }
            // The duplicate task must be answered from the shared cache.
            assert!(svc.cache().hits() > 0, "threads={threads}");
            let stats = svc.stats();
            assert_eq!(stats.tasks_served, 6);
            assert_eq!(stats.commits, 0, "independent mode never commits");
        }
    }

    #[test]
    fn sequential_batch_matches_sequential_embedder() {
        let tasks = vec![
            task(0, &[3, 6], &[0, 1]),
            task(2, &[5, 9], &[1, 2]),
            task(0, &[3, 6], &[0, 1]),
        ];
        let mut svc = EmbedService::new(
            ring_network(10, 3.0),
            Strategy::Msa,
            SolveOptions::default(),
        )
        .unwrap();
        let batch = svc.submit_batch(&tasks, BatchMode::Sequential);

        // Reference: the existing SequentialEmbedder (solve + commit).
        let mut reference = SequentialEmbedder::new(ring_network(10, 3.0), Strategy::Msa);
        for (t, r) in tasks.iter().zip(&batch) {
            let want = reference.embed(t).unwrap();
            let got = r.as_ref().unwrap();
            assert_eq!(want.embedding, got.embedding);
            assert_eq!(want.cost.setup, got.cost.setup);
            assert_eq!(want.cost.link, got.cost.link);
        }
        // The repeated task pays no setup the second time around.
        assert_eq!(batch[2].as_ref().unwrap().cost.setup, 0.0);
        assert_eq!(svc.stats().commits, 3);
    }

    #[test]
    fn apply_commit_matches_solve_and_commit() {
        let t = task(0, &[3, 5], &[0, 1]);
        let mut two_phase = EmbedService::with_defaults(ring_network(8, 3.0));
        let quoted = two_phase.solve_uncommitted(&t).unwrap();
        let delta = two_phase.network().commit_delta(&t, &quoted.embedding);
        two_phase.apply_commit(&delta).unwrap();
        assert_eq!(two_phase.stats().commits, 1);

        let mut one_phase = EmbedService::with_defaults(ring_network(8, 3.0));
        one_phase.solve_and_commit(&t).unwrap();
        assert_eq!(
            two_phase.network().deployed_pairs(),
            one_phase.network().deployed_pairs()
        );
    }

    #[test]
    fn stats_survive_a_poisoned_counters_lock() {
        let svc = EmbedService::with_defaults(ring_network(8, 3.0));
        svc.solve_uncommitted(&task(0, &[3, 5], &[0, 1])).unwrap();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = svc.counters.lock().unwrap();
            panic!("deliberate panic while holding the counters lock");
        }));
        assert_eq!(svc.stats().tasks_served, 1, "poison must be recovered");
        svc.solve_uncommitted(&task(2, &[5, 7], &[1])).unwrap();
        assert_eq!(svc.stats().tasks_served, 2);
    }

    #[test]
    fn uncommitted_solves_work_through_a_shared_reference() {
        let svc = EmbedService::with_defaults(ring_network(10, 3.0));
        let tasks = [task(0, &[3, 6], &[0, 1]), task(2, &[5, 9], &[1, 2])];
        std::thread::scope(|scope| {
            for t in &tasks {
                let svc = &svc;
                scope.spawn(move || svc.solve_uncommitted(t).unwrap());
            }
        });
        let stats = svc.stats();
        assert_eq!(stats.tasks_served, 2);
        assert_eq!(stats.commits, 0);
    }

    #[test]
    fn failures_do_not_kill_the_batch() {
        let mut svc = EmbedService::new(
            ring_network(6, 0.0), // zero capacity: everything infeasible
            Strategy::Msa,
            SolveOptions::default(),
        )
        .unwrap();
        let tasks = vec![task(0, &[2], &[0]), task(1, &[4], &[1])];
        let out = svc.submit_batch(&tasks, BatchMode::Sequential);
        assert!(out.iter().all(Result::is_err));
        let stats = svc.stats();
        assert_eq!(stats.failures, 2);
        assert_eq!(stats.tasks_served, 0);
        assert_eq!(stats.commits, 0);
    }

    #[test]
    fn bounded_cache_stays_within_capacity_and_reports_evictions() {
        let svc = EmbedService::with_defaults(ring_network(10, 3.0)).with_cache_capacity(2);
        assert_eq!(svc.cache().capacity(), Some(2));
        // Distinct (root, terminals) keys than the capacity, forcing churn.
        for s in 0..6 {
            let _ = svc.solve_uncommitted(&task(s, &[(s + 4) % 10], &[0]));
        }
        assert!(svc.cache().len() <= 2, "cache exceeded its bound");
        let stats = svc.stats();
        assert!(
            stats.cache_evictions > 0,
            "distinct keys beyond capacity must evict"
        );
        assert!(stats.render().contains("evictions"));
    }

    #[test]
    fn invalidate_flushes_the_cache() {
        let svc = EmbedService::with_defaults(ring_network(8, 3.0));
        svc.solve_uncommitted(&task(0, &[3, 5], &[0, 1])).unwrap();
        assert!(!svc.cache().is_empty());
        svc.invalidate_caches();
        assert!(svc.cache().is_empty());
        assert_eq!(svc.cache().epoch(), 1);
    }

    #[test]
    fn latency_reservoir_is_bounded_and_keeps_recent_samples() {
        let mut r = LatencyReservoir::new(4);
        for ns in 0..10u64 {
            r.record(ns);
        }
        assert_eq!(r.samples().len(), 4, "memory must stay O(capacity)");
        let mut kept: Vec<u64> = r.samples().to_vec();
        kept.sort_unstable();
        assert_eq!(kept, vec![6, 7, 8, 9], "oldest samples are overwritten");
    }

    #[test]
    fn service_latency_memory_stays_bounded_over_long_streams() {
        let svc = EmbedService::with_defaults(ring_network(8, 3.0));
        // More solves than the retention window: the sample store must not
        // grow past it (the pre-fix behaviour kept every nano forever).
        for i in 0..(super::LATENCY_WINDOW + 50) {
            let _ = svc.solve_uncommitted(&task(i % 8, &[(i + 3) % 8], &[i % 3]));
        }
        let counters = svc.lock_counters();
        assert_eq!(counters.latencies_ns.samples().len(), super::LATENCY_WINDOW);
        drop(counters);
        let stats = svc.stats();
        assert_eq!(
            stats.tasks_served + stats.failures,
            (super::LATENCY_WINDOW + 50) as u64,
            "counters still cover the whole lifetime"
        );
        assert!(stats.p99_ms >= stats.p50_ms);
    }

    #[test]
    fn release_reverses_commit_and_counts_in_stats() {
        let t = task(0, &[3, 5], &[0, 1]);
        let mut svc = EmbedService::with_defaults(ring_network(8, 3.0));
        let before = svc.network().deployment_refcounts();
        let quoted = svc.solve_uncommitted(&t).unwrap();
        let delta = svc.network().commit_delta(&t, &quoted.embedding);
        svc.apply_commit(&delta).unwrap();
        let freed = svc.apply_release(&delta).unwrap();
        assert_eq!(freed, delta.deploys().to_vec());
        assert_eq!(svc.network().deployment_refcounts(), before);
        let stats = svc.stats();
        assert_eq!(stats.commits, 1);
        assert_eq!(stats.releases, 1);
        assert!(stats.render().contains("releases"));
    }

    #[test]
    fn error_codes_cover_the_taxonomy() {
        use crate::protocol::ErrorCode;
        assert_eq!(
            ServiceError::Core(CoreError::Infeasible { reason: "x".into() }).code(),
            ErrorCode::Infeasible
        );
        assert_eq!(
            ServiceError::Core(CoreError::InvalidTask { reason: "x".into() }).code(),
            ErrorCode::InvalidTask
        );
        assert_eq!(
            ServiceError::Core(CoreError::DelayInfeasible {
                destination: 3,
                achieved: 7.5,
                budget: 5.0
            })
            .code(),
            ErrorCode::DelayInfeasible
        );
        assert_eq!(
            ServiceError::Overloaded { queue_bound: 4 }.code(),
            ErrorCode::Overloaded
        );
        assert_eq!(
            ServiceError::InsufficientCapacity {
                demand: 2.0,
                remaining: 1.0
            }
            .code(),
            ErrorCode::InsufficientCapacity
        );
        assert_eq!(
            ServiceError::DeadlineExceeded { deadline_ms: 10 }.code(),
            ErrorCode::DeadlineExceeded
        );
        assert_eq!(
            ServiceError::Conflict { attempts: 3 }.code(),
            ErrorCode::Conflict
        );
        assert_eq!(ServiceError::ShuttingDown.code(), ErrorCode::ShuttingDown);
        assert_eq!(
            ServiceError::UnknownSession { session: 9 }.code(),
            ErrorCode::UnknownSession
        );
        assert_eq!(
            ServiceError::AlreadyReleased { session: 9 }.code(),
            ErrorCode::AlreadyReleased
        );
        assert_eq!(
            ServiceError::Parse {
                line: 1,
                reason: "x".into()
            }
            .code(),
            ErrorCode::ParseError
        );
    }
}
