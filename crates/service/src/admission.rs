//! Capacity-aware admission control and queue-depth backpressure.
//!
//! Front-ends run two cheap checks before a task ever reaches a worker:
//!
//! 1. [`check_capacity`] — a *sound* lower bound on the new VNF capacity
//!    the task must consume (VNF types in its chain deployed nowhere in
//!    the network, §IV-D reuse semantics) against the remaining committed
//!    capacity. Sound means it never rejects a feasible task: a task is
//!    turned away only if even its cheapest possible placement cannot fit.
//! 2. [`JobQueue::try_push`] — a bounded queue between connection readers
//!    and the worker pool. When the bound is hit the request is rejected
//!    immediately with [`ServiceError::Overloaded`] instead of letting
//!    latency (and client memory) grow without bound.

use crate::service::ServiceError;
use sft_core::{MulticastTask, Network};
use sft_graph::numeric;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Knobs for the admission layer, shared by the socket server and tests.
#[derive(Copy, Clone, Debug)]
pub struct AdmissionConfig {
    /// Maximum requests queued ahead of the worker pool before new ones
    /// are rejected with `overloaded`.
    pub queue_bound: usize,
    /// Deadline applied to requests that do not carry their own
    /// `deadline_ms`; `None` means no default deadline.
    pub default_deadline_ms: Option<u64>,
    /// Whether to run the capacity pre-check at all (quote-only traffic
    /// on a frozen network may want it off).
    pub capacity_check: bool,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_bound: 128,
            default_deadline_ms: None,
            capacity_check: true,
        }
    }
}

/// Rejects `task` iff its minimum new-instance demand provably cannot fit
/// in the network's residual capacity, or its bandwidth demand cannot fit
/// on any single link.
///
/// Three bounds, all necessary conditions for feasibility:
///
/// * the *sum* of demands of chain VNF types with no live instance must
///   fit in the total residual capacity,
/// * the *largest* such single demand must fit on some one server (an
///   instance cannot be split across servers), and
/// * the task's bandwidth demand must fit on the *widest* residual link —
///   any feasible delivery tree crosses at least one edge. Uncapacitated
///   edges are infinitely wide, so networks without link capacities never
///   reject here.
///
/// Comparisons use the workspace-wide relative tolerance
/// ([`sft_graph::numeric`]), matching the solvers' own feasibility checks.
///
/// # Errors
///
/// [`ServiceError::InsufficientCapacity`] with the violated demand/supply
/// pair, or [`ServiceError::InsufficientBandwidth`] when the bandwidth
/// bound is the one violated (same `insufficient_capacity` wire code).
pub fn check_capacity(network: &Network, task: &MulticastTask) -> Result<(), ServiceError> {
    check_capacity_with_credit(network, task, &[], &[])
}

/// [`check_capacity`] against residuals widened by capacity that queued
/// releases are about to give back: `node_credit[v]` on node `v` and
/// `edge_credit[e]` on edge `e`, with an index past the end of either
/// slice crediting nothing. Credit only widens the bounds, so the check
/// stays sound.
pub(crate) fn check_capacity_with_credit(
    network: &Network,
    task: &MulticastTask,
    node_credit: &[f64],
    edge_credit: &[f64],
) -> Result<(), ServiceError> {
    let credit = |credits: &[f64], i: usize| credits.get(i).copied().unwrap_or(0.0);
    let demand = network.min_new_demand(task);
    // With no new demand to place, neither node bound can trip: skip the
    // server scan.
    if demand > 0.0 {
        let residuals: Vec<f64> = network
            .servers()
            .map(|v| network.residual_capacity(v) + credit(node_credit, v.0))
            .collect();
        let remaining: f64 = residuals.iter().sum();
        if numeric::exceeds(demand, remaining) {
            return Err(ServiceError::InsufficientCapacity { demand, remaining });
        }
        let unit = network.max_new_instance_demand(task);
        let best = residuals.iter().copied().fold(0.0, f64::max);
        if numeric::exceeds(unit, best) {
            return Err(ServiceError::InsufficientCapacity {
                demand: unit,
                remaining: best,
            });
        }
    }
    let bandwidth = task.bandwidth();
    if bandwidth > 0.0 {
        let widest = network
            .graph()
            .edge_ids()
            .map(|e| network.edge_residual(e) + credit(edge_credit, e.0))
            .fold(0.0, f64::max);
        if numeric::exceeds(bandwidth, widest) {
            return Err(ServiceError::InsufficientBandwidth {
                demand: bandwidth,
                remaining: widest,
            });
        }
    }
    Ok(())
}

/// A bounded MPMC queue between connection readers and the worker pool.
///
/// `try_push` never blocks — a full queue is an immediate, structured
/// rejection (backpressure surfaces to the client, not as latency).
/// `pop` blocks until a job arrives or the queue is closed; after
/// [`JobQueue::close`], workers drain what is already queued and then see
/// `None`.
#[derive(Debug)]
pub struct JobQueue<T> {
    inner: Mutex<QueueInner<T>>,
    ready: Condvar,
    bound: usize,
}

#[derive(Debug)]
struct QueueInner<T> {
    jobs: VecDeque<T>,
    closed: bool,
}

impl<T> JobQueue<T> {
    /// A queue rejecting pushes beyond `bound` pending jobs.
    pub fn new(bound: usize) -> Self {
        JobQueue {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            bound,
        }
    }

    /// The configured bound.
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// Queue access recovers from poison: pushes and pops are single
    /// `VecDeque` operations that a panic cannot leave half-applied, so
    /// one panicking worker must not wedge every other thread's queue.
    fn lock_inner(&self) -> MutexGuard<'_, QueueInner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.lock_inner().jobs.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues `job` unless the queue is full or closed.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Overloaded`] when `bound` jobs are already pending;
    /// [`ServiceError::ShuttingDown`] after [`JobQueue::close`]. The job
    /// is handed back inside the error so the caller can still respond to
    /// the client that submitted it.
    pub fn try_push(&self, job: T) -> Result<(), (T, ServiceError)> {
        let mut inner = self.lock_inner();
        if inner.closed {
            return Err((job, ServiceError::ShuttingDown));
        }
        if inner.jobs.len() >= self.bound {
            return Err((
                job,
                ServiceError::Overloaded {
                    queue_bound: self.bound,
                },
            ));
        }
        inner.jobs.push_back(job);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once the queue is closed *and*
    /// drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.lock_inner();
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Removes every queued job matching `expired` and hands them back so
    /// the caller can still answer their clients. Admission calls this
    /// when the queue is full: a backlog of dead jobs must not hold
    /// `overloaded` against live ones.
    pub fn shed<F: FnMut(&T) -> bool>(&self, mut expired: F) -> Vec<T> {
        let mut inner = self.lock_inner();
        let mut kept = VecDeque::with_capacity(inner.jobs.len());
        let mut out = Vec::new();
        for job in inner.jobs.drain(..) {
            if expired(&job) {
                out.push(job);
            } else {
                kept.push_back(job);
            }
        }
        inner.jobs = kept;
        out
    }

    /// Stops accepting new jobs; queued jobs remain for workers to drain.
    pub fn close(&self) {
        self.lock_inner().closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sft_core::{Sfc, VnfCatalog, VnfId};
    use sft_graph::{Graph, NodeId};
    use std::sync::Arc;

    fn network(capacity: f64) -> Network {
        let mut g = Graph::new(6);
        for i in 0..6 {
            g.add_edge(NodeId(i), NodeId((i + 1) % 6), 1.0).unwrap();
        }
        Network::builder(g, VnfCatalog::uniform(3))
            .all_servers(capacity)
            .unwrap()
            .uniform_setup_cost(2.0)
            .unwrap()
            .build()
            .unwrap()
    }

    fn task(sfc: &[usize]) -> MulticastTask {
        MulticastTask::new(
            NodeId(0),
            vec![NodeId(2), NodeId(4)],
            Sfc::new(sfc.iter().map(|&f| VnfId(f)).collect::<Vec<_>>()).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn ample_capacity_admits() {
        assert!(check_capacity(&network(3.0), &task(&[0, 1])).is_ok());
    }

    #[test]
    fn zero_capacity_rejects_with_the_demand_pair() {
        let err = check_capacity(&network(0.0), &task(&[0, 1])).unwrap_err();
        match err {
            ServiceError::InsufficientCapacity { demand, remaining } => {
                assert!(demand > 0.0);
                assert_eq!(remaining, 0.0);
            }
            other => panic!("expected InsufficientCapacity, got {other:?}"),
        }
    }

    #[test]
    fn per_instance_demand_must_fit_on_a_single_server() {
        // Catalog demand is 1.0 per instance; 6 servers × 0.5 gives total
        // residual 3.0 ≥ 2.0 (sum bound passes) but no single server can
        // host one instance — the max bound must catch it.
        let err = check_capacity(&network(0.5), &task(&[0, 1])).unwrap_err();
        match err {
            ServiceError::InsufficientCapacity { demand, remaining } => {
                assert_eq!(demand, 1.0);
                assert_eq!(remaining, 0.5);
            }
            other => panic!("expected InsufficientCapacity, got {other:?}"),
        }
    }

    #[test]
    fn reuse_only_chains_are_always_admitted() {
        let mut net = network(2.0);
        let t = task(&[0]);
        // Deploy f0 somewhere, then exhaust all remaining capacity checks:
        // a chain served purely by reuse has zero new demand.
        let r = sft_core::solve(&net, &t, &sft_core::SolveOptions::default()).unwrap();
        net.commit_embedding(&t, &r.embedding).unwrap();
        assert_eq!(net.min_new_demand(&t), 0.0);
        assert!(check_capacity(&net, &t).is_ok());
    }

    #[test]
    fn bandwidth_wider_than_every_link_rejects() {
        let mut g = Graph::new(3);
        g.add_edge_with_capacity(NodeId(0), NodeId(1), 1.0, Some(2.0))
            .unwrap();
        g.add_edge_with_capacity(NodeId(1), NodeId(2), 1.0, Some(5.0))
            .unwrap();
        let net = Network::builder(g, VnfCatalog::uniform(2))
            .all_servers(4.0)
            .unwrap()
            .build()
            .unwrap();
        let t = MulticastTask::new(
            NodeId(0),
            vec![NodeId(2)],
            Sfc::new(vec![VnfId(0)]).unwrap(),
        )
        .unwrap();
        // Within the widest link: admitted (the bound is per-link, sound).
        assert!(check_capacity(&net, &t.clone().with_bandwidth(5.0).unwrap()).is_ok());
        // Wider than every link: provably cannot route.
        let err = check_capacity(&net, &t.clone().with_bandwidth(6.0).unwrap()).unwrap_err();
        match err {
            ServiceError::InsufficientBandwidth { demand, remaining } => {
                assert_eq!(demand, 6.0);
                assert_eq!(remaining, 5.0);
            }
            other => panic!("expected InsufficientBandwidth, got {other:?}"),
        }
        // Zero bandwidth (and uncapacitated networks) never consult it.
        assert!(check_capacity(&net, &t).is_ok());
        assert!(
            check_capacity(&network(4.0), &task(&[0]).with_bandwidth(1e9).unwrap()).is_ok(),
            "uncapacitated links are infinitely wide"
        );
    }

    #[test]
    fn full_queue_rejects_with_overloaded() {
        let q = JobQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        let (job, err) = q.try_push(3).unwrap_err();
        assert_eq!(job, 3, "the rejected job is handed back");
        assert!(matches!(err, ServiceError::Overloaded { queue_bound: 2 }));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn closed_queue_rejects_new_work_but_drains_old() {
        let q = JobQueue::new(8);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        let (_, err) = q.try_push(3).unwrap_err();
        assert!(matches!(err, ServiceError::ShuttingDown));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None, "closed and drained");
    }

    #[test]
    fn shed_removes_matching_jobs_and_hands_them_back() {
        let q = JobQueue::new(4);
        for i in 0..4 {
            q.try_push(i).unwrap();
        }
        assert!(q.try_push(4).is_err(), "queue is full");
        let shed = q.shed(|&j| j % 2 == 0);
        assert_eq!(shed, vec![0, 2], "shed jobs come back for responding");
        assert_eq!(q.len(), 2);
        q.try_push(4).unwrap();
        assert_eq!(q.pop(), Some(1), "survivors keep their order");
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(4));
    }

    #[test]
    fn drain_completes_in_flight_work_across_threads() {
        let q = Arc::new(JobQueue::new(64));
        for i in 0..32 {
            q.try_push(i).unwrap();
        }
        q.close();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(j) = q.pop() {
                    got.push(j);
                }
                got
            }));
        }
        let mut all: Vec<i32> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..32).collect::<Vec<_>>(), "every queued job drains");
    }
}
