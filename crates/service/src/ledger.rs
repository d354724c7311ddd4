//! The optimistic per-resource capacity ledger behind transactional
//! commits.
//!
//! The socket server used to serialize every commit under the
//! `RwLock<EmbedService>` write half for the *whole* solve, and — worse —
//! could report `deadline_exceeded` for a solve that had already mutated
//! the network (the ghost-capacity leak). The ledger splits a commit into
//! the MVCC-style phases of SOF session admission:
//!
//! 1. **Snapshot.** A worker records the ledger sequence number
//!    ([`CapacityLedger::snapshot`]) under the service *read* lock, then
//!    solves against that frozen state concurrently with quotes and other
//!    commit solves — no write lock is held during the solve.
//! 2. **Validate.** Under the write lock, [`CapacityLedger::validate`]
//!    re-checks that (a) the request's deadline has not expired and
//!    (b) no committed transaction has touched any node or edge the delta
//!    uses since the snapshot (per-node and per-edge version vectors).
//!    Residual capacity is re-checked by [`Network::apply_delta`] against
//!    the authoritative network in the same critical section.
//! 3. **Confirm.** [`CapacityLedger::confirm_with_task`] bumps the sequence number
//!    and the versions of the nodes that gained an instance and the edges
//!    that were charged, applies the delta to the ledger's own copy of the
//!    network, and appends the *effective* delta to the commit log.
//!
//! Rejections at step 2 mutate nothing: an expired deadline surfaces as
//! `deadline_exceeded`, a version conflict sends the worker back to
//! re-solve against the new state (bounded retry budget, then one attempt
//! under the write lock).
//!
//! The commit log is the determinism contract: serially replaying the
//! recorded deltas in sequence order — [`Network::apply_delta`] for
//! [`LedgerOp::Commit`] records, [`Network::apply_release`] for
//! [`LedgerOp::Release`] records — onto an identically-built network
//! reproduces the final deployment set, reference counts and residuals
//! bit-for-bit (`tests/commit_storm.rs` and `tests/session_lifecycle.rs`
//! check exactly this under racing workers).
//!
//! **The copy.** The ledger keeps a private [`Network`] clone, changed
//! only by [`Network::apply_delta`] in [`CapacityLedger::confirm_with_task`]
//! and [`Network::apply_release`] in [`CapacityLedger::confirm_release`] —
//! the same calls, in the same order, the owner makes on its own network
//! under its write lock. So the copy holds exactly the owner's refcounts,
//! residuals and edge loads, and admission ([`CapacityLedger::check_capacity`])
//! reads it without any lock on the service, through the one
//! implementation of the bounds in [`crate::admission`].
//!
//! **Sessions.** A confirmed commit carrying a wire id registers a live
//! *session*: the full usage delta (new deploys + pinned reuses + edge
//! charges) it holds. [`CapacityLedger::release_usage`] looks the session
//! up for the release path, and [`CapacityLedger::confirm_release`]
//! retires it, giving back one reference per used pair and every edge
//! charge: an instance or link shared with another live session survives,
//! and only last-reference drops free capacity.

use crate::admission;
use crate::service::ServiceError;
use sft_core::{CommitDelta, MulticastTask, Network, VnfId};
use sft_graph::{EdgeId, NodeId};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The ledger state a commit solve ran against: the sequence number of the
/// last transaction confirmed before the solve started.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LedgerSnapshot {
    seq: u64,
}

impl LedgerSnapshot {
    /// The sequence number captured at snapshot time.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

/// Why a commit was turned away at validation — in both cases **nothing**
/// has been mutated.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CommitRejection {
    /// The request's deadline expired between solve and apply.
    Expired,
    /// A transaction confirmed after the snapshot touched this node, so
    /// the quoted delta (and its setup costs) may be stale — re-solve.
    Conflict {
        /// The first touched node whose version outran the snapshot.
        node: NodeId,
    },
    /// A transaction confirmed after the snapshot moved bandwidth on this
    /// edge, so the quoted route may oversubscribe it — re-solve.
    ConflictEdge {
        /// The first touched edge whose version outran the snapshot.
        edge: EdgeId,
    },
}

/// Which way a confirmed transaction moved capacity.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LedgerOp {
    /// A session arrival: references added, new instances charged.
    Commit,
    /// A session departure: references dropped, last-reference instances
    /// freed.
    Release,
}

/// One confirmed transaction: the effective delta it applied.
#[derive(Clone, Debug, PartialEq)]
pub struct CommitRecord {
    /// Position in the committed order (1-based, contiguous).
    pub seq: u64,
    /// The wire request id that produced the commit, or the released
    /// session's id for a [`LedgerOp::Release`] record.
    pub id: Option<u64>,
    /// Whether this transaction committed or released a session.
    pub op: LedgerOp,
    /// The capacity-moving `(VNF, node)` pairs, in canonical order: newly
    /// created instances for a commit, last-reference freed instances for
    /// a release. Empty for a fully-reused embedding.
    pub deploys: Vec<(VnfId, NodeId)>,
    /// The reference-only pairs, in canonical order: reused instances for
    /// a commit, dropped-but-surviving references for a release.
    pub refs: Vec<(VnfId, NodeId)>,
    /// The `(edge, bandwidth)` charges the session holds, in canonical
    /// order. A commit record charges them; a release record carries the
    /// session's full list so replaying it gives every charge back.
    pub edges: Vec<(EdgeId, f64)>,
}

impl CommitRecord {
    /// The record's delta, ready to replay with
    /// [`sft_core::Network::apply_delta`] ([`LedgerOp::Commit`]) or
    /// [`sft_core::Network::apply_release`] ([`LedgerOp::Release`]).
    pub fn delta(&self) -> CommitDelta {
        CommitDelta::with_usage(self.deploys.clone(), self.refs.clone(), self.edges.clone())
    }
}

/// Version vectors, sessions and the commit log over a private copy of
/// one [`Network`]. All access goes through one short-held mutex; the
/// ledger never takes the service lock, so lock order is always service →
/// ledger.
#[derive(Debug)]
pub struct CapacityLedger {
    inner: Mutex<Inner>,
}

/// A committed session's full usage, for the release path.
#[derive(Clone, Debug)]
struct Session {
    /// What the session holds — its commit's effective deploy/ref split
    /// and edge charges — and so the delta its release gives back.
    usage: CommitDelta,
    /// False once released; a session releases exactly once.
    live: bool,
    /// The task the session embeds, when the commit path supplied it —
    /// what the defragmentation pass re-solves.
    task: Option<MulticastTask>,
}

#[derive(Debug)]
struct Inner {
    /// Sequence number of the last confirmed transaction (0 = none).
    seq: u64,
    /// `node_version[v]` = seq of the last transaction that changed `v`'s
    /// capacity (a new instance deployed or a last reference freed).
    node_version: Vec<u64>,
    /// `edge_version[e]` = seq of the last transaction that moved
    /// bandwidth on edge `e` — the edge half of the version vector.
    edge_version: Vec<u64>,
    /// The owner's network as of the last confirmed transaction.
    network: Network,
    /// Committed sessions by wire id. Ids may repeat across clients, so
    /// each id keys a stack of sessions; a release targets the most
    /// recent live one.
    sessions: BTreeMap<u64, Vec<Session>>,
    /// Capacity about to come back: per-node credit for release jobs
    /// queued ahead of the worker pool, keyed by session id. The
    /// admission bound adds these so feasible work arriving right behind
    /// a teardown is not bounced off residuals the queued release is
    /// about to refill.
    pending_release: BTreeMap<u64, Vec<(usize, f64)>>,
    /// Bandwidth about to come back: per-edge credit for queued release
    /// jobs, the link analogue of `pending_release`.
    pending_release_bw: BTreeMap<u64, Vec<(usize, f64)>>,
    log: Vec<CommitRecord>,
}

impl Inner {
    /// The most recent live session under `session`.
    fn live_session(&mut self, session: u64) -> Result<&mut Session, ServiceError> {
        self.sessions
            .get_mut(&session)
            .ok_or(ServiceError::UnknownSession { session })?
            .iter_mut()
            .rev()
            .find(|s| s.live)
            .ok_or(ServiceError::AlreadyReleased { session })
    }
}

/// Per-session credits summed per index into a `len`-long vector; empty
/// when no queued release credits anything.
fn summed_credit(credits: &BTreeMap<u64, Vec<(usize, f64)>>, len: usize) -> Vec<f64> {
    if credits.values().all(Vec::is_empty) {
        return Vec::new();
    }
    let mut total = vec![0.0; len];
    for &(i, c) in credits.values().flatten() {
        total[i] += c;
    }
    total
}

impl CapacityLedger {
    /// A ledger over a copy of `network`'s current servers, residuals and
    /// deployments, with an empty commit log.
    pub fn new(network: &Network) -> Self {
        CapacityLedger {
            inner: Mutex::new(Inner {
                seq: 0,
                node_version: vec![0; network.node_count()],
                edge_version: vec![0; network.graph().edge_count()],
                network: network.clone(),
                sessions: BTreeMap::new(),
                pending_release: BTreeMap::new(),
                pending_release_bw: BTreeMap::new(),
                log: Vec::new(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // Every mutation checks before it writes (`apply_delta` and
        // `apply_release` are all-or-nothing), so a panic cannot leave the
        // state half-applied and a poisoned mutex is safe to keep using.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Captures the current sequence number. Call under the service read
    /// lock so the solve and the snapshot observe the same state.
    pub fn snapshot(&self) -> LedgerSnapshot {
        LedgerSnapshot {
            seq: self.lock().seq,
        }
    }

    /// Transactions confirmed so far.
    pub fn commit_count(&self) -> u64 {
        self.lock().seq
    }

    /// Step 2 of a commit: under the service write lock, re-check the
    /// deadline and the touched nodes' versions against the snapshot.
    ///
    /// # Errors
    ///
    /// [`CommitRejection::Expired`] when `deadline_expired`;
    /// [`CommitRejection::Conflict`] when any node the delta deploys onto
    /// was changed by a transaction the snapshot did not see. Neither
    /// mutates anything, here or in the network.
    pub fn validate(
        &self,
        snapshot: &LedgerSnapshot,
        delta: &CommitDelta,
        deadline_expired: bool,
    ) -> Result<(), CommitRejection> {
        if deadline_expired {
            return Err(CommitRejection::Expired);
        }
        let inner = self.lock();
        for node in delta.touched_nodes() {
            if inner.node_version[node.0] > snapshot.seq {
                return Err(CommitRejection::Conflict { node });
            }
        }
        for edge in delta.touched_edges() {
            if inner.edge_version[edge.0] > snapshot.seq {
                return Err(CommitRejection::ConflictEdge { edge });
            }
        }
        Ok(())
    }

    /// Step 3 of a commit: records `delta` as the next transaction after
    /// the network apply succeeded (same write-lock critical section) and
    /// applies it to the ledger's own copy. When the delta carries a wire
    /// id, the session it opens is registered for later release, with
    /// `task` when given, so [`CapacityLedger::live_session_tasks`] can
    /// offer it to the defragmentation pass. Returns the assigned sequence
    /// number.
    ///
    /// # Panics
    ///
    /// If the copy rejects `delta`: the owner just applied the same delta
    /// to an identical network, so the two have drifted apart.
    pub fn confirm_with_task(
        &self,
        id: Option<u64>,
        delta: &CommitDelta,
        task: Option<MulticastTask>,
    ) -> u64 {
        let mut guard = self.lock();
        let inner = &mut *guard;
        // A pair with no live instance is charged as a new one, whichever
        // side of the delta it sits on; a reuse moves no capacity, so it
        // never stales anyone else's snapshot.
        let (deploys, refs): (Vec<_>, Vec<_>) = delta
            .usage()
            .partition(|&(f, v)| !inner.network.is_deployed(f, v));
        inner
            .network
            .apply_delta(delta)
            .expect("the ledger's copy accepts every delta its owner applied");
        inner.seq += 1;
        let seq = inner.seq;
        for &(_, v) in &deploys {
            inner.node_version[v.0] = seq;
        }
        // Every charge moves residual bandwidth, so every charged edge
        // version-bumps.
        let edges = delta.edges().to_vec();
        for &(e, _) in &edges {
            inner.edge_version[e.0] = seq;
        }
        if let Some(session) = id {
            inner.sessions.entry(session).or_default().push(Session {
                usage: CommitDelta::with_usage(deploys.clone(), refs.clone(), edges.clone()),
                live: true,
                task,
            });
        }
        inner.log.push(CommitRecord {
            seq,
            id,
            op: LedgerOp::Commit,
            deploys,
            refs,
            edges,
        });
        seq
    }

    /// The full usage delta of the most recent **live** session committed
    /// under `session`, for the release path: the caller applies it to
    /// the authoritative network with [`Network::apply_release`] (same
    /// write-lock critical section) and then calls
    /// [`CapacityLedger::confirm_release`]. Mutates nothing.
    ///
    /// # Errors
    ///
    /// * [`ServiceError::UnknownSession`] — no commit ever carried this
    ///   id.
    /// * [`ServiceError::AlreadyReleased`] — every session under this id
    ///   has already been released.
    pub fn release_usage(&self, session: u64) -> Result<CommitDelta, ServiceError> {
        Ok(self.lock().live_session(session)?.usage.clone())
    }

    /// Step 3 of a release: retires the most recent live session under
    /// `session` after [`Network::apply_release`] succeeded on the
    /// authoritative network (same write-lock critical section), and
    /// releases it from the ledger's copy. Nodes whose last reference
    /// dropped and every edge the session charged version-bump. Clears
    /// any queued admission credit for the session. Returns the assigned
    /// sequence number, the total node capacity freed, and the total
    /// bandwidth given back.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CapacityLedger::release_usage`]; nothing is
    /// mutated on error.
    ///
    /// # Panics
    ///
    /// If the copy rejects the release, as for
    /// [`CapacityLedger::confirm_with_task`].
    pub fn confirm_release(&self, session: u64) -> Result<(u64, f64, f64), ServiceError> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        let slot = inner.live_session(session)?;
        slot.live = false;
        let usage = slot.usage.clone();
        let freed = inner
            .network
            .apply_release(&usage)
            .expect("the ledger's copy accepts every release its owner applied");
        inner.seq += 1;
        let seq = inner.seq;
        let catalog = inner.network.catalog();
        let mut freed_demand = 0.0;
        for &(f, v) in &freed {
            inner.node_version[v.0] = seq;
            freed_demand += catalog.demand(f);
        }
        let mut refs: Vec<_> = usage
            .usage()
            .filter(|p| freed.binary_search(p).is_err())
            .collect();
        refs.sort_unstable();
        let edges = usage.edges().to_vec();
        for &(e, _) in &edges {
            inner.edge_version[e.0] = seq;
        }
        inner.pending_release.remove(&session);
        inner.pending_release_bw.remove(&session);
        inner.log.push(CommitRecord {
            seq,
            id: Some(session),
            op: LedgerOp::Release,
            deploys: freed,
            refs,
            edges,
        });
        Ok((seq, freed_demand, usage.total_bandwidth()))
    }

    /// Records the admission credit of a release request entering the job
    /// queue: the per-node demand its session charged at commit time,
    /// which a worker is about to give back. Returns whether a live
    /// session was found (no session, no credit — the queued job will
    /// fail with the structured error either way). Idempotent per
    /// session: a second queued release of the same id adds nothing.
    pub fn note_queued_release(&self, session: u64) -> bool {
        let mut guard = self.lock();
        let inner = &mut *guard;
        let Some(slot) = inner
            .sessions
            .get(&session)
            .and_then(|stack| stack.iter().rev().find(|s| s.live))
        else {
            return false;
        };
        let catalog = inner.network.catalog();
        let credit: Vec<(usize, f64)> = slot
            .usage
            .deploys()
            .iter()
            .map(|&(f, v)| (v.0, catalog.demand(f)))
            .collect();
        let bw_credit: Vec<(usize, f64)> =
            slot.usage.edges().iter().map(|&(e, b)| (e.0, b)).collect();
        inner.pending_release.entry(session).or_insert(credit);
        inner.pending_release_bw.entry(session).or_insert(bw_credit);
        true
    }

    /// Withdraws the queued-release credit for `session`, if any — called
    /// when the queued release job leaves the queue without confirming
    /// (shed, expired, or failed), so the admission bound stops counting
    /// capacity that is no longer coming back. A confirmed release clears
    /// its own credit.
    pub fn clear_queued_release(&self, session: u64) {
        let mut inner = self.lock();
        inner.pending_release.remove(&session);
        inner.pending_release_bw.remove(&session);
    }

    /// Live (committed, not yet released) session ids, ascending — the
    /// defragmentation pass and drain diagnostics iterate these.
    pub fn live_sessions(&self) -> Vec<u64> {
        let inner = self.lock();
        inner
            .sessions
            .iter()
            .filter(|(_, stack)| stack.iter().any(|s| s.live))
            .map(|(&id, _)| id)
            .collect()
    }

    /// `(id, task)` of the most recent live session per id whose commit
    /// recorded its task — the defragmentation work list. Ascending by
    /// id, so a pass over a frozen service is deterministic.
    pub fn live_session_tasks(&self) -> Vec<(u64, MulticastTask)> {
        let inner = self.lock();
        inner
            .sessions
            .iter()
            .filter_map(|(&id, stack)| {
                stack
                    .iter()
                    .rev()
                    .find(|s| s.live)
                    .and_then(|s| s.task.clone())
                    .map(|t| (id, t))
            })
            .collect()
    }

    /// The confirmed transactions in committed order — replaying their
    /// deltas serially reproduces the network state bit-for-bit.
    pub fn commit_log(&self) -> Vec<CommitRecord> {
        self.lock().log.clone()
    }

    /// The admission pre-check of [`crate::admission::check_capacity`],
    /// answered from the ledger's copy so connection readers never need
    /// any lock on the service itself.
    ///
    /// The residual side of every bound includes the credit of release
    /// jobs already queued ahead of this request
    /// ([`CapacityLedger::note_queued_release`]): those workers will give
    /// the capacity back before the task's own commit runs, so without
    /// the credit a request arriving right behind a teardown would be
    /// rejected against residuals that are about to be refilled. The
    /// credit can only widen the bound, which keeps the check sound (it
    /// still never rejects a feasible task; an over-admitted one fails
    /// later with the same structured error).
    ///
    /// # Errors
    ///
    /// [`ServiceError::InsufficientCapacity`] with the violated
    /// demand/supply pair.
    pub fn check_capacity(&self, task: &MulticastTask) -> Result<(), ServiceError> {
        let inner = self.lock();
        let node_credit = summed_credit(&inner.pending_release, inner.node_version.len());
        let edge_credit = summed_credit(&inner.pending_release_bw, inner.edge_version.len());
        admission::check_capacity_with_credit(&inner.network, task, &node_credit, &edge_credit)
    }

    /// A clone of the ledger's copy of the network.
    #[cfg(test)]
    pub(crate) fn network(&self) -> Network {
        self.lock().network.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sft_core::{MulticastTask, Sfc, VnfCatalog};
    use sft_graph::Graph;

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

    fn capacitated_ring(n: usize, capacity: f64, bw: f64) -> Network {
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_edge_with_capacity(NodeId(i), NodeId((i + 1) % n), 1.0, Some(bw))
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

    /// `(capacity, committed bandwidth)` of edge `e` in the ledger's copy.
    fn edge_load(ledger: &CapacityLedger, e: usize) -> (f64, f64) {
        let network = ledger.network();
        let used = network
            .edge_usage()
            .iter()
            .find(|u| u.0 == EdgeId(e))
            .map_or(0.0, |u| u.1);
        (network.graph().edge_capacity(EdgeId(e)).unwrap(), used)
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
    fn disjoint_commits_validate_against_old_snapshots() {
        let ledger = CapacityLedger::new(&ring_network(6, 2.0));
        let snap = ledger.snapshot();
        let a = CommitDelta::new(vec![(VnfId(0), NodeId(1))]);
        let b = CommitDelta::new(vec![(VnfId(1), NodeId(4))]);
        ledger.validate(&snap, &a, false).unwrap();
        ledger.confirm_with_task(Some(1), &a, None);
        // b touches a different node: the stale snapshot is still valid.
        ledger.validate(&snap, &b, false).unwrap();
        ledger.confirm_with_task(Some(2), &b, None);
        assert_eq!(ledger.commit_count(), 2);
    }

    #[test]
    fn touched_node_conflicts_are_detected() {
        let ledger = CapacityLedger::new(&ring_network(6, 2.0));
        let snap = ledger.snapshot();
        let winner = CommitDelta::new(vec![(VnfId(0), NodeId(1))]);
        ledger.confirm_with_task(Some(1), &winner, None);
        // Same node, even a different VNF type: the quoted setup cost may
        // be stale, so the loser must re-solve.
        let loser = CommitDelta::new(vec![(VnfId(1), NodeId(1))]);
        assert_eq!(
            ledger.validate(&snap, &loser, false),
            Err(CommitRejection::Conflict { node: NodeId(1) })
        );
        // A fresh snapshot sees the winner's transaction and validates.
        ledger.validate(&ledger.snapshot(), &loser, false).unwrap();
    }

    #[test]
    fn expired_deadlines_reject_before_anything_else() {
        let ledger = CapacityLedger::new(&ring_network(6, 2.0));
        let snap = ledger.snapshot();
        let delta = CommitDelta::new(vec![(VnfId(0), NodeId(1))]);
        assert_eq!(
            ledger.validate(&snap, &delta, true),
            Err(CommitRejection::Expired)
        );
        assert_eq!(ledger.commit_count(), 0);
        assert!(ledger.commit_log().is_empty());
    }

    #[test]
    fn confirm_tracks_residuals_and_logs_effective_deltas() {
        let network = ring_network(6, 2.0);
        let ledger = CapacityLedger::new(&network);
        let before = ledger.network().total_residual_capacity();
        assert_eq!(before, network.total_residual_capacity());

        let delta = CommitDelta::new(vec![(VnfId(0), NodeId(1)), (VnfId(1), NodeId(2))]);
        ledger.confirm_with_task(Some(7), &delta, None);
        assert_eq!(ledger.network().total_residual_capacity(), before - 2.0);

        // Re-confirming the same pairs is pure reuse: no residual change,
        // and the logged delta is empty.
        ledger.confirm_with_task(Some(8), &delta, None);
        assert_eq!(ledger.network().total_residual_capacity(), before - 2.0);
        let log = ledger.commit_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].seq, 1);
        assert_eq!(log[0].id, Some(7));
        assert_eq!(log[0].deploys, delta.deploys().to_vec());
        assert!(log[1].deploys.is_empty());
    }

    #[test]
    fn ledger_admission_matches_the_network_bounds() {
        for capacity in [0.0, 0.5, 3.0] {
            let network = ring_network(6, capacity);
            let ledger = CapacityLedger::new(&network);
            let t = task(0, &[2, 4], &[0, 1]);
            let from_network = crate::admission::check_capacity(&network, &t);
            let from_ledger = ledger.check_capacity(&t);
            assert_eq!(
                from_network.is_ok(),
                from_ledger.is_ok(),
                "capacity={capacity}"
            );
        }
    }

    /// The headline refcount scenario at the ledger level: an instance
    /// two sessions share survives the first release and frees (capacity
    /// and version bump) only with the last.
    #[test]
    fn shared_instances_free_only_on_the_last_release() {
        let ledger = CapacityLedger::new(&ring_network(6, 2.0));
        let seed = ledger.network().total_residual_capacity();
        ledger.confirm_with_task(
            Some(1),
            &CommitDelta::new(vec![(VnfId(0), NodeId(1))]),
            None,
        );
        // Session 2 reuses (0,1) and adds its own instance.
        ledger.confirm_with_task(
            Some(2),
            &CommitDelta::new(vec![(VnfId(0), NodeId(1)), (VnfId(1), NodeId(2))]),
            None,
        );
        assert_eq!(ledger.network().total_residual_capacity(), seed - 2.0);

        // Session 1's release drops a shared reference: nothing frees.
        let usage = ledger.release_usage(1).unwrap();
        assert_eq!(usage.deploys(), &[(VnfId(0), NodeId(1))]);
        let (seq, freed, _) = ledger.confirm_release(1).unwrap();
        assert_eq!(seq, 3);
        assert_eq!(freed, 0.0, "session 2 still holds the instance");
        assert_eq!(ledger.network().total_residual_capacity(), seed - 2.0);
        let log = ledger.commit_log();
        assert_eq!(log[2].op, LedgerOp::Release);
        assert!(log[2].deploys.is_empty(), "no capacity moved");
        assert_eq!(log[2].refs, vec![(VnfId(0), NodeId(1))]);

        // Session 2's release is the last reference everywhere: all frees.
        let (_, freed, _) = ledger.confirm_release(2).unwrap();
        assert_eq!(freed, 2.0);
        assert_eq!(ledger.network().total_residual_capacity(), seed);
        assert_eq!(ledger.live_sessions(), Vec::<u64>::new());

        // The session taxonomy: releasing again or an unknown id errors
        // without mutating anything.
        assert!(matches!(
            ledger.confirm_release(1),
            Err(ServiceError::AlreadyReleased { session: 1 })
        ));
        assert!(matches!(
            ledger.release_usage(999),
            Err(ServiceError::UnknownSession { session: 999 })
        ));
        assert_eq!(ledger.commit_log().len(), 4);
    }

    /// Wire ids may repeat; each id keys a stack of sessions and releases
    /// retire the most recent live one first.
    #[test]
    fn repeated_session_ids_release_most_recent_first() {
        let ledger = CapacityLedger::new(&ring_network(6, 2.0));
        ledger.confirm_with_task(
            Some(5),
            &CommitDelta::new(vec![(VnfId(0), NodeId(1))]),
            None,
        );
        ledger.confirm_with_task(
            Some(5),
            &CommitDelta::new(vec![(VnfId(1), NodeId(2))]),
            None,
        );
        let usage = ledger.release_usage(5).unwrap();
        assert_eq!(usage.deploys(), &[(VnfId(1), NodeId(2))]);
        ledger.confirm_release(5).unwrap();
        let usage = ledger.release_usage(5).unwrap();
        assert_eq!(usage.deploys(), &[(VnfId(0), NodeId(1))]);
        ledger.confirm_release(5).unwrap();
        assert!(matches!(
            ledger.release_usage(5),
            Err(ServiceError::AlreadyReleased { session: 5 })
        ));
    }

    /// Satellite regression: a full network with a queued-but-unconfirmed
    /// release must admit the task that release makes room for — the old
    /// monotone admission bound drained such workloads to
    /// `insufficient_capacity`.
    #[test]
    fn queued_releases_credit_the_admission_bound() {
        let ledger = CapacityLedger::new(&ring_network(6, 1.0));
        // One session fills every node with the type the task does not use.
        let fill = CommitDelta::new((0..6).map(|v| (VnfId(2), NodeId(v))).collect());
        ledger.confirm_with_task(Some(42), &fill, None);
        let t = task(0, &[3], &[0, 1]);
        assert!(matches!(
            ledger.check_capacity(&t),
            Err(ServiceError::InsufficientCapacity { .. })
        ));

        // A queued release of the filling session credits its capacity.
        assert!(ledger.note_queued_release(42));
        ledger.check_capacity(&t).unwrap();
        // Idempotent: noting it again must not double-credit.
        assert!(ledger.note_queued_release(42));
        // A shed release job withdraws the credit...
        ledger.clear_queued_release(42);
        assert!(matches!(
            ledger.check_capacity(&t),
            Err(ServiceError::InsufficientCapacity { .. })
        ));
        // ...and the confirmed release makes the capacity real.
        assert!(ledger.note_queued_release(42));
        ledger.confirm_release(42).unwrap();
        ledger.check_capacity(&t).unwrap();
        // No session, no credit.
        assert!(!ledger.note_queued_release(7));
        assert!(!ledger.note_queued_release(42), "already released");
    }

    /// Edge bandwidth rides the same MVCC cycle as node capacity: charges
    /// version-bump their edge (staling snapshots that routed over it),
    /// sessions remember their charges, and the last release on an edge
    /// snaps its usage in the ledger's copy to exactly zero.
    #[test]
    fn edge_charges_version_bump_and_release_refcount_style() {
        let ledger = CapacityLedger::new(&capacitated_ring(4, 2.0, 1.0));
        let snap = ledger.snapshot();
        let d1 =
            CommitDelta::with_usage(vec![(VnfId(0), NodeId(1))], vec![], vec![(EdgeId(0), 0.1)]);
        ledger.validate(&snap, &d1, false).unwrap();
        ledger.confirm_with_task(Some(1), &d1, None);
        // A later delta over the same edge conflicts against the stale
        // snapshot; a disjoint edge validates fine.
        let d2 = CommitDelta::with_usage(vec![], vec![], vec![(EdgeId(0), 0.2)]);
        assert_eq!(
            ledger.validate(&snap, &d2, false),
            Err(CommitRejection::ConflictEdge { edge: EdgeId(0) })
        );
        let disjoint = CommitDelta::with_usage(vec![], vec![], vec![(EdgeId(2), 0.2)]);
        ledger.validate(&snap, &disjoint, false).unwrap();
        ledger.validate(&ledger.snapshot(), &d2, false).unwrap();
        ledger.confirm_with_task(Some(2), &d2, None);
        assert_eq!(edge_load(&ledger, 0), (1.0, 0.1 + 0.2));

        // Releases give bandwidth back refcount-style.
        let (_, _, bw) = ledger.confirm_release(1).unwrap();
        assert_eq!(bw, 0.1);
        assert_eq!(edge_load(&ledger, 0), (1.0, 0.1 + 0.2 - 0.1));
        let (_, _, bw) = ledger.confirm_release(2).unwrap();
        assert_eq!(bw, 0.2);
        assert_eq!(
            edge_load(&ledger, 0),
            (1.0, 0.0),
            "last release snaps to zero"
        );

        // The log carries the edge charges on both commit and release
        // records, so serial replay reproduces edge state too.
        let log = ledger.commit_log();
        assert_eq!(log[0].edges, vec![(EdgeId(0), 0.1)]);
        assert_eq!(log[2].op, LedgerOp::Release);
        assert_eq!(log[2].edges, vec![(EdgeId(0), 0.1)]);
    }

    /// The admission bandwidth bound: a demand wider than the widest
    /// residual edge rejects, queued-release credit widens the bound, and
    /// zero-bandwidth tasks never consult it.
    #[test]
    fn bandwidth_admission_bound_counts_queued_release_credit() {
        let ledger = CapacityLedger::new(&capacitated_ring(4, 4.0, 1.0));
        // One session saturates every edge.
        let fill =
            CommitDelta::with_usage(vec![], vec![], (0..4).map(|e| (EdgeId(e), 1.0)).collect());
        ledger.confirm_with_task(Some(9), &fill, None);
        let t = task(0, &[2], &[0, 1]);
        ledger.check_capacity(&t).unwrap();
        let tb = t.clone().with_bandwidth(0.5).unwrap();
        assert!(matches!(
            ledger.check_capacity(&tb),
            Err(ServiceError::InsufficientBandwidth { .. })
        ));
        // A queued release of the saturating session credits its edges.
        assert!(ledger.note_queued_release(9));
        ledger.check_capacity(&tb).unwrap();
        ledger.clear_queued_release(9);
        assert!(matches!(
            ledger.check_capacity(&tb),
            Err(ServiceError::InsufficientBandwidth { .. })
        ));
        // The confirmed release makes the bandwidth real again.
        let (_, _, bw) = ledger.confirm_release(9).unwrap();
        assert_eq!(bw, 4.0);
        ledger.check_capacity(&tb).unwrap();
    }

    #[test]
    fn deployed_instances_make_their_type_reusable_for_admission() {
        let mut network = ring_network(6, 1.0);
        let t = task(0, &[3], &[0, 1]);
        // Two fresh unit demands against total residual 6.0 admits...
        CapacityLedger::new(&network).check_capacity(&t).unwrap();
        // ...and once both types are live, even a full network admits the
        // reuse-only chain — `Network::min_new_demand` is 0.
        let delta = CommitDelta::new(vec![(VnfId(0), NodeId(1)), (VnfId(1), NodeId(2))]);
        network.apply_delta(&delta).unwrap();
        let ledger = CapacityLedger::new(&network);
        ledger.check_capacity(&t).unwrap();
        assert_eq!(
            ledger.network().total_residual_capacity(),
            network.total_residual_capacity()
        );
    }
}
