//! Stage 1 — the Modified Shortest-path Algorithm (MSA, paper Algorithm 2).
//!
//! For every candidate last-VNF server `v`, MSA:
//!
//! 1. reads the optimal chain embedding ending at `v` off one shortest-path
//!    pass over the expanded MOD network (Theorem 2);
//! 2. repairs capacity violations by moving overloaded stages (§IV-B);
//! 3. builds a Steiner tree connecting the (possibly moved) last VNF node
//!    to all destinations;
//!
//! and keeps the candidate with the smallest canonical delivery cost
//! (Theorem 3: the result is feasible), the lowest row among equal costs.
//!
//! Step 3 dominates, so the sweep prunes it exactly: every row gets a
//! cheap lower bound (its chain cost plus its farthest destination), rows
//! are visited in ascending bound order, and the sweep stops once no
//! unvisited row can beat the incumbent. The winner, its tree and its
//! cost are those of the exhaustive sweep ([`stage_one_candidates`]).
//! The sweep runs on the calling thread, so one incumbent prunes every
//! row.
//!
//! Every KMB tree of one sweep spans the same destinations, so the sweep
//! builds them through one [`KmbSweep`], which reads the
//! destination-to-destination closure distances and paths once, on the
//! first Steiner-cache miss, and reuses them for every later root.

use crate::chain::{chain_cost, repair_capacity, ChainSolution, LoadSnapshot};
use crate::mod_network::ExpandedMod;
use crate::network::Network;
use crate::task::MulticastTask;
use crate::CoreError;
use sft_graph::parallel::Parallelism;
use sft_graph::{CancelToken, KmbSweep, NodeId, SteinerCache, SteinerTree};
use std::collections::BTreeMap;

/// Which Steiner-tree construction stage 1 hangs off the last VNF node.
///
/// The paper uses KMB (its Theorem 5 charges KMB's complexity); the
/// Takahashi–Matsuyama variant is kept as an ablation of that design
/// choice — same approximation class, different tree shapes.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum SteinerMethod {
    /// Kou–Markowsky–Berman over the network's memoized distance rows.
    #[default]
    Kmb,
    /// Takahashi–Matsuyama incremental path heuristic.
    Takahashi,
}

/// Relative slack shaved off each row's lower bound, so that rounding in
/// the distance rows and in the tree's edge sum (both far below 1e-12
/// relative) can never lift a bound above the cost the row computes.
const BOUND_SLACK: f64 = 1e-9;

/// Runs MSA stage 1 with KMB trees, returning the best chain-plus-tree
/// solution. [`crate::solve`] runs the whole pipeline; this is stage 1
/// alone, in the shape of [`crate::sca::stage_one`].
///
/// # Errors
///
/// * Task/network mismatches ([`CoreError::NodeOutOfBounds`],
///   [`CoreError::VnfOutOfBounds`]).
/// * [`CoreError::Infeasible`] when no candidate yields a feasible
///   embedding (disconnected destinations or exhausted capacity).
pub fn stage_one(network: &Network, task: &MulticastTask) -> Result<ChainSolution, CoreError> {
    sweep(network, task, SteinerMethod::Kmb, None, None)
}

/// Runs MSA stage 1 with an explicit Steiner construction and a
/// cooperative [`CancelToken`]. The sweep runs on the calling thread for
/// every `parallelism`, which it ignores.
///
/// The token is polled once per visited candidate row and inside lazy
/// distance-row computation, so a mid-solve cancellation interrupts
/// within one candidate evaluation. A cancelled sweep returns
/// [`CoreError::Cancelled`] — never a partial winner — and mutates no
/// shared state (persistent Steiner caches may retain trees finished
/// before the trip; they are valid either way).
///
/// # Errors
///
/// [`CoreError::Cancelled`] when `cancel` trips mid-solve, plus the same
/// conditions as [`stage_one`].
pub fn stage_one_cancellable(
    network: &Network,
    task: &MulticastTask,
    method: SteinerMethod,
    _parallelism: Parallelism,
    cancel: Option<&CancelToken>,
) -> Result<ChainSolution, CoreError> {
    sweep(network, task, method, None, cancel)
}

/// [`stage_one_cancellable`] against a persistent, externally owned
/// Steiner cache.
///
/// This is the long-running-service entry point: the cache outlives the
/// solve, so trees built for one task are reused by later tasks that share
/// a root and destination set. Entries are keyed `(root, destinations)`;
/// a Steiner tree depends only on the graph topology and edge weights —
/// never on capacities or deployments — so the cache stays valid across
/// committed embeddings and must only be flushed when the graph itself
/// changes (see [`sft_graph::cache`] for the full contract). Results are
/// bit-identical to [`stage_one_cancellable`]: a cached tree is exactly
/// the tree a fresh computation would build.
///
/// One cache must serve a single [`SteinerMethod`] — trees are keyed by
/// terminals only, so mixing constructions on one cache would conflate
/// their (different) trees.
///
/// # Errors
///
/// [`CoreError::Cancelled`] when `cancel` trips mid-solve, plus the same
/// conditions as [`stage_one`].
pub fn stage_one_with_cache_cancellable(
    network: &Network,
    task: &MulticastTask,
    method: SteinerMethod,
    _parallelism: Parallelism,
    cache: &SteinerCache,
    cancel: Option<&CancelToken>,
) -> Result<ChainSolution, CoreError> {
    sweep(network, task, method, Some(cache), cancel)
}

/// A candidate row after chain readout and capacity repair, before its
/// Steiner tree is built.
struct Decoded {
    row: usize,
    placement: Vec<NodeId>,
    /// [`chain_cost`] of the repaired placement.
    chain: f64,
}

/// The bound-and-prune sweep behind [`crate::solve`] and every
/// `stage_one_*` entry, against a persistent cache (`shared`) or a
/// per-solve map.
///
/// A row's bound `B` is its exact chain cost plus `max_d dist(d, w)`: a
/// tree spanning `{w} ∪ D` contains a `w`–`d` path for every destination,
/// so its cost is at least that distance, and f64 addition is monotone,
/// so `B` (shaved by [`BOUND_SLACK`]) never exceeds the cost the row
/// computes. Rows are visited in ascending `(B, row)` order; the sweep
/// stops at the first row whose bound exceeds the incumbent cost, or
/// equals it at a higher row. The incumbent changes on a lower cost, or on
/// an equal cost at a lower row, so the winner is the exhaustive sweep's
/// lowest-row minimum.
pub(crate) fn sweep(
    network: &Network,
    task: &MulticastTask,
    method: SteinerMethod,
    shared: Option<&SteinerCache>,
    cancel: Option<&CancelToken>,
) -> Result<ChainSolution, CoreError> {
    if let Some(token) = cancel {
        token.check()?;
    }
    task.check_against(network)?;
    let emod = ExpandedMod::build(network, task.source(), task.sfc())?;
    let loads = LoadSnapshot::new(network);

    let mut rows: Vec<(f64, Decoded)> = Vec::with_capacity(emod.servers().len());
    for row in 0..emod.servers().len() {
        let Some(decoded) = decode_row(network, task, &emod, &loads, row) else {
            continue;
        };
        let w = *decoded.placement.last().expect("chain is non-empty");
        // A row with an unreachable destination can have no tree; a
        // cancelled row read is turned into `Cancelled` below.
        if let Some(bound) = lower_bound(network, task, decoded.chain, w, cancel) {
            rows.push((bound, decoded));
        }
    }
    if let Some(token) = cancel {
        token.check()?;
    }
    // Stable: equal bounds keep row order.
    rows.sort_by(|a, b| a.0.total_cmp(&b.0));

    let mut trees = Trees::new(network, task, method, shared, cancel);
    let mut best: Option<(f64, usize, ChainSolution)> = None;
    for (bound, decoded) in rows {
        if let Some((cost, row, _)) = &best {
            if bound > *cost || (bound == *cost && decoded.row > *row) {
                break;
            }
        }
        if cancel.is_some_and(CancelToken::is_cancelled) {
            break;
        }
        let w = *decoded.placement.last().expect("chain is non-empty");
        let Some(tree) = trees.get(w) else {
            continue;
        };
        let cost = decoded.chain + tree.cost;
        if best
            .as_ref()
            .is_none_or(|(b, r, _)| cost < *b || (cost == *b && decoded.row < *r))
        {
            let chain = ChainSolution {
                placement: decoded.placement,
                steiner_edges: tree.edges,
            };
            best = Some((cost, decoded.row, chain));
        }
    }

    if let Some(token) = cancel {
        token.check()?;
    }
    best.map(|(_, _, c)| c)
        .ok_or_else(|| CoreError::Infeasible {
            reason: "no feasible chain embedding for any last-VNF candidate".into(),
        })
}

/// Enumerates every feasible stage-1 candidate as `(closed-form cost,
/// solution)` pairs in row order — the exact set the sweep minimizes over,
/// built without pruning (the sweep's test oracle).
///
/// Exposed so tests can check the DESIGN §6 invariant that the closed-form
/// cost of each candidate equals the canonical [`crate::cost::delivery_cost`]
/// of its embedding.
///
/// # Errors
///
/// Task/network mismatches, as in [`stage_one`].
pub fn stage_one_candidates(
    network: &Network,
    task: &MulticastTask,
    method: SteinerMethod,
) -> Result<Vec<(f64, ChainSolution)>, CoreError> {
    task.check_against(network)?;
    let emod = ExpandedMod::build(network, task.source(), task.sfc())?;
    let loads = LoadSnapshot::new(network);
    let mut trees = Trees::new(network, task, method, None, None);
    let mut out = Vec::new();
    for row in 0..emod.servers().len() {
        if let Some(candidate) = evaluate_candidate(network, task, &emod, &loads, &mut trees, row) {
            out.push(candidate);
        }
    }
    Ok(out)
}

/// Reads one row's chain off the MOD solution and repairs its capacity;
/// `None` when the row yields no feasible chain.
fn decode_row(
    network: &Network,
    task: &MulticastTask,
    emod: &ExpandedMod,
    loads: &LoadSnapshot<'_>,
    row: usize,
) -> Option<Decoded> {
    let (mut placement, _) = emod.placement_for(row)?;
    repair_capacity(network, loads, task.source(), task.sfc(), &mut placement).ok()?;
    let chain = chain_cost(network, task, &placement);
    Some(Decoded {
        row,
        placement,
        chain,
    })
}

/// A lower bound on the cost of any candidate whose chain costs `chain`
/// and ends at `w`, read from the destination rows (the graph is
/// undirected): `chain + max_d dist(d, w)`, shaved by [`BOUND_SLACK`].
/// `None` when some destination cannot reach `w`, or `cancel` trips.
fn lower_bound(
    network: &Network,
    task: &MulticastTask,
    chain: f64,
    w: NodeId,
    cancel: Option<&CancelToken>,
) -> Option<f64> {
    let dist = network.dist();
    let mut far = 0.0f64;
    for &d in task.destinations() {
        far = far.max(dist.try_distance(d, w, cancel).ok()??);
    }
    let bound = chain + far;
    Some(bound - bound * BOUND_SLACK)
}

/// The delivery trees of one sweep, each rooted at a candidate's last VNF
/// node and reaching every task destination: memoized through `shared`
/// when a persistent cache is plugged in and through the per-solve `local`
/// map otherwise, and built on a miss. `None` entries record roots whose
/// tree construction failed (e.g. disconnected from some destination).
struct Trees<'a> {
    network: &'a Network,
    task: &'a MulticastTask,
    method: SteinerMethod,
    shared: Option<&'a SteinerCache>,
    cancel: Option<&'a CancelToken>,
    local: BTreeMap<NodeId, Option<SteinerTree>>,
    /// KMB's destination-side state, made on the first build.
    kmb: Option<KmbSweep<'a>>,
}

impl<'a> Trees<'a> {
    fn new(
        network: &'a Network,
        task: &'a MulticastTask,
        method: SteinerMethod,
        shared: Option<&'a SteinerCache>,
        cancel: Option<&'a CancelToken>,
    ) -> Self {
        Trees {
            network,
            task,
            method,
            shared,
            cancel,
            local: BTreeMap::new(),
            kmb: None,
        }
    }

    /// The delivery tree rooted at `w`.
    fn get(&mut self, w: NodeId) -> Option<SteinerTree> {
        let dests = self.task.destinations();
        if let Some(cache) = self.shared {
            if let Some(cached) = cache.lookup(w, dests) {
                return cached;
            }
            let built = self.build(w);
            // A failure caused by cancellation must not be recorded: the
            // cache outlives this solve, and a later solve would wrongly
            // read the root as infeasible. (The per-solve `local` map
            // below has no such hazard — it dies with the cancelled
            // sweep.)
            if built.is_some() || !self.cancel.is_some_and(CancelToken::is_cancelled) {
                cache.store(w, dests, built.clone());
            }
            return built;
        }
        if let Some(known) = self.local.get(&w) {
            return known.clone();
        }
        let built = self.build(w);
        self.local.insert(w, built.clone());
        built
    }

    /// Builds the tree rooted at `w` (the pure computation both memo
    /// flavors keep). `.ok()` also swallows a mid-build cancellation; that
    /// is safe — the sweep re-checks the token at its end, so a cancelled
    /// solve still returns `CoreError::Cancelled` rather than a partial
    /// winner.
    fn build(&mut self, w: NodeId) -> Option<SteinerTree> {
        let (graph, dests) = (self.network.graph(), self.task.destinations());
        match self.method {
            SteinerMethod::Kmb => {
                let dist = self.network.dist();
                let kmb = self
                    .kmb
                    .get_or_insert_with(|| KmbSweep::new(graph, dist, dests));
                kmb.tree(w, self.cancel).ok()
            }
            SteinerMethod::Takahashi => {
                let mut terminals = vec![w];
                terminals.extend_from_slice(dests);
                graph.steiner_takahashi(&terminals).ok()
            }
        }
    }
}

/// Evaluates one last-VNF candidate row without pruning: chain readout,
/// capacity repair, Steiner tree, closed-form cost. Returns `None` when
/// the row yields no feasible embedding.
fn evaluate_candidate(
    network: &Network,
    task: &MulticastTask,
    emod: &ExpandedMod,
    loads: &LoadSnapshot<'_>,
    trees: &mut Trees<'_>,
    row: usize,
) -> Option<(f64, ChainSolution)> {
    let Decoded {
        placement, chain, ..
    } = decode_row(network, task, emod, loads, row)?;
    let w = *placement.last().expect("chain is non-empty");
    let tree = trees.get(w)?;
    // Stage-1 candidate cost has a closed form: every destination
    // shares the chain segments, so per-segment dedup leaves exactly
    // "chain path costs + deduped setups + Steiner tree cost".
    Some((
        chain + tree.cost,
        ChainSolution {
            placement,
            steiner_edges: tree.edges,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::delivery_cost;
    use crate::validate::is_valid;
    use crate::vnf::{Sfc, VnfCatalog, VnfId};
    use sft_graph::Graph;

    /// A ring of 6 nodes with one chord, all servers.
    fn ring_net(capacity: f64) -> Network {
        let mut g = Graph::new(6);
        for i in 0..6 {
            g.add_edge(NodeId(i), NodeId((i + 1) % 6), 1.0 + i as f64 * 0.1)
                .unwrap();
        }
        g.add_edge(NodeId(0), NodeId(3), 2.0).unwrap();
        Network::builder(g, VnfCatalog::uniform(3))
            .all_servers(capacity)
            .unwrap()
            .uniform_setup_cost(1.0)
            .unwrap()
            .build()
            .unwrap()
    }

    fn a_task() -> MulticastTask {
        MulticastTask::new(
            NodeId(0),
            vec![NodeId(2), NodeId(4)],
            Sfc::new(vec![VnfId(0), VnfId(1)]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn produces_a_feasible_embedding() {
        let net = ring_net(5.0);
        let task = a_task();
        let chain = stage_one(&net, &task).unwrap();
        assert_eq!(chain.placement.len(), 2);
        let emb = chain.to_embedding(&net, &task).unwrap();
        assert!(is_valid(&net, &task, &emb));
    }

    #[test]
    fn respects_tight_capacities() {
        let net = ring_net(1.0); // one instance per node
        let task = a_task();
        let chain = stage_one(&net, &task).unwrap();
        assert_ne!(chain.placement[0], chain.placement[1]);
        let emb = chain.to_embedding(&net, &task).unwrap();
        assert!(is_valid(&net, &task, &emb));
    }

    #[test]
    fn reuses_deployed_instances_when_cheaper() {
        // Make new setups expensive; pre-deploy the whole chain along a
        // slightly longer route. MSA should ride the free instances.
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap(); // short path side
        g.add_edge(NodeId(1), NodeId(3), 1.0).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 1.5).unwrap(); // deployed side
        g.add_edge(NodeId(2), NodeId(3), 1.5).unwrap();
        let net = Network::builder(g, VnfCatalog::uniform(2))
            .all_servers(3.0)
            .unwrap()
            .uniform_setup_cost(50.0)
            .unwrap()
            .deploy(VnfId(0), NodeId(2))
            .unwrap()
            .deploy(VnfId(1), NodeId(2))
            .unwrap()
            .build()
            .unwrap();
        let task = MulticastTask::new(
            NodeId(0),
            vec![NodeId(3)],
            Sfc::new(vec![VnfId(0), VnfId(1)]).unwrap(),
        )
        .unwrap();
        let chain = stage_one(&net, &task).unwrap();
        assert_eq!(chain.placement, vec![NodeId(2), NodeId(2)]);
        let emb = chain.to_embedding(&net, &task).unwrap();
        let cost = delivery_cost(&net, &task, &emb).unwrap();
        assert_eq!(cost.setup, 0.0);
    }

    #[test]
    fn infeasible_when_capacity_is_zero_everywhere() {
        let net = ring_net(0.0);
        let task = a_task();
        assert!(matches!(
            stage_one(&net, &task),
            Err(CoreError::Infeasible { .. })
        ));
    }

    #[test]
    fn takahashi_variant_is_feasible_and_comparable() {
        let net = ring_net(5.0);
        let task = a_task();
        let with = |method| {
            stage_one_cancellable(&net, &task, method, Parallelism::sequential(), None).unwrap()
        };
        let (kmb, tm) = (with(SteinerMethod::Kmb), with(SteinerMethod::Takahashi));
        assert_eq!(kmb, stage_one(&net, &task).unwrap());
        for chain in [&kmb, &tm] {
            let emb = chain.to_embedding(&net, &task).unwrap();
            assert!(is_valid(&net, &task, &emb));
        }
        // Same approximation class: neither may be worse than 2x the other.
        let cost = |c: &ChainSolution| {
            let emb = c.to_embedding(&net, &task).unwrap();
            delivery_cost(&net, &task, &emb).unwrap().total()
        };
        let (a, b) = (cost(&kmb), cost(&tm));
        assert!(a <= 2.0 * b + 1e-9 && b <= 2.0 * a + 1e-9);
    }

    #[test]
    fn shared_cache_is_bit_identical_and_reused_across_solves() {
        let net = ring_net(5.0);
        let task = a_task();
        let plain = stage_one(&net, &task).unwrap();
        let cache = SteinerCache::new();
        let cached = |parallelism| {
            stage_one_with_cache_cancellable(
                &net,
                &task,
                SteinerMethod::Kmb,
                parallelism,
                &cache,
                None,
            )
            .unwrap()
        };
        let first = cached(Parallelism::sequential());
        assert_eq!(plain, first);
        assert!(cache.misses() > 0, "first solve populates the cache");
        let hits_before = cache.hits();
        // Same task again, different thread count: every tree is served
        // from the cache and the answer does not change.
        for threads in [1usize, 2, 5] {
            let again = cached(Parallelism::new(threads));
            assert_eq!(plain, again, "threads={threads}");
        }
        assert!(cache.hits() > hits_before, "repeat solves must hit");
    }

    #[test]
    fn a_tripped_token_cancels_the_sweep_and_a_live_one_changes_nothing() {
        let net = ring_net(5.0);
        let task = a_task();
        let token = CancelToken::new();
        token.cancel();
        for threads in [Parallelism::sequential(), Parallelism::new(3)] {
            let err = stage_one_cancellable(&net, &task, SteinerMethod::Kmb, threads, Some(&token))
                .unwrap_err();
            assert!(matches!(err, CoreError::Cancelled));
        }
        let live = CancelToken::new();
        let with = stage_one_cancellable(
            &net,
            &task,
            SteinerMethod::Kmb,
            Parallelism::new(2),
            Some(&live),
        )
        .unwrap();
        assert_eq!(with, stage_one(&net, &task).unwrap());
    }

    #[test]
    fn a_cancelled_build_is_not_recorded_in_a_shared_cache() {
        // Distance rows propagate cancellation out of tree builds; the
        // resulting failure must not be stored as an "infeasible root" in
        // a cache that outlives the solve.
        let build = || {
            let mut g = Graph::new(6);
            for i in 0..6 {
                g.add_edge(NodeId(i), NodeId((i + 1) % 6), 1.0 + i as f64 * 0.1)
                    .unwrap();
            }
            g.add_edge(NodeId(0), NodeId(3), 2.0).unwrap();
            Network::builder(g, VnfCatalog::uniform(3))
                .all_servers(5.0)
                .unwrap()
                .uniform_setup_cost(1.0)
                .unwrap()
                .build()
                .unwrap()
        };
        let net = build();
        let task = a_task();
        let emod = ExpandedMod::build(&net, task.source(), task.sfc()).unwrap();
        let loads = LoadSnapshot::new(&net);
        let cache = SteinerCache::new();
        // Building the MOD overlay memoized every row of `net`; an
        // identical fresh network has none, so its tree build must compute
        // one and trips on the token. (Row 0's placement feasibility is
        // confirmed by the clean evaluate below.)
        let fresh = build();
        assert_eq!(fresh.dist().rows_materialized(), 0);
        let token = CancelToken::new();
        token.cancel();
        let mut cancelled = Trees::new(
            &fresh,
            &task,
            SteinerMethod::Kmb,
            Some(&cache),
            Some(&token),
        );
        let got = evaluate_candidate(&fresh, &task, &emod, &loads, &mut cancelled, 0);
        assert!(got.is_none(), "cancelled row yields no candidate");
        assert_eq!(cache.len(), 0, "cancelled failure must not be cached");
        let mut warm = Trees::new(&fresh, &task, SteinerMethod::Kmb, None, None);
        assert!(evaluate_candidate(&fresh, &task, &emod, &loads, &mut warm, 0).is_some());
        // A clean solve over the same cache then succeeds normally.
        let chain = stage_one_with_cache_cancellable(
            &net,
            &task,
            SteinerMethod::Kmb,
            Parallelism::sequential(),
            &cache,
            None,
        )
        .unwrap();
        assert_eq!(chain, stage_one(&net, &task).unwrap());
    }

    #[test]
    fn candidates_include_the_sweep_winner() {
        let net = ring_net(5.0);
        let task = a_task();
        let winner = stage_one(&net, &task).unwrap();
        let candidates = stage_one_candidates(&net, &task, SteinerMethod::Kmb).unwrap();
        assert!(!candidates.is_empty());
        let min = candidates
            .iter()
            .map(|(c, _)| *c)
            .fold(f64::INFINITY, f64::min);
        let best = candidates
            .iter()
            .find(|(c, _)| *c == min)
            .expect("min exists");
        assert_eq!(best.1.placement, winner.placement);
    }

    #[test]
    fn the_bound_never_exceeds_a_rows_tree_cost() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xb0);
        let (mut rows, mut tight) = (0usize, 0usize);
        for case in 0..400 {
            // Fractional weights on a tree-plus-chords graph: many rows'
            // best tree is one shortest path, where the bound is tight.
            let n = rng.random_range(3..=9usize);
            let mut g = Graph::new(n);
            for v in 1..n {
                let u = rng.random_range(0..v);
                let w = f64::from(rng.random_range(0..=40u32)) / 7.0;
                g.add_edge(NodeId(u), NodeId(v), w).unwrap();
            }
            for _ in 0..rng.random_range(0..n) {
                let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
                if u != v && g.find_edge(NodeId(u), NodeId(v)).is_none() {
                    let w = f64::from(rng.random_range(1..=40u32)) / 3.0;
                    g.add_edge(NodeId(u), NodeId(v), w).unwrap();
                }
            }
            let net = Network::builder(g, VnfCatalog::uniform(2))
                .all_servers(f64::from(rng.random_range(1..=2u32)))
                .unwrap()
                .uniform_setup_cost(0.5)
                .unwrap()
                .build()
                .unwrap();
            let mut dests: Vec<NodeId> = (1..n).map(NodeId).collect();
            dests.truncate(rng.random_range(1..=3usize));
            let stages: Vec<VnfId> = (0..rng.random_range(1..=3usize))
                .map(|j| VnfId(j % 2))
                .collect();
            let task = MulticastTask::new(NodeId(0), dests, Sfc::new(stages).unwrap()).unwrap();
            let emod = ExpandedMod::build(&net, task.source(), task.sfc()).unwrap();
            let loads = LoadSnapshot::new(&net);
            for method in [SteinerMethod::Kmb, SteinerMethod::Takahashi] {
                let mut trees = Trees::new(&net, &task, method, None, None);
                for row in 0..emod.servers().len() {
                    let Some(decoded) = decode_row(&net, &task, &emod, &loads, row) else {
                        continue;
                    };
                    let w = *decoded.placement.last().unwrap();
                    let bound = lower_bound(&net, &task, decoded.chain, w, None).unwrap();
                    let (cost, _) =
                        evaluate_candidate(&net, &task, &emod, &loads, &mut trees, row).unwrap();
                    assert!(bound <= cost, "case {case} row {row}: {bound} > {cost}");
                    rows += 1;
                    tight += usize::from(cost - bound <= 1e-6 * cost.max(1.0));
                }
            }
        }
        assert!(rows > 1000 && tight * 10 > rows, "{tight} tight of {rows}");
    }

    #[test]
    fn single_destination_single_stage() {
        let net = ring_net(2.0);
        let task = MulticastTask::new(
            NodeId(0),
            vec![NodeId(3)],
            Sfc::new(vec![VnfId(2)]).unwrap(),
        )
        .unwrap();
        let chain = stage_one(&net, &task).unwrap();
        let emb = chain.to_embedding(&net, &task).unwrap();
        assert!(is_valid(&net, &task, &emb));
    }
}
