//! The one full-solve entry point: stage 1 (MSA, SCA or RSA), then OPA.
//!
//! A task with a delay budget is solved as if it had none; then each late
//! destination route is rerouted between its fixed waypoints along a λ
//! ladder of `cost + λ·latency` metrics. The ladder's per-(rung, server)
//! shortest-path trees depend only on the graph, so they are computed
//! once per network and shared by its clones ([`RerouteTrees`]). Those
//! trees and the searches from the task source run on the network's
//! distance engine ([`sft_graph::LazyDistances::predecessors_with`]), the
//! same CSR Dijkstra kernel that fills its cost rows.

use crate::chain::ChainSolution;
use crate::cost::{delivery_cost, CostBreakdown};
use crate::embedding::{DestinationRoute, Embedding};
use crate::msa::SteinerMethod;
use crate::network::Network;
use crate::task::MulticastTask;
use crate::{msa, opa, rsa, sca, CoreError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sft_graph::provider::NO_NODE;
use sft_graph::{approx_le, CancelToken, Graph, NodeId, Parallelism, SteinerCache};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Which stage-1 algorithm to run (stage 2 / OPA is shared, §V-A).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum Strategy {
    /// The paper's Modified Shortest-path Algorithm (Algorithm 2).
    #[default]
    Msa,
    /// The minimum Set Cover baseline.
    Sca,
    /// The Randomly Selecting baseline; it draws from a generator seeded
    /// with [`SolveOptions::seed`].
    Rsa,
}

/// Whether to run the stage-2 optimization.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum StageTwo {
    /// Run OPA (the paper's full two-stage pipeline).
    #[default]
    Opa,
    /// Stop after stage 1 (ablation: chain embedding only).
    Skip,
}

/// Everything [`solve`] takes besides the network and the task.
///
/// `Default` runs MSA with KMB trees, then OPA, on the calling thread, with
/// a per-solve Steiner map and no cancellation.
#[derive(Clone, Debug, Default)]
pub struct SolveOptions<'a> {
    /// The stage-1 algorithm (default: MSA).
    pub strategy: Strategy,
    /// Whether to run the stage-2 optimization (default: run OPA).
    pub stage_two: StageTwo,
    /// The Steiner construction MSA hangs off the last VNF node (default:
    /// KMB, as in the paper).
    pub steiner: SteinerMethod,
    /// Seed of the fresh `StdRng` RSA draws its placement from, so one
    /// seed always gives one answer. MSA and SCA draw nothing.
    pub seed: u64,
    /// Worker threads for task-level fan-out, such as
    /// `sft_service`'s independent batch mode (default: available cores).
    /// No solve reads it: the MSA stage-1 sweep runs on the calling thread
    /// so that one incumbent prunes every candidate row.
    pub parallelism: Parallelism,
    /// Cooperative cancellation for mid-solve interruption (deadline
    /// expiry, queue shed, graceful drain). Polled in the MSA stage-1
    /// candidate sweep and inside lazy distance-row computation; a tripped
    /// token makes the solve return [`CoreError::Cancelled`] without
    /// mutating shared state (default: never cancelled).
    pub cancel: Option<CancelToken>,
    /// A persistent Steiner cache for long-running services that solve
    /// many tasks over one network: MSA reads and fills it instead of a
    /// per-solve map (see [`crate::msa::stage_one_with_cache_cancellable`]
    /// for the validity contract). The other strategies ignore it, and
    /// answers are bit-identical for every cache state (default: none).
    pub cache: Option<&'a SteinerCache>,
}

/// Result of a complete solve.
#[derive(Clone, Debug)]
pub struct SolveResult {
    /// The final embedding.
    pub embedding: Embedding,
    /// Cost breakdown of the final embedding.
    pub cost: CostBreakdown,
    /// Total cost of the stage-1 solution before OPA (equals
    /// `cost.total()` when OPA was skipped or added nothing).
    pub stage1_cost: f64,
    /// The stage-1 chain solution (placement + Steiner tree).
    pub chain: ChainSolution,
    /// Branch instances OPA added, as `(stage, node)` pairs.
    pub added_instances: Vec<(usize, sft_graph::NodeId)>,
    /// The largest source→destination delay of the returned embedding —
    /// `Some` exactly when the task carried a delay budget (and then
    /// guaranteed ≤ budget), `None` for unconstrained tasks.
    pub max_path_delay: Option<f64>,
}

/// Solves a multicast SFT-embedding task: the stage-1 chain embedding
/// `options.strategy` names, then OPA unless `options.stage_two` skips it.
///
/// Tasks with a bandwidth demand are solved on a
/// [`Network::bandwidth_view`] when any link is too saturated to carry
/// them: the solve routes around those links, or returns
/// [`CoreError::Infeasible`] when no bandwidth-feasible tree exists —
/// never an overbooked one. A view is a different graph, so its solve
/// never reads from or writes into `options.cache`. Bandwidth-free tasks
/// solve on `network` itself.
///
/// # Errors
///
/// * Any stage-1 error ([`CoreError::Infeasible`], id mismatches).
/// * [`CoreError::Cancelled`] when `options.cancel` trips mid-solve.
/// * [`CoreError::DelayInfeasible`] when no rerouting meets the task's
///   delay budget.
///
/// ```
/// use sft_core::{solve, SolveOptions};
/// use sft_core::{MulticastTask, Network, Sfc, VnfCatalog, VnfId};
/// use sft_graph::{Graph, NodeId};
///
/// # fn main() -> Result<(), sft_core::CoreError> {
/// let mut g = Graph::new(4);
/// for i in 0..3 { g.add_edge(NodeId(i), NodeId(i + 1), 1.0).unwrap(); }
/// let net = Network::builder(g, VnfCatalog::uniform(2))
///     .all_servers(2.0)?
///     .build()?;
/// let task = MulticastTask::new(
///     NodeId(0),
///     vec![NodeId(3)],
///     Sfc::new(vec![VnfId(0), VnfId(1)])?,
/// )?;
/// let result = solve(&net, &task, &SolveOptions::default())?;
/// assert!(result.cost.total() > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn solve(
    network: &Network,
    task: &MulticastTask,
    options: &SolveOptions<'_>,
) -> Result<SolveResult, CoreError> {
    let view = network.bandwidth_view(task.bandwidth())?;
    let (network, cache) = match &view {
        Some(view) => (view, None),
        None => (network, options.cache),
    };
    let chain = match options.strategy {
        Strategy::Msa => msa::sweep(
            network,
            task,
            options.steiner,
            cache,
            options.cancel.as_ref(),
        )?,
        Strategy::Sca => sca::stage_one(network, task)?,
        Strategy::Rsa => rsa::stage_one(network, task, &mut StdRng::seed_from_u64(options.seed))?,
    };
    finish(network, task, chain, options.stage_two)
}

fn finish(
    network: &Network,
    task: &MulticastTask,
    chain: ChainSolution,
    stage_two: StageTwo,
) -> Result<SolveResult, CoreError> {
    // OPA prices the embedding it returns; stage 1 alone leaves it unpriced.
    let (mut embedding, stage1_cost, added_instances, mut priced) = match stage_two {
        StageTwo::Opa => {
            let out = opa::optimize(network, task, &chain)?;
            (
                out.embedding,
                Some(out.initial_cost),
                out.added_instances,
                Some(out.cost),
            )
        }
        StageTwo::Skip => (chain.to_embedding(network, task)?, None, Vec::new(), None),
    };
    let mut max_path_delay = None;
    if let Some(budget) = task.delay_budget() {
        let (rerouted, delay) = enforce_delay_budget(network, task, &embedding, budget)?;
        if let Some(rerouted) = rerouted {
            embedding = rerouted;
            priced = None;
        }
        max_path_delay = Some(delay);
    }
    let cost = match priced {
        Some(cost) => cost,
        None => delivery_cost(network, task, &embedding)?,
    };
    Ok(SolveResult {
        stage1_cost: stage1_cost.unwrap_or_else(|| cost.total()),
        embedding,
        cost,
        chain,
        added_instances,
        max_path_delay,
    })
}

/// The λ ladder of the Lagrangian-relaxed repair: each rung reroutes
/// every segment under the composite metric `cost + λ·latency`. λ = 0
/// re-derives the pure min-cost segments; the ladder then trades cost
/// for delay in deterministic steps, and a final latency-only rung
/// serves as the feasibility certificate for the fixed waypoint set.
const LAMBDA_LADDER: &[f64] = &[0.0, 0.25, 1.0, 4.0, 16.0];

/// Metrics the delay repair routes under: one per λ rung, then the
/// latency-only certificate.
const RUNGS: usize = LAMBDA_LADDER.len() + 1;

/// Arc weight under rung `rung`, given the arc's cost and latency.
fn rung_metric(rung: usize, cost: f64, latency: f64) -> f64 {
    match LAMBDA_LADDER.get(rung) {
        Some(&lambda) => cost + lambda * latency,
        None => latency,
    }
}

/// The rung's shortest `a`→`b` path from `a`'s predecessor array, or
/// `None` when `b` is unreachable.
fn walk(pred: &[u32], a: NodeId, b: NodeId) -> Option<Vec<NodeId>> {
    let mut path = vec![b];
    let mut cur = b;
    while cur != a {
        match pred[cur.0] {
            NO_NODE => return None,
            p => cur = NodeId(p as usize),
        }
        path.push(cur);
    }
    path.reverse();
    Some(path)
}

/// The delay repair's single-source trees, one per (rung, server), memoized
/// for the life of a network and shared by its clones.
///
/// A rung's metric reads only edge weights and latencies, which no commit
/// or release changes, so a tree computed once serves every later solve.
/// Each slot is filled on first use by a full run of the same kernel the
/// early-stopped source search runs
/// ([`sft_graph::LazyDistances::predecessors_with`]);
/// a node's predecessor is final once it settles and every node on a path
/// settles before its end, so the predecessor walk returns exactly the
/// early-stopped path. Slots keep predecessors only, 4 bytes per node, for
/// at most `RUNGS · |S|` trees.
pub(crate) struct RerouteTrees {
    /// `slots[rung * |S| + i]` holds the rung's tree from server `i` of
    /// [`Network::server_list`].
    slots: Vec<OnceLock<Box<[u32]>>>,
}

impl RerouteTrees {
    pub(crate) fn new(servers: usize) -> Self {
        let slots = (0..RUNGS * servers).map(|_| OnceLock::new()).collect();
        RerouteTrees { slots }
    }

    /// The rung's shortest `a`→`b` path on `network`, whose trees these
    /// are, read off the tree from `a` (`Some(None)` when `b` is
    /// unreachable), or `None` when `a` is not a server and so has no slot.
    fn path(
        &self,
        network: &Network,
        rung: usize,
        a: NodeId,
        b: NodeId,
    ) -> Option<Option<Vec<NodeId>>> {
        let servers = network.server_list();
        let i = servers.binary_search(&a).ok()?;
        if a == b {
            return Some(Some(vec![a]));
        }
        let pred = self.slots[rung * servers.len() + i].get_or_init(|| {
            network
                .dist()
                .predecessors_with(a, None, |c, l| rung_metric(rung, c, l))
        });
        Some(walk(pred, a, b))
    }
}

impl std::fmt::Debug for RerouteTrees {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let filled = self.slots.iter().filter(|s| s.get().is_some()).count();
        f.debug_struct("RerouteTrees")
            .field("slots", &self.slots.len())
            .field("filled", &filled)
            .finish()
    }
}

/// Shortest segments under each rung for one delay repair: read off the
/// network's [`RerouteTrees`] when the segment starts at a server, else
/// (at the task source) found by an early-stopped search memoized for
/// this repair, so every late destination shares it.
struct RungPaths<'a> {
    network: &'a Network,
    searched: BTreeMap<(usize, NodeId, NodeId), Option<Vec<NodeId>>>,
}

impl RungPaths<'_> {
    fn path(&mut self, rung: usize, a: NodeId, b: NodeId) -> Option<Vec<NodeId>> {
        if let Some(path) = self.network.reroute_trees().path(self.network, rung, a, b) {
            return path;
        }
        let dist = self.network.dist();
        self.searched
            .entry((rung, a, b))
            .or_insert_with(|| {
                let pred = dist.predecessors_with(a, Some(b), |c, l| rung_metric(rung, c, l));
                walk(&pred, a, b)
            })
            .clone()
    }
}

/// Sum of effective edge latencies over every segment of `route`.
fn route_delay(graph: &Graph, route: &DestinationRoute) -> Result<f64, CoreError> {
    let mut total = 0.0;
    for seg in route.segments() {
        total += graph.path_latency(seg)?;
    }
    Ok(total)
}

/// Checks every destination route against the delay budget and repairs
/// the violating ones by rerouting their segments between the *fixed*
/// waypoints (source, placed instance nodes, destination) along the λ
/// ladder — instance placements never move, so capacity accounting is
/// untouched. Returns the rewritten embedding (`None` when every route
/// already met the budget) and the largest route delay, or
/// [`CoreError::DelayInfeasible`] when even the pure min-latency rerouting
/// of some destination exceeds the budget.
fn enforce_delay_budget(
    network: &Network,
    task: &MulticastTask,
    embedding: &Embedding,
    budget: f64,
) -> Result<(Option<Embedding>, f64), CoreError> {
    let graph = network.graph();
    let mut paths = RungPaths {
        network,
        searched: BTreeMap::new(),
    };
    let mut rewritten: Option<Vec<DestinationRoute>> = None;
    let mut max_delay = 0.0f64;
    for (i, route) in embedding.routes().iter().enumerate() {
        let delay = route_delay(graph, route)?;
        if approx_le(delay, budget) {
            max_delay = max_delay.max(delay);
            continue;
        }
        let (repaired, new_delay) = repair_route(&mut paths, task, i, route, budget)?;
        rewritten.get_or_insert_with(|| embedding.routes().to_vec())[i] = repaired;
        max_delay = max_delay.max(new_delay);
    }
    Ok((rewritten.map(Embedding::new), max_delay))
}

/// Reroutes one budget-violating route. Scans the λ ladder in ascending
/// order and returns the first budget-feasible rerouting — λ rungs are
/// ordered by increasing delay pressure, so this picks the cheapest
/// feasible candidate the ladder offers.
fn repair_route(
    paths: &mut RungPaths<'_>,
    task: &MulticastTask,
    dest_index: usize,
    route: &DestinationRoute,
    budget: f64,
) -> Result<(DestinationRoute, f64), CoreError> {
    let graph = paths.network.graph();
    let endpoints: Vec<(NodeId, NodeId)> = route
        .segments()
        .iter()
        .map(|seg| {
            let first = *seg.first().expect("route segments are non-empty walks");
            let last = *seg.last().expect("route segments are non-empty walks");
            (first, last)
        })
        .collect();
    for rung in 0..LAMBDA_LADDER.len() {
        if let Some(candidate) = reroute(paths, rung, &endpoints) {
            let delay = route_delay(graph, &candidate)?;
            if approx_le(delay, budget) {
                return Ok((candidate, delay));
            }
        }
    }
    // Latency-only rung: the minimum achievable delay through the fixed
    // waypoints. Failing it is the infeasibility certificate.
    let candidate = reroute(paths, LAMBDA_LADDER.len(), &endpoints);
    if let Some(candidate) = candidate {
        let delay = route_delay(graph, &candidate)?;
        if approx_le(delay, budget) {
            return Ok((candidate, delay));
        }
        return Err(CoreError::DelayInfeasible {
            destination: task.destinations()[dest_index].0,
            achieved: delay,
            budget,
        });
    }
    Err(CoreError::Infeasible {
        reason: format!(
            "destination {} became unreachable during delay repair",
            task.destinations()[dest_index]
        ),
    })
}

/// Recomputes every segment of a route as a shortest path under the
/// rung's metric, keeping the segment endpoints fixed. `None` when any
/// endpoint pair is disconnected.
fn reroute(
    paths: &mut RungPaths<'_>,
    rung: usize,
    endpoints: &[(NodeId, NodeId)],
) -> Option<DestinationRoute> {
    let mut segments = Vec::with_capacity(endpoints.len());
    for &(a, b) in endpoints {
        segments.push(paths.path(rung, a, b)?);
    }
    Some(DestinationRoute::new(segments))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::is_valid;
    use crate::vnf::{Sfc, VnfCatalog, VnfId};
    use sft_graph::{Graph, NodeId};

    fn fixture() -> (Network, MulticastTask) {
        let mut g = Graph::new(6);
        for i in 0..6 {
            g.add_edge(NodeId(i), NodeId((i + 1) % 6), 1.0).unwrap();
        }
        let net = Network::builder(g, VnfCatalog::uniform(2))
            .all_servers(3.0)
            .unwrap()
            .build()
            .unwrap();
        let task = MulticastTask::new(
            NodeId(0),
            vec![NodeId(2), NodeId(4)],
            Sfc::new(vec![VnfId(0), VnfId(1)]).unwrap(),
        )
        .unwrap();
        (net, task)
    }

    fn rsa(seed: u64) -> SolveOptions<'static> {
        SolveOptions {
            strategy: Strategy::Rsa,
            seed,
            ..SolveOptions::default()
        }
    }

    #[test]
    fn all_strategies_produce_valid_solutions() {
        let (net, task) = fixture();
        for strategy in [Strategy::Msa, Strategy::Sca, Strategy::Rsa] {
            let options = SolveOptions {
                strategy,
                seed: 1,
                ..SolveOptions::default()
            };
            let r = solve(&net, &task, &options).unwrap();
            assert!(is_valid(&net, &task, &r.embedding), "{strategy:?}");
            assert!(r.cost.total() <= r.stage1_cost + 1e-9, "{strategy:?}");
        }
    }

    #[test]
    fn rsa_draws_from_a_fresh_generator_seeded_by_the_options() {
        let (net, task) = fixture();
        let mut chains = Vec::new();
        for seed in [0u64, 1, 2, 3, 7, 42] {
            let r = solve(&net, &task, &rsa(seed)).unwrap();
            let chain =
                crate::rsa::stage_one(&net, &task, &mut StdRng::seed_from_u64(seed)).unwrap();
            let opa = opa::optimize(&net, &task, &chain).unwrap();
            assert_eq!(r.chain, chain, "seed {seed}");
            assert_eq!(r.embedding, opa.embedding, "seed {seed}");
            assert_eq!(r.stage1_cost.to_bits(), opa.initial_cost.to_bits());
            chains.push(chain);
        }
        assert!(
            chains.iter().any(|c| *c != chains[0]),
            "the seed must reach the draws"
        );
    }

    #[test]
    fn skipping_stage_two_reports_stage1_cost() {
        let (net, task) = fixture();
        let options = SolveOptions {
            stage_two: StageTwo::Skip,
            ..SolveOptions::default()
        };
        let r = solve(&net, &task, &options).unwrap();
        assert_eq!(r.stage1_cost, r.cost.total());
        assert!(r.added_instances.is_empty());
    }

    #[test]
    fn bandwidth_demand_routes_around_saturated_links() {
        use sft_graph::EdgeId;
        // Triangle with a narrow direct 0-1 link and a wide detour via 2.
        let mut g = Graph::new(3);
        g.add_edge_with_capacity(NodeId(0), NodeId(1), 1.0, Some(1.0))
            .unwrap();
        g.add_edge_with_capacity(NodeId(0), NodeId(2), 2.0, Some(10.0))
            .unwrap();
        g.add_edge_with_capacity(NodeId(2), NodeId(1), 2.0, Some(10.0))
            .unwrap();
        let mut net = Network::builder(g, VnfCatalog::uniform(1))
            .all_servers(4.0)
            .unwrap()
            .build()
            .unwrap();
        let sfc = Sfc::new(vec![VnfId(0)]).unwrap();
        let task = MulticastTask::new(NodeId(0), vec![NodeId(1)], sfc.clone())
            .unwrap()
            .with_bandwidth(1.0)
            .unwrap();
        let options = SolveOptions::default();

        // Link is empty: the direct edge carries the session.
        let direct = solve(&net, &task, &options).unwrap();
        assert_eq!(direct.cost.link, 1.0);
        let delta = net.commit_delta(&task, &direct.embedding);
        assert_eq!(delta.edges(), &[(EdgeId(0), 1.0)]);
        net.apply_delta(&delta).unwrap();

        // Link is now full: the same task must detour via node 2 and its
        // commit must charge the detour edges, not the saturated one.
        let detour = solve(&net, &task, &options).unwrap();
        assert_eq!(detour.cost.link, 4.0);
        let detour_delta = net.commit_delta(&task, &detour.embedding);
        assert_eq!(detour_delta.edges(), &[(EdgeId(1), 1.0), (EdgeId(2), 1.0)]);
        net.apply_delta(&detour_delta).unwrap();

        // A demand no link can carry is a real infeasibility.
        let too_wide = MulticastTask::new(NodeId(0), vec![NodeId(1)], sfc)
            .unwrap()
            .with_bandwidth(100.0)
            .unwrap();
        assert!(matches!(
            solve(&net, &too_wide, &options),
            Err(CoreError::Infeasible { .. })
        ));

        // Releasing the first session restores the direct link exactly.
        net.apply_release(&delta).unwrap();
        assert_eq!(net.edge_residual(EdgeId(0)), 1.0);
        let again = solve(&net, &task, &options).unwrap();
        assert_eq!(again.cost.link, 1.0);
    }

    #[test]
    fn a_bandwidth_view_never_touches_the_shared_cache() {
        // A ring whose 0-1 link is too narrow for the task's demand.
        let mut g = Graph::new(6);
        for i in 0..6 {
            let capacity = if i == 0 { 1.0 } else { 10.0 };
            g.add_edge_with_capacity(NodeId(i), NodeId((i + 1) % 6), 1.0, Some(capacity))
                .unwrap();
        }
        let net = Network::builder(g, VnfCatalog::uniform(2))
            .all_servers(3.0)
            .unwrap()
            .build()
            .unwrap();
        let free = MulticastTask::new(
            NodeId(0),
            vec![NodeId(2), NodeId(4)],
            Sfc::new(vec![VnfId(0), VnfId(1)]).unwrap(),
        )
        .unwrap();
        let wide = free.clone().with_bandwidth(2.0).unwrap();
        assert!(net.bandwidth_view(wide.bandwidth()).unwrap().is_some());

        let cache = SteinerCache::new();
        let cached = SolveOptions {
            cache: Some(&cache),
            ..SolveOptions::default()
        };
        // Warm the cache on the full topology, then take its counters.
        solve(&net, &free, &cached).unwrap();
        let before = (cache.len(), cache.hits(), cache.misses());
        assert!(before.0 > 0);

        let with = solve(&net, &wide, &cached).unwrap();
        let without = solve(&net, &wide, &SolveOptions::default()).unwrap();
        assert_eq!((cache.len(), cache.hits(), cache.misses()), before);
        assert_eq!(with.chain, without.chain);
        assert_eq!(with.embedding, without.embedding);
        assert_eq!(with.cost.total().to_bits(), without.cost.total().to_bits());
        assert_eq!(with.stage1_cost.to_bits(), without.stage1_cost.to_bits());
        assert_eq!(with.added_instances, without.added_instances);
        // The view routes around the narrow link.
        let narrow = |w: &[NodeId]| matches!((w[0].0, w[1].0), (0, 1) | (1, 0));
        assert!(with
            .embedding
            .routes()
            .iter()
            .flat_map(|r| r.segments())
            .all(|seg| !seg.windows(2).any(narrow)));
    }

    #[test]
    fn delay_budget_repairs_routes_onto_the_fast_arm() {
        // Diamond 0-1-3 (cheap, slow) / 0-2-3 (pricey, fast), tail 3-4.
        let mut g = Graph::new(5);
        let slow1 = g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        let slow2 = g.add_edge(NodeId(1), NodeId(3), 1.0).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 2.0).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 2.0).unwrap();
        g.add_edge(NodeId(3), NodeId(4), 1.0).unwrap();
        g.set_edge_latency(slow1, Some(5.0)).unwrap();
        g.set_edge_latency(slow2, Some(5.0)).unwrap();
        let net = Network::builder(g, crate::vnf::VnfCatalog::uniform(1))
            .all_servers(2.0)
            .unwrap()
            .build()
            .unwrap();
        let base = MulticastTask::new(
            NodeId(0),
            vec![NodeId(4)],
            Sfc::new(vec![VnfId(0)]).unwrap(),
        )
        .unwrap();
        let options = SolveOptions::default();

        // Unconstrained: the slow arm carries the flow, no delay reported.
        let free = solve(&net, &base, &options).unwrap();
        assert_eq!(free.max_path_delay, None);

        // Budget 6 forces the repair onto the fast arm (delay 2+2+1 = 5),
        // with or without OPA; the rewritten route is priced afresh.
        let task = base.clone().with_delay_budget(6.0).unwrap();
        for stage_two in [StageTwo::Opa, StageTwo::Skip] {
            let options = SolveOptions {
                stage_two,
                ..SolveOptions::default()
            };
            let r = solve(&net, &task, &options).unwrap();
            assert!(is_valid(&net, &task, &r.embedding));
            let delay = r.max_path_delay.unwrap();
            assert!((delay - 5.0).abs() < 1e-9, "delay {delay}");
            let canonical = delivery_cost(&net, &task, &r.embedding).unwrap();
            assert_eq!(bits(r.cost), bits(canonical), "{stage_two:?}");
            assert!(r.cost.total() > free.cost.total());
        }

        // Budget 3 is below the minimum achievable delay: structured error.
        let tight = base.with_delay_budget(3.0).unwrap();
        assert!(matches!(
            solve(&net, &tight, &options),
            Err(CoreError::DelayInfeasible { .. })
        ));
    }

    fn bits(cost: CostBreakdown) -> (u64, u64) {
        (cost.setup.to_bits(), cost.link.to_bits())
    }

    /// `finish` reuses OPA's breakdown unless the delay repair rewrote a
    /// route (checked in `delay_budget_repairs_routes_onto_the_fast_arm`);
    /// either way the reported cost is the embedding's canonical cost, bit
    /// for bit.
    #[test]
    fn the_reported_cost_is_the_embeddings_delivery_cost() {
        use rand::RngExt;
        let mut rng = StdRng::seed_from_u64(31);
        let mut branched = 0;
        for _ in 0..40 {
            // A ring with chords, so OPA finds branches to add.
            let n = rng.random_range(6..=12usize);
            let mut g = Graph::new(n);
            for i in 0..n {
                let w = f64::from(rng.random_range(1..=9u32));
                g.add_edge(NodeId(i), NodeId((i + 1) % n), w).unwrap();
            }
            for _ in 0..n / 2 {
                let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
                if u != v && g.find_edge(NodeId(u), NodeId(v)).is_none() {
                    let w = f64::from(rng.random_range(1..=9u32));
                    g.add_edge(NodeId(u), NodeId(v), w).unwrap();
                }
            }
            let net = Network::builder(g, VnfCatalog::uniform(2))
                .all_servers(2.0)
                .unwrap()
                .build()
                .unwrap();
            let dests: Vec<NodeId> = (1..n).step_by(2).map(NodeId).collect();
            let sfc = Sfc::new(vec![VnfId(0), VnfId(1)]).unwrap();
            let task = MulticastTask::new(NodeId(0), dests, sfc).unwrap();
            for strategy in [Strategy::Msa, Strategy::Sca, Strategy::Rsa] {
                for stage_two in [StageTwo::Opa, StageTwo::Skip] {
                    let options = SolveOptions {
                        strategy,
                        stage_two,
                        seed: 5,
                        ..SolveOptions::default()
                    };
                    let r = solve(&net, &task, &options).unwrap();
                    let want = delivery_cost(&net, &task, &r.embedding).unwrap();
                    assert_eq!(bits(r.cost), bits(want), "{strategy:?} {stage_two:?}");
                    branched += usize::from(!r.added_instances.is_empty());
                }
            }
        }
        assert!(branched > 0, "OPA must add instances on some instance");
    }

    #[test]
    fn the_engine_kernel_matches_graph_dijkstra_under_every_rung() {
        use rand::RngExt;
        use sft_graph::EdgeId;
        let mut rng = StdRng::seed_from_u64(23);
        let mut searches = 0;
        for round in 0..150 {
            // Small integer weights and latencies, zeros included, make
            // equal-metric paths common; a third of the links keep their
            // weight as latency, and every fifth graph has no latency.
            let n = rng.random_range(2..=10usize);
            let mut g = Graph::new(n);
            for u in 0..n {
                for v in u + 1..n {
                    if rng.random_range(0..5u32) < 2 {
                        let w = f64::from(rng.random_range(0..=2u32));
                        let e = g.add_edge(NodeId(u), NodeId(v), w).unwrap();
                        if round % 5 != 0 && rng.random_range(0..3u32) > 0 {
                            let l = f64::from(rng.random_range(0..=3u32));
                            g.set_edge_latency(e, Some(l)).unwrap();
                        }
                    }
                }
            }
            let dist = sft_graph::LazyDistances::new(&g);
            for rung in 0..RUNGS {
                let metric = |c, l| rung_metric(rung, c, l);
                // The per-edge weight the repair searched `Graph` with.
                let weight = |e: EdgeId| match LAMBDA_LADDER.get(rung) {
                    Some(&lambda) => g.weight(e) + lambda * g.effective_latency(e),
                    None => g.effective_latency(e),
                };
                for s in g.nodes() {
                    let tree = dist.predecessors_with(s, None, metric);
                    let full = g.dijkstra_with(s, weight);
                    for t in g.nodes() {
                        let parent = full.predecessor(t).map_or(NO_NODE, |p| p.0 as u32);
                        assert_eq!(tree[t.0], parent, "rung {rung}, tree {s:?}, node {t:?}");
                        let early = dist.predecessors_with(s, Some(t), metric);
                        let want = g.dijkstra_to_with(s, t, weight).path_to(t);
                        assert_eq!(walk(&early, s, t), want, "rung {rung}, {s:?} -> {t:?}");
                        searches += 1;
                    }
                }
            }
        }
        assert!(searches > 10_000);
        // The kernel neither fills nor counts a cost row.
        let (net, _) = fixture();
        net.dist()
            .predecessors_with(NodeId(0), None, |c, l| rung_metric(0, c, l));
        assert_eq!(
            (net.dist().row_misses(), net.dist().rows_materialized()),
            (0, 0)
        );
    }

    #[test]
    fn msa_beats_or_ties_rsa_on_average() {
        let (net, task) = fixture();
        let msa = solve(&net, &task, &SolveOptions::default()).unwrap();
        let mut total = 0.0;
        let runs = 10;
        for seed in 0..runs {
            total += solve(&net, &task, &rsa(seed)).unwrap().cost.total();
        }
        assert!(msa.cost.total() <= total / runs as f64 + 1e-9);
    }
}
