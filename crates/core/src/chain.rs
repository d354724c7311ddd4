//! Chain-shaped solutions (the stage-1 output shared by MSA, SCA and RSA).
//!
//! A [`ChainSolution`] is "an SFC plus a Steiner tree": one server per chain
//! stage and a tree hanging off the last stage that reaches every
//! destination (paper Algorithm 2's output, Theorem 3's feasibility shape).
//! This module also houses the capacity-repair step of §IV-B ("node
//! adjustment") and the conversion into the canonical [`Embedding`].

use crate::embedding::{DestinationRoute, Embedding};
use crate::network::Network;
use crate::task::MulticastTask;
use crate::vnf::Sfc;
use crate::CoreError;
use sft_graph::numeric::exceeds;
use sft_graph::{EdgeId, NodeId, RootedTree};

/// A stage-1 solution: an embedded chain plus a delivery Steiner tree
/// rooted at the last chain node.
#[derive(Clone, Debug, PartialEq)]
pub struct ChainSolution {
    /// Server hosting each chain stage; `placement[j]` hosts stage `j + 1`.
    pub placement: Vec<NodeId>,
    /// Edges of the Steiner tree connecting `placement.last()` to all
    /// destinations.
    pub steiner_edges: Vec<EdgeId>,
}

impl ChainSolution {
    /// The node hosting the last VNF (the Steiner tree root).
    ///
    /// # Panics
    ///
    /// Panics if the placement is empty (never produced by this crate).
    pub fn last_node(&self) -> NodeId {
        *self.placement.last().expect("non-empty chain placement")
    }

    /// Converts the chain solution into the canonical embedding: every
    /// destination is routed source → stage 1 → … → stage k → (tree path).
    ///
    /// # Errors
    ///
    /// * [`CoreError::Infeasible`] if chain nodes are mutually unreachable
    ///   or a destination is outside the Steiner tree.
    /// * [`CoreError::Graph`] if the Steiner edges do not form a tree
    ///   rooted at the last chain node.
    pub fn to_embedding(
        &self,
        network: &Network,
        task: &MulticastTask,
    ) -> Result<Embedding, CoreError> {
        let dist = network.dist();
        let tree = RootedTree::from_edges(network.graph(), self.last_node(), &self.steiner_edges)?;
        let mut shared: Vec<Vec<NodeId>> = Vec::with_capacity(self.placement.len());
        let mut prev = task.source();
        for &n in &self.placement {
            let path = dist.path(prev, n).ok_or_else(|| CoreError::Infeasible {
                reason: format!("no path between chain nodes {prev} and {n}"),
            })?;
            shared.push(path);
            prev = n;
        }
        let mut routes = Vec::with_capacity(task.destination_count());
        for &d in task.destinations() {
            let delivery = tree
                .path_from_root(d)
                .ok_or_else(|| CoreError::Infeasible {
                    reason: format!("destination {d} not covered by the Steiner tree"),
                })?;
            let mut segments = shared.clone();
            segments.push(delivery);
            routes.push(DestinationRoute::new(segments));
        }
        Ok(Embedding::new(routes))
    }
}

/// Whether stage `j + 1` (0-based `j`) of `placement` is the first stage
/// placing its VNF type on its node: repeated `(type, node)` pairs share
/// one instance.
fn first_use(sfc: &Sfc, placement: &[NodeId], j: usize) -> bool {
    let (f, n) = (sfc.stage(j + 1), placement[j]);
    !placement[..j]
        .iter()
        .enumerate()
        .any(|(i, &m)| m == n && sfc.stage(i + 1) == f)
}

/// Resource usage added by the *new* instances of a chain placement,
/// deduplicated by `(type, node)`: one `(node, demand)` entry per node, in
/// order of first appearance, each summing its demands in stage order.
pub(crate) fn new_instance_usage(
    network: &Network,
    sfc: &Sfc,
    placement: &[NodeId],
) -> Vec<(NodeId, f64)> {
    let mut usage: Vec<(NodeId, f64)> = Vec::with_capacity(placement.len());
    for (j, &n) in placement.iter().enumerate() {
        let f = sfc.stage(j + 1);
        if network.is_deployed(f, n) || !first_use(sfc, placement, j) {
            continue;
        }
        let at = match usage.iter().position(|&(m, _)| m == n) {
            Some(at) => at,
            None => {
                usage.push((n, 0.0));
                usage.len() - 1
            }
        };
        usage[at].1 += network.catalog().demand(f);
    }
    usage
}

/// The demand `usage` places on `n` (0.0 when none).
fn usage_on(usage: &[(NodeId, f64)], n: NodeId) -> f64 {
    usage
        .iter()
        .find(|&&(m, _)| m == n)
        .map_or(0.0, |&(_, u)| u)
}

/// Cost of an embedded chain alone: inter-stage shortest-path costs plus
/// setup costs of new instances, deduplicated by `(type, node)` — the
/// closed form of the canonical cost restricted to segments `0..k`.
pub(crate) fn chain_cost(network: &Network, task: &MulticastTask, placement: &[NodeId]) -> f64 {
    let dist = network.dist();
    let mut cost = 0.0;
    let mut prev = task.source();
    for (j, &n) in placement.iter().enumerate() {
        cost += dist
            .distance(prev, n)
            .expect("chain nodes reachable by construction");
        let f = task.sfc().stage(j + 1);
        if !network.is_deployed(f, n) && first_use(task.sfc(), placement, j) {
            cost += network.setup_cost(f, n);
        }
        prev = n;
    }
    cost
}

/// The server list and each server's deployed load, read once per solve
/// and shared read-only by every capacity repair of that solve — every
/// candidate row and every sweep thread.
pub(crate) struct LoadSnapshot<'a> {
    /// Server nodes in index order.
    servers: &'a [NodeId],
    /// `load[i]`: [`Network::deployed_load`] of `servers[i]`.
    load: Vec<f64>,
}

impl<'a> LoadSnapshot<'a> {
    pub(crate) fn new(network: &'a Network) -> Self {
        let servers = network.server_list();
        let load = servers.iter().map(|&v| network.deployed_load(v)).collect();
        LoadSnapshot { servers, load }
    }

    /// Deployed load on `v`; switches host no instances.
    fn load(&self, v: NodeId) -> f64 {
        self.servers.binary_search(&v).map_or(0.0, |i| self.load[i])
    }
}

/// The paper's stage-1 "node adjustment": while some chain stage sits on an
/// overloaded node, move it to the feasible server minimizing
/// `dist(prev, v) + dist(v, next) + setup(l_j, v)` (§IV-B).
///
/// Only *new* instances can overload a node (pre-deployed load is validated
/// at network build time), so only they are ever moved. `loads` must be a
/// snapshot of `network`.
///
/// # Errors
///
/// [`CoreError::Infeasible`] if some stage has no feasible host at all.
pub(crate) fn repair_capacity(
    network: &Network,
    loads: &LoadSnapshot,
    source: NodeId,
    sfc: &Sfc,
    placement: &mut [NodeId],
) -> Result<(), CoreError> {
    let k = placement.len();
    let dist = network.dist();
    // Each move strictly shrinks the load of an overloaded node and never
    // overloads the target, but repeated types can interact; cap the loop
    // defensively.
    for _round in 0..(2 * k + 2) {
        let usage = new_instance_usage(network, sfc, placement);
        let overloaded =
            |n: NodeId| exceeds(loads.load(n) + usage_on(&usage, n), network.capacity(n));
        // First stage whose (new) instance sits on an overloaded node.
        let Some(j) = (1..=k).find(|&j| {
            let n = placement[j - 1];
            !network.is_deployed(sfc.stage(j), n) && overloaded(n)
        }) else {
            return Ok(());
        };
        let f = sfc.stage(j);
        let demand = network.catalog().demand(f);
        let prev = if j == 1 { source } else { placement[j - 2] };
        let next = if j < k { Some(placement[j]) } else { None };
        let current = placement[j - 1];

        let mut best: Option<(f64, NodeId)> = None;
        for (&v, &deployed) in loads.servers.iter().zip(&loads.load) {
            if v == current {
                continue;
            }
            // Load on v if stage j moves there (deduplicated by type).
            let already_counted = network.is_deployed(f, v)
                || placement
                    .iter()
                    .enumerate()
                    .any(|(i, &n)| i != j - 1 && n == v && sfc.stage(i + 1) == f);
            let extra = if already_counted { 0.0 } else { demand };
            let load = deployed + usage_on(&usage, v) + extra;
            if exceeds(load, network.capacity(v)) {
                continue;
            }
            let Some(d_in) = dist.distance(prev, v) else {
                continue;
            };
            let d_out = match next {
                Some(nx) => match dist.distance(v, nx) {
                    Some(d) => d,
                    None => continue,
                },
                None => 0.0,
            };
            let score = d_in + d_out + network.effective_setup_cost(f, v);
            if best.is_none_or(|(b, _)| score < b) {
                best = Some((score, v));
            }
        }
        let Some((_, v)) = best else {
            return Err(CoreError::Infeasible {
                reason: format!("no feasible host for chain stage {j} ({})", sfc.stage(j)),
            });
        };
        placement[j - 1] = v;
    }
    // Converged or not, verify the result; name the lowest overloaded node.
    let overloaded = new_instance_usage(network, sfc, placement)
        .into_iter()
        .filter(|&(n, extra)| exceeds(loads.load(n) + extra, network.capacity(n)))
        .map(|(n, _)| n)
        .min();
    match overloaded {
        Some(n) => Err(CoreError::Infeasible {
            reason: format!("capacity repair failed to unload node {n}"),
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vnf::{VnfCatalog, VnfId};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use sft_graph::Graph;
    use std::collections::{BTreeMap, BTreeSet};

    /// Line 0-1-2-3-4, all servers.
    fn line_net(capacity: f64) -> Network {
        let mut g = Graph::new(5);
        for i in 0..4 {
            g.add_edge(NodeId(i), NodeId(i + 1), 1.0).unwrap();
        }
        Network::builder(g, VnfCatalog::uniform(3))
            .all_servers(capacity)
            .unwrap()
            .uniform_setup_cost(1.0)
            .unwrap()
            .build()
            .unwrap()
    }

    /// Capacity repair of a chain sourced at node 0.
    fn repair(net: &Network, sfc: &Sfc, placement: &mut [NodeId]) -> Result<(), CoreError> {
        repair_capacity(net, &LoadSnapshot::new(net), NodeId(0), sfc, placement)
    }

    fn task2(net_nodes: &[usize]) -> MulticastTask {
        MulticastTask::new(
            NodeId(0),
            net_nodes.iter().map(|&i| NodeId(i)).collect::<Vec<_>>(),
            Sfc::new(vec![VnfId(0), VnfId(1)]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn chain_to_embedding_builds_contiguous_routes() {
        let net = line_net(5.0);
        let task = task2(&[4]);
        // f0@1, f1@2; Steiner tree = path 2-3-4.
        let e23 = net.graph().find_edge(NodeId(2), NodeId(3)).unwrap();
        let e34 = net.graph().find_edge(NodeId(3), NodeId(4)).unwrap();
        let chain = ChainSolution {
            placement: vec![NodeId(1), NodeId(2)],
            steiner_edges: vec![e23, e34],
        };
        let emb = chain.to_embedding(&net, &task).unwrap();
        assert!(crate::validate::is_valid(&net, &task, &emb));
        let r = &emb.routes()[0];
        assert_eq!(r.segments()[0], vec![NodeId(0), NodeId(1)]);
        assert_eq!(r.segments()[1], vec![NodeId(1), NodeId(2)]);
        assert_eq!(r.segments()[2], vec![NodeId(2), NodeId(3), NodeId(4)]);
        let cost = crate::cost::delivery_cost(&net, &task, &emb).unwrap();
        assert!((cost.total() - (4.0 + 2.0)).abs() < 1e-12);
    }

    #[test]
    fn to_embedding_rejects_uncovered_destination() {
        let net = line_net(5.0);
        let task = task2(&[4]);
        let chain = ChainSolution {
            placement: vec![NodeId(1), NodeId(2)],
            steiner_edges: vec![], // tree = {2} only, misses 4
        };
        assert!(matches!(
            chain.to_embedding(&net, &task),
            Err(CoreError::Infeasible { .. })
        ));
    }

    #[test]
    fn repair_moves_overloaded_stage() {
        // Capacity 1 per node: both stages on node 1 overload it.
        let net = line_net(1.0);
        let sfc = Sfc::new(vec![VnfId(0), VnfId(1)]).unwrap();
        let mut placement = vec![NodeId(1), NodeId(1)];
        repair(&net, &sfc, &mut placement).unwrap();
        assert_ne!(placement[0], placement[1], "load must be split");
        let usage = new_instance_usage(&net, &sfc, &placement);
        for (n, u) in usage {
            assert!(net.deployed_load(n) + u <= net.capacity(n) + 1e-9);
        }
    }

    #[test]
    fn repair_is_noop_when_feasible() {
        let net = line_net(2.0);
        let mut placement = vec![NodeId(1), NodeId(1)];
        let before = placement.clone();
        let sfc = Sfc::new(vec![VnfId(0), VnfId(1)]).unwrap();
        repair(&net, &sfc, &mut placement).unwrap();
        assert_eq!(placement, before);
    }

    #[test]
    fn repair_prefers_cheap_nearby_nodes() {
        // Node 2 overloaded; nodes 1 and 3 both feasible; prev=1 (stage 1
        // at node 1) and next=none; moving to 3 costs dist(2->3 path from
        // prev=2? ...) — just assert feasibility and determinism.
        let net = line_net(1.0);
        let sfc = Sfc::new(vec![VnfId(0), VnfId(1), VnfId(2)]).unwrap();
        let mut placement = vec![NodeId(2), NodeId(2), NodeId(2)];
        repair(&net, &sfc, &mut placement).unwrap();
        let distinct: BTreeSet<_> = placement.iter().collect();
        assert_eq!(distinct.len(), 3, "three unit demands need three nodes");
    }

    #[test]
    fn repair_reports_infeasible_networks() {
        // Total capacity 0: nothing fits anywhere.
        let net = line_net(0.0);
        let sfc = Sfc::new(vec![VnfId(0)]).unwrap();
        let mut placement = vec![NodeId(1)];
        assert!(matches!(
            repair(&net, &sfc, &mut placement),
            Err(CoreError::Infeasible { .. })
        ));
    }

    #[test]
    fn deployed_instances_do_not_trigger_repair() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        // Node 1 capacity 1, fully used by the deployed f0 — but reuse is
        // free, so placing stage 1 (f0) there must NOT be repaired away.
        let net = Network::builder(g, VnfCatalog::uniform(2))
            .all_servers(1.0)
            .unwrap()
            .deploy(VnfId(0), NodeId(1))
            .unwrap()
            .build()
            .unwrap();
        let sfc = Sfc::new(vec![VnfId(0)]).unwrap();
        let mut placement = vec![NodeId(1)];
        repair(&net, &sfc, &mut placement).unwrap();
        assert_eq!(placement, vec![NodeId(1)]);
    }

    #[test]
    fn usage_deduplicates_repeated_types() {
        let net = line_net(5.0);
        let sfc = Sfc::new(vec![VnfId(0), VnfId(0)]).unwrap();
        let usage = new_instance_usage(&net, &sfc, &[NodeId(1), NodeId(1)]);
        assert_eq!(usage, vec![(NodeId(1), 1.0)]); // one instance, not two
    }

    /// `new_instance_usage` before it went map-free, kept as the oracle.
    fn reference_usage(
        network: &Network,
        sfc: &Sfc,
        placement: &[NodeId],
    ) -> BTreeMap<NodeId, f64> {
        let mut seen: BTreeSet<(VnfId, NodeId)> = BTreeSet::new();
        let mut usage: BTreeMap<NodeId, f64> = BTreeMap::new();
        for (j, &n) in placement.iter().enumerate() {
            let f = sfc.stage(j + 1);
            if !network.is_deployed(f, n) && seen.insert((f, n)) {
                *usage.entry(n).or_insert(0.0) += network.catalog().demand(f);
            }
        }
        usage
    }

    /// `repair_capacity` before it went map-free, kept as the oracle: the
    /// per-round usage map, loads read straight off the network, and the
    /// final check in ascending node order.
    fn reference_repair(
        network: &Network,
        source: NodeId,
        sfc: &Sfc,
        placement: &mut [NodeId],
    ) -> Result<(), CoreError> {
        let k = placement.len();
        let dist = network.dist();
        let servers: Vec<NodeId> = network.servers().collect();
        for _round in 0..(2 * k + 2) {
            let usage = reference_usage(network, sfc, placement);
            let overloaded = |n: NodeId| {
                exceeds(
                    network.deployed_load(n) + usage.get(&n).copied().unwrap_or(0.0),
                    network.capacity(n),
                )
            };
            let Some(j) = (1..=k).find(|&j| {
                let n = placement[j - 1];
                !network.is_deployed(sfc.stage(j), n) && overloaded(n)
            }) else {
                return Ok(());
            };
            let f = sfc.stage(j);
            let demand = network.catalog().demand(f);
            let prev = if j == 1 { source } else { placement[j - 2] };
            let next = if j < k { Some(placement[j]) } else { None };
            let current = placement[j - 1];
            let mut best: Option<(f64, NodeId)> = None;
            for &v in &servers {
                if v == current {
                    continue;
                }
                let already_counted = network.is_deployed(f, v)
                    || placement
                        .iter()
                        .enumerate()
                        .any(|(i, &n)| i != j - 1 && n == v && sfc.stage(i + 1) == f);
                let extra = if already_counted { 0.0 } else { demand };
                let load = network.deployed_load(v) + usage.get(&v).copied().unwrap_or(0.0) + extra;
                if exceeds(load, network.capacity(v)) {
                    continue;
                }
                let Some(d_in) = dist.distance(prev, v) else {
                    continue;
                };
                let d_out = match next {
                    Some(nx) => match dist.distance(v, nx) {
                        Some(d) => d,
                        None => continue,
                    },
                    None => 0.0,
                };
                let score = d_in + d_out + network.effective_setup_cost(f, v);
                if best.is_none_or(|(b, _)| score < b) {
                    best = Some((score, v));
                }
            }
            let Some((_, v)) = best else {
                return Err(CoreError::Infeasible {
                    reason: format!("no feasible host for chain stage {j} ({})", sfc.stage(j)),
                });
            };
            placement[j - 1] = v;
        }
        let usage = reference_usage(network, sfc, placement);
        for (n, extra) in usage {
            if exceeds(network.deployed_load(n) + extra, network.capacity(n)) {
                return Err(CoreError::Infeasible {
                    reason: format!("capacity repair failed to unload node {n}"),
                });
            }
        }
        Ok(())
    }

    /// `chain_cost` before it went map-free, kept as the oracle.
    fn reference_chain_cost(network: &Network, task: &MulticastTask, placement: &[NodeId]) -> f64 {
        let dist = network.dist();
        let mut cost = 0.0;
        let mut prev = task.source();
        let mut seen = BTreeSet::new();
        for (j, &n) in placement.iter().enumerate() {
            cost += dist.distance(prev, n).unwrap();
            let f = task.sfc().stage(j + 1);
            if !network.is_deployed(f, n) && seen.insert((f, n)) {
                cost += network.setup_cost(f, n);
            }
            prev = n;
        }
        cost
    }

    /// The tight random networks of `tests/stage1_invariants.rs`: 3 to 9
    /// nodes, integer weights and setup costs, switches, pre-deployed
    /// instances and capacities of 1 to 3 unit instances.
    fn tight_network(rng: &mut StdRng) -> Network {
        const TYPES: usize = 3;
        let n = rng.random_range(3..=9usize);
        let mut g = Graph::new(n);
        for u in 0..n {
            for v in u + 1..n {
                if rng.random_range(0..2u32) == 0 {
                    let w = f64::from(rng.random_range(0..=3u32));
                    g.add_edge(NodeId(u), NodeId(v), w).unwrap();
                }
            }
        }
        let mut b = Network::builder(g, VnfCatalog::uniform(TYPES));
        let mut room = vec![0u32; n];
        for (v, slots) in room.iter_mut().enumerate() {
            if v == 0 || rng.random_range(0..4u32) > 0 {
                *slots = rng.random_range(1..=3u32);
                b = b.server(NodeId(v), f64::from(*slots)).unwrap();
            }
        }
        for f in 0..TYPES {
            for (v, slots) in room.iter_mut().enumerate() {
                let cost = f64::from(rng.random_range(0..=3u32));
                b = b.setup_cost(VnfId(f), NodeId(v), cost).unwrap();
                if *slots > 0 && rng.random_range(0..6u32) == 0 {
                    *slots -= 1;
                    b = b.deploy(VnfId(f), NodeId(v)).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    /// On random chains over the tight networks — placed on random
    /// servers, so that nodes overload often — usage, capacity repair and
    /// chain cost equal the kept map-based copies: same usage bits, same
    /// repaired placement, same error, same cost bits.
    #[test]
    fn map_free_repair_and_chain_cost_match_the_reference() {
        let mut rng = StdRng::seed_from_u64(0x9e2);
        let (mut moved, mut failed, mut priced) = (0, 0, 0);
        for case in 0..4000 {
            let net = tight_network(&mut rng);
            let loads = LoadSnapshot::new(&net);
            let servers: Vec<NodeId> = net.servers().collect();
            let source = NodeId(rng.random_range(0..net.node_count()));
            let k = rng.random_range(1..=4usize);
            let stages: Vec<VnfId> = (0..k).map(|_| VnfId(rng.random_range(0..3usize))).collect();
            let sfc = Sfc::new(stages).unwrap();
            let placement: Vec<NodeId> = (0..k)
                .map(|_| servers[rng.random_range(0..servers.len())])
                .collect();
            let bits = |usage: Vec<(NodeId, f64)>| -> Vec<(NodeId, u64)> {
                usage.into_iter().map(|(n, u)| (n, u.to_bits())).collect()
            };
            let mut usage = new_instance_usage(&net, &sfc, &placement);
            usage.sort_by_key(|&(n, _)| n);
            let want = reference_usage(&net, &sfc, &placement)
                .into_iter()
                .collect();
            assert_eq!(bits(usage), bits(want), "case {case}");

            let (mut got, mut want) = (placement.clone(), placement.clone());
            let result = repair_capacity(&net, &loads, source, &sfc, &mut got);
            let expected = reference_repair(&net, source, &sfc, &mut want);
            assert_eq!(
                format!("{result:?}"),
                format!("{expected:?}"),
                "case {case}"
            );
            assert_eq!(got, want, "case {case}");
            moved += usize::from(got != placement);
            failed += usize::from(result.is_err());

            let mut prev = source;
            let reachable = got.iter().all(|&n| {
                let ok = net.dist().distance(prev, n).is_some();
                prev = n;
                ok
            });
            if result.is_ok() && reachable {
                // Chain cost reads no destination; any node but the source will do.
                let dest = NodeId((source.0 + 1) % net.node_count());
                let task = MulticastTask::new(source, vec![dest], sfc.clone()).unwrap();
                let cost = chain_cost(&net, &task, &got);
                assert_eq!(
                    cost.to_bits(),
                    reference_chain_cost(&net, &task, &got).to_bits(),
                    "case {case}"
                );
                priced += 1;
            }
        }
        assert!(
            moved > 500 && failed > 100 && priced > 1000,
            "{moved} {failed} {priced}"
        );
    }
}
