//! Stage 2 — the Optimize Phase Algorithm (OPA, paper Algorithm 3).
//!
//! OPA turns the stage-1 chain ("SFC + Steiner tree") into a service
//! function *tree* by replicating VNF instances in inverted chain order
//! (Theorem 4: predecessor VNFs never have more instances than successors):
//!
//! 1. Root the Steiner tree at the last-VNF node `W` and classify each
//!    destination's delivery path as *dependent* (shares an edge with the
//!    embedded chain) or *independent*.
//! 2. Independent destinations are grouped by their *connection node* — the
//!    first destination on the tree path from `W` (§IV-C, Fig. 6).
//! 3. For chain stages `j = k, k-1, …`: for every active branch with
//!    current connection node `c`, find the server `x` minimizing
//!    `dist(c, x) + dist(x, w_{j-1}) + setup(l_j, x)` and accept the new
//!    instance when the paper's local test beats `dist(c, w_j)` **and** the
//!    canonically recomputed delivery cost strictly decreases (the local
//!    test is a heuristic proxy; the global check guarantees
//!    `c(X_alg) ≤ c(X'_alg)`, as used in the Theorem 6 proof).
//! 4. Stop at the first stage adding no instance (Algorithm 3's `break`).

use crate::chain::ChainSolution;
use crate::cost::{delivery_cost, CostBreakdown};
use crate::embedding::{DestinationRoute, Embedding};
use crate::network::Network;
use crate::task::MulticastTask;
use crate::vnf::VnfId;
use crate::CoreError;
use sft_graph::{EdgeId, NodeId, RootedTree};
use std::collections::{BTreeMap, BTreeSet};

/// Outcome of OPA: the optimized embedding plus what changed.
#[derive(Clone, Debug)]
pub struct OpaResult {
    /// The optimized (SFT-shaped) embedding.
    pub embedding: Embedding,
    /// Cost breakdown of `embedding`: [`delivery_cost`] of it, bit for
    /// bit.
    pub cost: CostBreakdown,
    /// Cost of the stage-1 input it improved upon.
    pub initial_cost: f64,
    /// Branch instances added, as `(stage, node)` pairs.
    pub added_instances: Vec<(usize, NodeId)>,
}

/// A branch of the SFT under construction: destinations grouped under one
/// connection node, plus the replicated instances serving them.
#[derive(Clone, Debug)]
struct Branch {
    /// The branch's connection node `c` in the original Steiner tree.
    conn: NodeId,
    /// Destination indices (into the task's list) served by this branch.
    dests: Vec<usize>,
    /// Replicated instances, pushed from stage `k` downwards.
    instances: Vec<(usize, NodeId)>,
    /// Whether the branch is still eligible for deeper replication.
    active: bool,
}

/// Tuning knobs for OPA — ablation hooks around the paper's rules.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct OpaConfig {
    /// Also optimize *dependent* paths (the paper excludes tree paths
    /// sharing an edge with the chain, §IV-C). Our reproduction found the
    /// exclusion blocks a share of genuine improvements (EXPERIMENTS.md,
    /// "SFT vs SFC"); the canonical-cost acceptance check keeps the
    /// relaxation safe — a candidate that double-counts shared edges is
    /// simply rejected.
    pub include_dependent: bool,
}

/// Runs OPA on a stage-1 chain solution with the paper's exact rules.
///
/// # Errors
///
/// Propagates conversion errors from the chain solution
/// ([`CoreError::Infeasible`], [`CoreError::Graph`]); a valid stage-1 input
/// always yields a valid embedding whose cost is ≤ the input's cost.
pub fn optimize(
    network: &Network,
    task: &MulticastTask,
    chain: &ChainSolution,
) -> Result<OpaResult, CoreError> {
    optimize_with(network, task, chain, &OpaConfig::default())
}

/// Runs OPA with explicit configuration (see [`OpaConfig`]).
///
/// # Errors
///
/// Same conditions as [`optimize`].
pub fn optimize_with(
    network: &Network,
    task: &MulticastTask,
    chain: &ChainSolution,
    config: &OpaConfig,
) -> Result<OpaResult, CoreError> {
    let k = task.sfc().len();
    let dist = network.dist();
    let tree = RootedTree::from_edges(network.graph(), chain.last_node(), &chain.steiner_edges)?;

    // Physical edges of the embedded chain (segments 0..k-1).
    let mut chain_edges: BTreeSet<EdgeId> = BTreeSet::new();
    {
        let mut prev = task.source();
        for &n in &chain.placement {
            let path = dist.path(prev, n).ok_or_else(|| CoreError::Infeasible {
                reason: format!("no path between chain nodes {prev} and {n}"),
            })?;
            for e in network.graph().path_edges(&path)? {
                chain_edges.insert(e);
            }
            prev = n;
        }
    }

    // Classify destinations and group the independent ones into branches.
    let mut branches: Vec<Branch> = Vec::new();
    let mut branch_of: BTreeMap<NodeId, usize> = BTreeMap::new();
    let mut dest_branch: Vec<Option<usize>> = vec![None; task.destination_count()];
    let dest_set: BTreeSet<NodeId> = task.destinations().iter().copied().collect();
    for (di, &d) in task.destinations().iter().enumerate() {
        let rp = tree
            .path_from_root(d)
            .ok_or_else(|| CoreError::Infeasible {
                reason: format!("destination {d} not covered by the Steiner tree"),
            })?;
        let edges = tree
            .path_edges_from_root(d)
            .expect("destination is in tree");
        let independent = edges.iter().all(|e| !chain_edges.contains(e));
        if !independent && !config.include_dependent {
            continue;
        }
        // Connection node: first destination on the path below the root.
        let Some(&conn) = rp.iter().skip(1).find(|n| dest_set.contains(n)) else {
            continue; // d == root; trivially delivered by the main chain
        };
        let bi = *branch_of.entry(conn).or_insert_with(|| {
            branches.push(Branch {
                conn,
                dests: Vec::new(),
                instances: Vec::new(),
                active: true,
            });
            branches.len() - 1
        });
        branches[bi].dests.push(di);
        dest_branch[di] = Some(bi);
    }

    // Instance set in use (for capacity and setup dedup): chain placements
    // plus accepted branch instances.
    let mut used: BTreeSet<(VnfId, NodeId)> = chain
        .placement
        .iter()
        .enumerate()
        .map(|(i, &n)| (task.sfc().stage(i + 1), n))
        .collect();

    let build = |branches: &[Branch]| -> Result<Embedding, CoreError> {
        build_embedding(network, task, chain, &tree, branches, &dest_branch)
    };

    let initial_embedding = build(&branches)?;
    let mut best = delivery_cost(network, task, &initial_embedding)?;
    let initial_cost = best.total();
    let mut best_embedding = initial_embedding;
    let mut added: Vec<(usize, NodeId)> = Vec::new();

    let servers: Vec<NodeId> = network.servers().collect();
    const EPS: f64 = 1e-9;

    for j in (1..=k).rev() {
        let mut any_added = false;
        for bi in 0..branches.len() {
            if !branches[bi].active {
                continue;
            }
            let f = task.sfc().stage(j);
            let demand = network.catalog().demand(f);
            let cb = branches[bi]
                .instances
                .last()
                .map_or(branches[bi].conn, |&(_, n)| n);
            let w_j = chain.placement[j - 1];
            let w_prev = if j == 1 {
                task.source()
            } else {
                chain.placement[j - 2]
            };
            let Some(current_serve) = dist.distance(cb, w_j) else {
                branches[bi].active = false;
                continue;
            };

            // Best replication target by the paper's local rule.
            let mut best_x: Option<(f64, NodeId)> = None;
            for &x in &servers {
                if x == w_j {
                    continue; // replicating onto the trunk is never a gain
                }
                let counted = network.is_deployed(f, x) || used.contains(&(f, x));
                if !counted && !fits(network, &used, x, demand) {
                    continue;
                }
                let (Some(d_in), Some(d_out)) = (dist.distance(cb, x), dist.distance(x, w_prev))
                else {
                    continue;
                };
                let setup = if counted {
                    0.0
                } else {
                    network.setup_cost(f, x)
                };
                let score = d_in + d_out + setup;
                if best_x.is_none_or(|(b, _)| score < b) {
                    best_x = Some((score, x));
                }
            }
            let Some((score, x)) = best_x else {
                branches[bi].active = false;
                continue;
            };
            if score >= current_serve - EPS {
                branches[bi].active = false;
                continue;
            }

            // Global acceptance check on the canonical cost.
            branches[bi].instances.push((j, x));
            let candidate = build(&branches)?;
            let cost = delivery_cost(network, task, &candidate)?;
            if cost.total() < best.total() - EPS {
                best = cost;
                best_embedding = candidate;
                used.insert((f, x));
                added.push((j, x));
                any_added = true;
            } else {
                branches[bi].instances.pop();
                branches[bi].active = false;
            }
        }
        if !any_added {
            break; // Theorem 4 justifies stopping at the first dry stage
        }
    }

    Ok(OpaResult {
        embedding: best_embedding,
        cost: best,
        initial_cost,
        added_instances: added,
    })
}

/// Whether a new instance of demand `demand` fits on `x` given the
/// instances already in use.
fn fits(network: &Network, used: &BTreeSet<(VnfId, NodeId)>, x: NodeId, demand: f64) -> bool {
    let new_load: f64 = used
        .iter()
        .filter(|&&(f, n)| n == x && !network.is_deployed(f, n))
        .map(|&(f, _)| network.catalog().demand(f))
        .sum();
    network.deployed_load(x) + new_load + demand <= network.capacity(x) + 1e-9
}

/// Assembles the canonical embedding for the current branch state.
fn build_embedding(
    network: &Network,
    task: &MulticastTask,
    chain: &ChainSolution,
    tree: &RootedTree,
    branches: &[Branch],
    dest_branch: &[Option<usize>],
) -> Result<Embedding, CoreError> {
    let k = task.sfc().len();
    let dist = network.dist();
    let path_between = |a: NodeId, b: NodeId| -> Result<Vec<NodeId>, CoreError> {
        dist.path(a, b).ok_or_else(|| CoreError::Infeasible {
            reason: format!("no path between {a} and {b}"),
        })
    };

    let mut routes = Vec::with_capacity(task.destination_count());
    for (di, &d) in task.destinations().iter().enumerate() {
        // The instance node per stage for this destination.
        let mut nodes = Vec::with_capacity(k + 1);
        nodes.push(task.source());
        let branch = dest_branch[di].map(|bi| &branches[bi]);
        match branch {
            Some(b) if !b.instances.is_empty() => {
                // Branch instances are pushed from stage k downwards; the
                // lowest replicated stage attaches to the trunk below it.
                let lowest = b.instances.last().expect("non-empty").0;
                for j in 1..lowest {
                    nodes.push(chain.placement[j - 1]);
                }
                for &(j, x) in b.instances.iter().rev() {
                    debug_assert!(j >= lowest);
                    nodes.push(x);
                    let _ = j;
                }
            }
            _ => {
                for j in 1..=k {
                    nodes.push(chain.placement[j - 1]);
                }
            }
        }
        debug_assert_eq!(nodes.len(), k + 1);

        let mut segments = Vec::with_capacity(k + 1);
        for w in nodes.windows(2) {
            segments.push(path_between(w[0], w[1])?);
        }

        // Delivery segment: from the stage-k node to the destination.
        let last = *nodes.last().expect("chain nodes non-empty");
        let delivery = match branch {
            Some(b) if !b.instances.is_empty() => {
                // Ride to the branch's connection node, then down the tree.
                let mut path = path_between(last, b.conn)?;
                let rp = tree
                    .path_from_root(d)
                    .ok_or_else(|| CoreError::Infeasible {
                        reason: format!("destination {d} not covered by the Steiner tree"),
                    })?;
                let pos = rp
                    .iter()
                    .position(|&n| n == b.conn)
                    .expect("connection node lies on the destination's tree path");
                path.extend_from_slice(&rp[pos + 1..]);
                path
            }
            _ => tree
                .path_from_root(d)
                .ok_or_else(|| CoreError::Infeasible {
                    reason: format!("destination {d} not covered by the Steiner tree"),
                })?,
        };
        segments.push(delivery);
        routes.push(DestinationRoute::new(segments));
    }
    Ok(Embedding::new(routes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::is_valid;
    use crate::vnf::{Sfc, VnfCatalog};
    use sft_graph::Graph;

    /// A topology engineered so branching pays off: the source-side chain
    /// serves destination d1 cheaply, while d2 sits far away but next to a
    /// cheap server where replicating the last VNF wins.
    ///
    /// ```text
    ///  S=0 - 1(f1 chain) - 2(W, f2 chain) - 3 = d1
    ///                |                      (cheap local: 6 - 5 = d2)
    ///                +------- 5 ------------ 4=d2?
    /// ```
    fn branching_fixture() -> (Network, MulticastTask) {
        let mut g = Graph::new(7);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 1.0).unwrap(); // d1 near W
        g.add_edge(NodeId(2), NodeId(4), 20.0).unwrap(); // expensive to d2 from W
        g.add_edge(NodeId(1), NodeId(5), 1.0).unwrap(); // cheap server near d2
        g.add_edge(NodeId(5), NodeId(4), 1.0).unwrap();
        g.add_edge(NodeId(5), NodeId(6), 1.0).unwrap();
        let net = Network::builder(g, VnfCatalog::uniform(2))
            .all_servers(4.0)
            .unwrap()
            .uniform_setup_cost(1.0)
            .unwrap()
            .build()
            .unwrap();
        let task = MulticastTask::new(
            NodeId(0),
            vec![NodeId(3), NodeId(4)],
            Sfc::new(vec![crate::vnf::VnfId(0), crate::vnf::VnfId(1)]).unwrap(),
        )
        .unwrap();
        (net, task)
    }

    #[test]
    fn opa_never_increases_cost_and_stays_valid() {
        let (net, task) = branching_fixture();
        let chain = crate::msa::stage_one(&net, &task).unwrap();
        let base = chain.to_embedding(&net, &task).unwrap();
        let base_cost = delivery_cost(&net, &task, &base).unwrap().total();
        let out = optimize(&net, &task, &chain).unwrap();
        assert!(out.cost.total() <= base_cost + 1e-9);
        assert!((out.initial_cost - base_cost).abs() < 1e-9);
        assert!(is_valid(&net, &task, &out.embedding));
        let recomputed = delivery_cost(&net, &task, &out.embedding).unwrap().total();
        assert!((recomputed - out.cost.total()).abs() < 1e-9);
    }

    /// A Fig.-6-style instance where stage 1 is pinned (deployed VNFs) and
    /// the delivery tree must cross an expensive edge that replication
    /// avoids: S=0 -1- A=1 -7- W=2; W -1- d1=3; W -8- d2=4; A -1- 5 -1- d2.
    fn fig6_style() -> (Network, MulticastTask, ChainSolution) {
        let mut g = Graph::new(6);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 7.0).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 1.0).unwrap();
        g.add_edge(NodeId(2), NodeId(4), 8.0).unwrap();
        g.add_edge(NodeId(1), NodeId(5), 1.0).unwrap();
        g.add_edge(NodeId(5), NodeId(4), 1.0).unwrap();
        let net = Network::builder(g, VnfCatalog::uniform(2))
            .all_servers(4.0)
            .unwrap()
            .uniform_setup_cost(2.0)
            .unwrap()
            .deploy(crate::vnf::VnfId(0), NodeId(1))
            .unwrap()
            .deploy(crate::vnf::VnfId(1), NodeId(2))
            .unwrap()
            .build()
            .unwrap();
        let task = MulticastTask::new(
            NodeId(0),
            vec![NodeId(3), NodeId(4)],
            Sfc::new(vec![crate::vnf::VnfId(0), crate::vnf::VnfId(1)]).unwrap(),
        )
        .unwrap();
        let chain = ChainSolution {
            placement: vec![NodeId(1), NodeId(2)],
            steiner_edges: vec![
                net.graph().find_edge(NodeId(2), NodeId(3)).unwrap(),
                net.graph().find_edge(NodeId(2), NodeId(4)).unwrap(),
            ],
        };
        (net, task, chain)
    }

    #[test]
    fn opa_replicates_when_branching_wins() {
        let (net, task, chain) = fig6_style();
        let out = optimize(&net, &task, &chain).unwrap();
        // Stage-1 cost: seg0=1, seg1=7, delivery 1+8 -> 17 (setup 0).
        assert!((out.initial_cost - 17.0).abs() < 1e-9);
        // Replicating f2 near d2 (node 4 or 5) re-routes its delivery off
        // the cost-8 edge: 1 + (7 + 1 + 1) + 1 + setup 2 = 13.
        assert_eq!(out.added_instances.len(), 1);
        assert_eq!(out.added_instances[0].0, 2, "replication at stage 2");
        assert!(
            (out.cost.total() - 13.0).abs() < 1e-9,
            "cost {:?}",
            out.cost
        );
        assert!(is_valid(&net, &task, &out.embedding));
    }

    #[test]
    fn opa_classifies_dependent_paths_and_leaves_them_alone() {
        let (net, task, chain) = fig6_style();
        let out = optimize(&net, &task, &chain).unwrap();
        // d1 (node 3) rides the trunk: its route must end with W -> d1 and
        // its stage-2 instance must still be W (node 2).
        let r1 = &out.embedding.routes()[0];
        assert_eq!(r1.instance_node(2), Some(NodeId(2)));
        // d2 is served by the replicated instance, not W.
        let r2 = &out.embedding.routes()[1];
        assert_ne!(r2.instance_node(2), Some(NodeId(2)));
    }

    #[test]
    fn theorem4_successors_have_at_least_as_many_instances() {
        let (net, task) = branching_fixture();
        let chain = crate::msa::stage_one(&net, &task).unwrap();
        let out = optimize(&net, &task, &chain).unwrap();
        let k = task.sfc().len();
        let mut counts = vec![0usize; k + 1];
        for (stage, _) in out.embedding.instances() {
            counts[stage] += 1;
        }
        for j in 1..k {
            assert!(
                counts[j] <= counts[j + 1],
                "stage {j} has {} instances but stage {} has {}",
                counts[j],
                j + 1,
                counts[j + 1]
            );
        }
    }

    #[test]
    fn opa_is_a_noop_when_chain_already_serves_everyone_well() {
        // A simple line: no branching can ever help.
        let mut g = Graph::new(4);
        for i in 0..3 {
            g.add_edge(NodeId(i), NodeId(i + 1), 1.0).unwrap();
        }
        let net = Network::builder(g, VnfCatalog::uniform(1))
            .all_servers(2.0)
            .unwrap()
            .uniform_setup_cost(1.0)
            .unwrap()
            .build()
            .unwrap();
        let task = MulticastTask::new(
            NodeId(0),
            vec![NodeId(3)],
            Sfc::new(vec![crate::vnf::VnfId(0)]).unwrap(),
        )
        .unwrap();
        let chain = crate::msa::stage_one(&net, &task).unwrap();
        let out = optimize(&net, &task, &chain).unwrap();
        assert!(out.added_instances.is_empty());
        assert!((out.cost.total() - out.initial_cost).abs() < 1e-12);
    }

    /// Two-level replication: a side corridor S-A-P-Q-d2 lets OPA first
    /// replicate the last VNF near d2 (stage 3) and then the middle VNF at
    /// the corridor (stage 2). Hand-computed costs: stage-1 36, one level
    /// 28, two levels 23.
    fn two_level_fixture() -> (Network, MulticastTask, ChainSolution) {
        let mut g = sft_graph::Graph::new(8);
        let e = |g: &mut sft_graph::Graph, u: usize, v: usize, w: f64| {
            g.add_edge(NodeId(u), NodeId(v), w).unwrap();
        };
        e(&mut g, 0, 1, 1.0); // S - A
        e(&mut g, 1, 2, 7.0); // A - B
        e(&mut g, 2, 3, 7.0); // B - W
        e(&mut g, 3, 4, 1.0); // W - d1
        e(&mut g, 3, 5, 20.0); // W - d2 (expensive direct)
        e(&mut g, 1, 6, 1.0); // A - P
        e(&mut g, 6, 7, 1.0); // P - Q
        e(&mut g, 7, 5, 1.0); // Q - d2 (cheap corridor)
        let net = Network::builder(g, crate::vnf::VnfCatalog::uniform(3))
            .all_servers(4.0)
            .unwrap()
            .uniform_setup_cost(2.0)
            .unwrap()
            .deploy(crate::vnf::VnfId(0), NodeId(1))
            .unwrap()
            .deploy(crate::vnf::VnfId(1), NodeId(2))
            .unwrap()
            .deploy(crate::vnf::VnfId(2), NodeId(3))
            .unwrap()
            .build()
            .unwrap();
        let task = MulticastTask::new(
            NodeId(0),
            vec![NodeId(4), NodeId(5)],
            Sfc::new(vec![
                crate::vnf::VnfId(0),
                crate::vnf::VnfId(1),
                crate::vnf::VnfId(2),
            ])
            .unwrap(),
        )
        .unwrap();
        let chain = ChainSolution {
            placement: vec![NodeId(1), NodeId(2), NodeId(3)],
            steiner_edges: vec![
                net.graph().find_edge(NodeId(3), NodeId(4)).unwrap(),
                net.graph().find_edge(NodeId(3), NodeId(5)).unwrap(),
            ],
        };
        (net, task, chain)
    }

    #[test]
    fn opa_recursion_replicates_two_levels_deep() {
        let (net, task, chain) = two_level_fixture();
        let out = optimize(&net, &task, &chain).unwrap();
        assert!(
            (out.initial_cost - 36.0).abs() < 1e-9,
            "{}",
            out.initial_cost
        );
        assert!((out.cost.total() - 23.0).abs() < 1e-9, "{:?}", out.cost);
        let stages: Vec<usize> = out.added_instances.iter().map(|&(j, _)| j).collect();
        assert_eq!(stages, vec![3, 2], "inverted-order two-level replication");
        assert!(is_valid(&net, &task, &out.embedding));
        // The logical tree now has two instances at stages 2 and 3.
        let tree = crate::SftTree::extract(&task, &out.embedding).unwrap();
        assert_eq!(tree.instance_count(3), 2);
        assert_eq!(tree.instance_count(2), 2);
        assert_eq!(tree.instance_count(1), 1);
        assert!(tree.satisfies_theorem4());
    }

    #[test]
    fn include_dependent_never_hurts_and_sometimes_helps() {
        // On the Fig.-6 fixture both variants agree; on workloads where the
        // dependence rule blocks an improvement, the permissive variant may
        // only be cheaper — never more expensive (global check guards it).
        let (net, task, chain) = fig6_style();
        let strict = optimize(&net, &task, &chain).unwrap();
        let permissive = optimize_with(
            &net,
            &task,
            &chain,
            &OpaConfig {
                include_dependent: true,
            },
        )
        .unwrap();
        assert!(permissive.cost.total() <= strict.cost.total() + 1e-9);
        assert!(is_valid(&net, &task, &permissive.embedding));
    }

    #[test]
    fn opa_respects_capacity_when_replicating() {
        // Same fixture but with node 5 already full: replication must go
        // elsewhere or not happen; capacity must hold either way.
        let mut g = Graph::new(7);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 1.0).unwrap();
        g.add_edge(NodeId(2), NodeId(4), 20.0).unwrap();
        g.add_edge(NodeId(1), NodeId(5), 1.0).unwrap();
        g.add_edge(NodeId(5), NodeId(4), 1.0).unwrap();
        g.add_edge(NodeId(5), NodeId(6), 1.0).unwrap();
        let net = Network::builder(g, VnfCatalog::uniform(3))
            .all_servers(1.0)
            .unwrap()
            .uniform_setup_cost(1.0)
            .unwrap()
            .deploy(crate::vnf::VnfId(2), NodeId(5)) // fills node 5
            .unwrap()
            .build()
            .unwrap();
        let task = MulticastTask::new(
            NodeId(0),
            vec![NodeId(3), NodeId(4)],
            Sfc::new(vec![crate::vnf::VnfId(0), crate::vnf::VnfId(1)]).unwrap(),
        )
        .unwrap();
        let chain = crate::msa::stage_one(&net, &task).unwrap();
        let out = optimize(&net, &task, &chain).unwrap();
        assert!(is_valid(&net, &task, &out.embedding));
    }
}
