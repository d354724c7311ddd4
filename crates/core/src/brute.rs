//! Brute-force oracles, used by tests and the evaluation to certify the
//! heuristics' quality on small instances.
//!
//! * [`optimal_chain`] — the cost-optimal *single chain* placement
//!   (exhaustive over `servers^k`), the oracle for Theorem 2 (the expanded
//!   MOD shortest paths must match it when capacities suffice).
//! * [`optimal_chain_tree`] — the cost-optimal "chain + exact Steiner
//!   tree" solution, an upper-bound oracle for stage-1 outputs.

use crate::chain::{new_instance_usage, ChainSolution};
use crate::cost::delivery_cost;
use crate::network::Network;
use crate::task::MulticastTask;
use crate::CoreError;
use sft_graph::NodeId;

/// Hard cap on `servers^k` enumeration size.
const MAX_ENUMERATION: u128 = 4_000_000;

/// Exhaustively finds the chain placement minimizing
/// `dist(S, v₁) + Σ dist(v_j, v_{j+1}) + Σ setup(l_j, v_j)` subject to
/// capacities (the stage-1 chain objective, before any delivery tree).
///
/// # Errors
///
/// * [`CoreError::Infeasible`] if no capacity-feasible placement exists or
///   the enumeration would exceed the safety cap.
pub fn optimal_chain(
    network: &Network,
    task: &MulticastTask,
) -> Result<(Vec<NodeId>, f64), CoreError> {
    let sfc = task.sfc();
    let k = sfc.len();
    let servers: Vec<NodeId> = network.servers().collect();
    let count = (servers.len() as u128).checked_pow(k as u32);
    if count.is_none_or(|c| c > MAX_ENUMERATION) {
        return Err(CoreError::Infeasible {
            reason: format!(
                "brute force over {}^{k} placements exceeds the oracle cap",
                servers.len()
            ),
        });
    }
    let dist = network.dist();
    let mut best: Option<(f64, Vec<NodeId>)> = None;
    let mut placement = vec![servers[0]; k];
    let mut idx = vec![0usize; k];
    loop {
        for (p, &i) in placement.iter_mut().zip(&idx) {
            *p = servers[i];
        }
        'eval: {
            // Capacity.
            let usage = new_instance_usage(network, sfc, &placement);
            for &(n, u) in &usage {
                if network.deployed_load(n) + u > network.capacity(n) + 1e-9 {
                    break 'eval;
                }
            }
            // Cost.
            let mut cost = 0.0;
            let mut prev = task.source();
            let mut connected = true;
            for (j, &n) in placement.iter().enumerate() {
                match dist.distance(prev, n) {
                    Some(d) => cost += d,
                    None => {
                        connected = false;
                        break;
                    }
                }
                cost += network.effective_setup_cost(sfc.stage(j + 1), n);
                prev = n;
            }
            if !connected {
                break 'eval;
            }
            if best.as_ref().is_none_or(|(b, _)| cost < *b) {
                best = Some((cost, placement.clone()));
            }
        }
        // Odometer increment.
        let mut pos = 0;
        loop {
            if pos == k {
                let (cost, placement) = best.ok_or_else(|| CoreError::Infeasible {
                    reason: "no capacity-feasible chain placement".into(),
                })?;
                return Ok((placement, cost));
            }
            idx[pos] += 1;
            if idx[pos] < servers.len() {
                break;
            }
            idx[pos] = 0;
            pos += 1;
        }
    }
}

/// Exhaustively finds the best "chain + exact Steiner tree" solution by
/// trying every chain placement and hanging an exact Steiner tree off its
/// last node, priced with the canonical cost model.
///
/// Exponential twice over (placements × Steiner subsets): tiny inputs only.
///
/// # Errors
///
/// Same conditions as [`optimal_chain`], plus Steiner-oracle limits.
pub fn optimal_chain_tree(
    network: &Network,
    task: &MulticastTask,
) -> Result<(ChainSolution, f64), CoreError> {
    let sfc = task.sfc();
    let k = sfc.len();
    let servers: Vec<NodeId> = network.servers().collect();
    let count = (servers.len() as u128).checked_pow(k as u32);
    if count.is_none_or(|c| c > 100_000) {
        return Err(CoreError::Infeasible {
            reason: "chain-tree brute force exceeds the oracle cap".into(),
        });
    }
    let mut best: Option<(f64, ChainSolution)> = None;
    let mut idx = vec![0usize; k];
    loop {
        let placement: Vec<NodeId> = idx.iter().map(|&i| servers[i]).collect();
        'eval: {
            let usage = new_instance_usage(network, sfc, &placement);
            for &(n, u) in &usage {
                if network.deployed_load(n) + u > network.capacity(n) + 1e-9 {
                    break 'eval;
                }
            }
            let w = *placement.last().expect("k >= 1");
            let mut terminals = vec![w];
            terminals.extend_from_slice(task.destinations());
            let Ok(tree) = network.graph().steiner_exact(&terminals) else {
                break 'eval;
            };
            let chain = ChainSolution {
                placement,
                steiner_edges: tree.edges,
            };
            let Ok(emb) = chain.to_embedding(network, task) else {
                break 'eval;
            };
            let Ok(cost) = delivery_cost(network, task, &emb) else {
                break 'eval;
            };
            let total = cost.total();
            if best.as_ref().is_none_or(|(b, _)| total < *b) {
                best = Some((total, chain));
            }
        }
        let mut pos = 0;
        loop {
            if pos == k {
                let (cost, chain) = best.ok_or_else(|| CoreError::Infeasible {
                    reason: "no feasible chain-tree solution".into(),
                })?;
                return Ok((chain, cost));
            }
            idx[pos] += 1;
            if idx[pos] < servers.len() {
                break;
            }
            idx[pos] = 0;
            pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mod_network::ExpandedMod;
    use crate::vnf::{Sfc, VnfCatalog, VnfId};
    use sft_graph::Graph;

    fn small_net() -> Network {
        let mut g = Graph::new(5);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 2.0).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 1.0).unwrap();
        g.add_edge(NodeId(3), NodeId(4), 2.0).unwrap();
        g.add_edge(NodeId(0), NodeId(4), 3.0).unwrap();
        g.add_edge(NodeId(1), NodeId(3), 1.5).unwrap();
        Network::builder(g, VnfCatalog::uniform(3))
            .all_servers(3.0)
            .unwrap()
            .uniform_setup_cost(1.5)
            .unwrap()
            .build()
            .unwrap()
    }

    fn a_task() -> MulticastTask {
        MulticastTask::new(
            NodeId(0),
            vec![NodeId(4)],
            Sfc::new(vec![VnfId(0), VnfId(1)]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn theorem2_expanded_mod_matches_brute_force() {
        // With ample capacity, the best expanded-MOD chain over all last
        // nodes must equal the brute-force optimal chain.
        let net = small_net();
        let task = a_task();
        let (brute_placement, brute_cost) = optimal_chain(&net, &task).unwrap();
        let emod = ExpandedMod::build(&net, task.source(), task.sfc()).unwrap();
        let mod_best = (0..emod.servers().len())
            .filter_map(|row| emod.placement_for(row).map(|(_, c)| c))
            .fold(f64::INFINITY, f64::min);
        assert!(
            (mod_best - brute_cost).abs() < 1e-9,
            "MOD {mod_best} vs brute {brute_cost} (placement {brute_placement:?})"
        );
    }

    #[test]
    fn optimal_chain_respects_capacity() {
        // Capacity 1: the two stages cannot co-locate.
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        let net = Network::builder(g, VnfCatalog::uniform(2))
            .all_servers(1.0)
            .unwrap()
            .build()
            .unwrap();
        let task = MulticastTask::new(
            NodeId(0),
            vec![NodeId(2)],
            Sfc::new(vec![VnfId(0), VnfId(1)]).unwrap(),
        )
        .unwrap();
        let (placement, _) = optimal_chain(&net, &task).unwrap();
        assert_ne!(placement[0], placement[1]);
    }

    #[test]
    fn chain_tree_is_at_most_stage_one_cost() {
        let net = small_net();
        let task = MulticastTask::new(
            NodeId(0),
            vec![NodeId(2), NodeId(4)],
            Sfc::new(vec![VnfId(0), VnfId(1)]).unwrap(),
        )
        .unwrap();
        let (_, oracle_cost) = optimal_chain_tree(&net, &task).unwrap();
        let chain = crate::msa::stage_one(&net, &task).unwrap();
        let emb = chain.to_embedding(&net, &task).unwrap();
        let msa_cost = delivery_cost(&net, &task, &emb).unwrap().total();
        assert!(oracle_cost <= msa_cost + 1e-9);
        // MSA's stage 1 uses approximate Steiner trees but is otherwise the
        // same shape; it should stay within the 2x Steiner gap.
        assert!(msa_cost <= 2.0 * oracle_cost + 1e-9);
    }

    #[test]
    fn oracle_caps_guard_against_explosions() {
        let mut g = Graph::new(40);
        for i in 0..39 {
            g.add_edge(NodeId(i), NodeId(i + 1), 1.0).unwrap();
        }
        let net = Network::builder(g, VnfCatalog::uniform(10))
            .all_servers(10.0)
            .unwrap()
            .build()
            .unwrap();
        let task = MulticastTask::new(
            NodeId(0),
            vec![NodeId(39)],
            Sfc::new((0..10).map(VnfId).collect::<Vec<_>>()).unwrap(),
        )
        .unwrap();
        assert!(matches!(
            optimal_chain(&net, &task),
            Err(CoreError::Infeasible { .. })
        ));
        assert!(matches!(
            optimal_chain_tree(&net, &task),
            Err(CoreError::Infeasible { .. })
        ));
    }
}
