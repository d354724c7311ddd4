//! Stage-1 baseline — the minimum Set Cover Algorithm (SCA, paper §V-A).
//!
//! "SCA tries to occupy as few nodes as possible when embedding the SFC in
//! the first stage. It chooses the minimum number of nodes to cover as many
//! VNFs as possible. If some VNF has no existing instance in the network,
//! SCA will deploy a new instance upon the nearest node to the predecessor
//! VNF." The second stage (OPA) is shared with MSA and RSA.

use crate::chain::{new_instance_usage, repair_capacity, ChainSolution, LoadSnapshot};
use crate::network::Network;
use crate::task::MulticastTask;
use crate::CoreError;
use sft_graph::NodeId;

/// Runs SCA stage 1.
///
/// # Errors
///
/// * Task/network mismatches ([`CoreError::NodeOutOfBounds`],
///   [`CoreError::VnfOutOfBounds`]).
/// * [`CoreError::Infeasible`] when no feasible placement or delivery tree
///   exists.
pub fn stage_one(network: &Network, task: &MulticastTask) -> Result<ChainSolution, CoreError> {
    task.check_against(network)?;
    let sfc = task.sfc();
    let k = sfc.len();
    let servers: Vec<NodeId> = network.servers().collect();
    if servers.is_empty() {
        return Err(CoreError::Infeasible {
            reason: "network has no server nodes".into(),
        });
    }

    // Greedy set cover: repeatedly grab the server whose deployed instances
    // cover the most still-uncovered chain stages.
    let mut assignment: Vec<Option<NodeId>> = vec![None; k];
    loop {
        let mut best: Option<(usize, NodeId, Vec<usize>)> = None;
        for &v in &servers {
            let covered: Vec<usize> = (1..=k)
                .filter(|&j| assignment[j - 1].is_none() && network.is_deployed(sfc.stage(j), v))
                .collect();
            if covered.is_empty() {
                continue;
            }
            if best.as_ref().is_none_or(|(n, _, _)| covered.len() > *n) {
                best = Some((covered.len(), v, covered));
            }
        }
        let Some((_, v, covered)) = best else { break };
        for j in covered {
            assignment[j - 1] = Some(v);
        }
    }

    // Remaining stages: place each on the nearest capacity-feasible server
    // to the predecessor stage's node, in chain order.
    let dist = network.dist();
    let mut placement: Vec<NodeId> = Vec::with_capacity(k);
    for j in 1..=k {
        match assignment[j - 1] {
            Some(v) => placement.push(v),
            None => {
                let f = sfc.stage(j);
                let prev = if j == 1 {
                    task.source()
                } else {
                    placement[j - 2]
                };
                // Capacity feasibility accounts for what we placed so far.
                let mut trial = placement.clone();
                trial.push(NodeId(0)); // placeholder, replaced per candidate
                let mut best: Option<(f64, f64, NodeId)> = None;
                for &v in &servers {
                    *trial.last_mut().expect("placeholder") = v;
                    let prefix_sfc =
                        crate::vnf::Sfc::new(sfc.stages()[..j].to_vec()).expect("non-empty prefix");
                    let usage = new_instance_usage(network, &prefix_sfc, &trial);
                    let fits = usage
                        .iter()
                        .all(|&(n, u)| network.deployed_load(n) + u <= network.capacity(n) + 1e-9);
                    if !fits {
                        continue;
                    }
                    let Some(d) = dist.distance(prev, v) else {
                        continue;
                    };
                    let setup = network.effective_setup_cost(f, v);
                    // Nearest first; ties broken by cheaper setup.
                    if best.is_none_or(|(bd, bs, _)| d < bd || (d == bd && setup < bs)) {
                        best = Some((d, setup, v));
                    }
                }
                let Some((_, _, v)) = best else {
                    return Err(CoreError::Infeasible {
                        reason: format!("SCA found no feasible host for stage {j}"),
                    });
                };
                placement.push(v);
            }
        }
    }

    // The cover may have over-packed reused nodes with *new* stages; run the
    // shared repair to restore feasibility, then hang the delivery tree.
    let loads = LoadSnapshot::new(network);
    repair_capacity(network, &loads, task.source(), sfc, &mut placement)?;
    let w = *placement.last().expect("non-empty chain");
    let mut terminals = vec![w];
    terminals.extend_from_slice(task.destinations());
    let tree = network
        .graph()
        .steiner_kmb_with_provider(network.dist(), &terminals, None)?;
    Ok(ChainSolution {
        placement,
        steiner_edges: tree.edges,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::delivery_cost;
    use crate::validate::is_valid;
    use crate::vnf::{Sfc, VnfCatalog, VnfId};
    use sft_graph::Graph;

    fn ring_net(deployments: &[(usize, usize)]) -> Network {
        let mut g = Graph::new(6);
        for i in 0..6 {
            g.add_edge(NodeId(i), NodeId((i + 1) % 6), 1.0).unwrap();
        }
        let mut b = Network::builder(g, VnfCatalog::uniform(4))
            .all_servers(4.0)
            .unwrap()
            .uniform_setup_cost(2.0)
            .unwrap();
        for &(f, n) in deployments {
            b = b.deploy(VnfId(f), NodeId(n)).unwrap();
        }
        b.build().unwrap()
    }

    fn a_task() -> MulticastTask {
        MulticastTask::new(
            NodeId(0),
            vec![NodeId(3), NodeId(5)],
            Sfc::new(vec![VnfId(0), VnfId(1), VnfId(2)]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn covers_with_deployed_instances_first() {
        // Node 2 hosts the whole chain pre-deployed: SCA must use it for
        // every stage (maximum cover, zero setup).
        let net = ring_net(&[(0, 2), (1, 2), (2, 2)]);
        let task = a_task();
        let chain = stage_one(&net, &task).unwrap();
        assert_eq!(chain.placement, vec![NodeId(2); 3]);
        let emb = chain.to_embedding(&net, &task).unwrap();
        assert!(is_valid(&net, &task, &emb));
        assert_eq!(delivery_cost(&net, &task, &emb).unwrap().setup, 0.0);
    }

    #[test]
    fn prefers_bigger_covers() {
        // Node 1 covers one stage, node 4 covers two: greedy takes node 4
        // for stages 1 and 3, node 1 for stage 2.
        let net = ring_net(&[(0, 4), (2, 4), (1, 1)]);
        let task = a_task();
        let chain = stage_one(&net, &task).unwrap();
        assert_eq!(chain.placement[0], NodeId(4));
        assert_eq!(chain.placement[2], NodeId(4));
        assert_eq!(chain.placement[1], NodeId(1));
    }

    #[test]
    fn deploys_missing_vnfs_near_predecessor() {
        // Nothing deployed: every stage is placed nearest to its
        // predecessor, which collapses onto the source's node ring-wise.
        let net = ring_net(&[]);
        let task = a_task();
        let chain = stage_one(&net, &task).unwrap();
        let emb = chain.to_embedding(&net, &task).unwrap();
        assert!(is_valid(&net, &task, &emb));
    }

    #[test]
    fn feasible_under_tight_capacity() {
        let mut g = Graph::new(6);
        for i in 0..6 {
            g.add_edge(NodeId(i), NodeId((i + 1) % 6), 1.0).unwrap();
        }
        let net = Network::builder(g, VnfCatalog::uniform(4))
            .all_servers(1.0)
            .unwrap()
            .build()
            .unwrap();
        let task = a_task();
        let chain = stage_one(&net, &task).unwrap();
        let emb = chain.to_embedding(&net, &task).unwrap();
        assert!(is_valid(&net, &task, &emb));
    }
}
