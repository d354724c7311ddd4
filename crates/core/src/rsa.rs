//! Stage-1 baseline — the Randomly Selecting Algorithm (RSA, paper §V-A).
//!
//! "RSA randomly selects VNFs that have been deployed. While for those VNFs
//! that have not been deployed, RSA randomly selects nodes with sufficient
//! capacities to deploy them. After all requested VNFs having been
//! deployed, RSA connects them in order with the shortest paths." The
//! second stage (OPA) is shared with MSA and SCA.

use crate::chain::{new_instance_usage, repair_capacity, ChainSolution, LoadSnapshot};
use crate::network::Network;
use crate::task::MulticastTask;
use crate::CoreError;
use rand::{Rng, RngExt};
use sft_graph::NodeId;

/// Runs RSA stage 1 with the caller's RNG (pass a seeded
/// `rand::rngs::StdRng` for reproducible experiments).
///
/// # Errors
///
/// * Task/network mismatches ([`CoreError::NodeOutOfBounds`],
///   [`CoreError::VnfOutOfBounds`]).
/// * [`CoreError::Infeasible`] when no feasible placement or delivery tree
///   exists.
pub fn stage_one<R: Rng + ?Sized>(
    network: &Network,
    task: &MulticastTask,
    rng: &mut R,
) -> Result<ChainSolution, CoreError> {
    task.check_against(network)?;
    let sfc = task.sfc();
    let k = sfc.len();
    let servers: Vec<NodeId> = network.servers().collect();
    if servers.is_empty() {
        return Err(CoreError::Infeasible {
            reason: "network has no server nodes".into(),
        });
    }

    let mut placement: Vec<NodeId> = Vec::with_capacity(k);
    for j in 1..=k {
        let f = sfc.stage(j);
        let deployed: Vec<NodeId> = servers
            .iter()
            .copied()
            .filter(|&v| network.is_deployed(f, v))
            .collect();
        let choice = if deployed.is_empty() {
            // Random among servers that can still fit a new instance given
            // what we've placed so far.
            let feasible: Vec<NodeId> = servers
                .iter()
                .copied()
                .filter(|&v| {
                    let mut trial = placement.clone();
                    trial.push(v);
                    let prefix =
                        crate::vnf::Sfc::new(sfc.stages()[..j].to_vec()).expect("non-empty prefix");
                    new_instance_usage(network, &prefix, &trial)
                        .iter()
                        .all(|&(n, u)| network.deployed_load(n) + u <= network.capacity(n) + 1e-9)
                })
                .collect();
            if feasible.is_empty() {
                return Err(CoreError::Infeasible {
                    reason: format!("RSA found no feasible host for stage {j}"),
                });
            }
            feasible[rng.random_range(0..feasible.len())]
        } else {
            deployed[rng.random_range(0..deployed.len())]
        };
        placement.push(choice);
    }

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
    use crate::validate::is_valid;
    use crate::vnf::{Sfc, VnfCatalog, VnfId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sft_graph::Graph;

    fn ring_net(capacity: f64, deployments: &[(usize, usize)]) -> Network {
        let mut g = Graph::new(6);
        for i in 0..6 {
            g.add_edge(NodeId(i), NodeId((i + 1) % 6), 1.0).unwrap();
        }
        let mut b = Network::builder(g, VnfCatalog::uniform(3))
            .all_servers(capacity)
            .unwrap();
        for &(f, n) in deployments {
            b = b.deploy(VnfId(f), NodeId(n)).unwrap();
        }
        b.build().unwrap()
    }

    fn a_task() -> MulticastTask {
        MulticastTask::new(
            NodeId(0),
            vec![NodeId(3), NodeId(4)],
            Sfc::new(vec![VnfId(0), VnfId(1)]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn produces_feasible_embeddings_across_seeds() {
        let net = ring_net(3.0, &[]);
        let task = a_task();
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let chain = stage_one(&net, &task, &mut rng).unwrap();
            let emb = chain.to_embedding(&net, &task).unwrap();
            assert!(is_valid(&net, &task, &emb), "seed {seed}");
        }
    }

    #[test]
    fn is_deterministic_per_seed() {
        let net = ring_net(3.0, &[]);
        let task = a_task();
        let a = stage_one(&net, &task, &mut StdRng::seed_from_u64(7)).unwrap();
        let b = stage_one(&net, &task, &mut StdRng::seed_from_u64(7)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn always_reuses_deployed_instances() {
        // f0 deployed only on node 5: RSA must pick it for stage 1.
        let net = ring_net(3.0, &[(0, 5)]);
        let task = a_task();
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let chain = stage_one(&net, &task, &mut rng).unwrap();
            assert_eq!(chain.placement[0], NodeId(5), "seed {seed}");
        }
    }

    #[test]
    fn explores_different_placements() {
        let net = ring_net(3.0, &[]);
        let task = a_task();
        let placements: std::collections::BTreeSet<Vec<NodeId>> = (0..20)
            .map(|s| {
                stage_one(&net, &task, &mut StdRng::seed_from_u64(s))
                    .unwrap()
                    .placement
            })
            .collect();
        assert!(placements.len() > 1, "randomness should vary placements");
    }

    #[test]
    fn infeasible_with_zero_capacity() {
        let net = ring_net(0.0, &[]);
        let task = a_task();
        assert!(matches!(
            stage_one(&net, &task, &mut StdRng::seed_from_u64(0)),
            Err(CoreError::Infeasible { .. })
        ));
    }
}
