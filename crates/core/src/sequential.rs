//! Sequential multicast embedding with instance accretion (§IV-D at
//! scale).
//!
//! The paper's "network with deployed VNFs" situation arises from running
//! tasks one after another while instances stay deployed ("like some
//! public clouds handle base load by physical hardware and spillover load
//! by virtual service instances"). [`SequentialEmbedder`] owns a network,
//! embeds incoming tasks with the two-stage algorithm, commits each
//! result's instances, and keeps per-task statistics — so the reuse
//! benefit can be measured across a task sequence.

use crate::api::{solve, SolveOptions, SolveResult, Strategy};
use crate::network::Network;
use crate::task::MulticastTask;
use crate::CoreError;

/// Statistics recorded for one embedded task.
#[derive(Clone, Debug)]
pub struct TaskRecord {
    /// Final traffic delivery cost.
    pub cost: f64,
    /// Setup component of the cost (shrinks as the network fills).
    pub setup: f64,
    /// Number of new instances this task had to place.
    pub new_instances: usize,
    /// Number of pre-existing instances it reused.
    pub reused_instances: usize,
}

/// Embeds a sequence of multicast tasks against an evolving network.
#[derive(Clone, Debug)]
pub struct SequentialEmbedder {
    network: Network,
    strategy: Strategy,
    history: Vec<TaskRecord>,
}

impl SequentialEmbedder {
    /// Creates an embedder that owns `network` and solves every task with
    /// `strategy` (+ OPA). RSA draws from [`SolveOptions::default`]'s
    /// seed on every task.
    pub fn new(network: Network, strategy: Strategy) -> Self {
        SequentialEmbedder {
            network,
            strategy,
            history: Vec::new(),
        }
    }

    /// The current network state (with all committed instances).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Records of all embedded tasks, in arrival order.
    pub fn history(&self) -> &[TaskRecord] {
        &self.history
    }

    /// Embeds one task, commits its new instances, and records stats.
    ///
    /// # Errors
    ///
    /// Solve errors ([`CoreError::Infeasible`] once capacity runs dry,
    /// id mismatches); the network is only mutated on success.
    pub fn embed(&mut self, task: &MulticastTask) -> Result<SolveResult, CoreError> {
        let options = SolveOptions {
            strategy: self.strategy,
            ..SolveOptions::default()
        };
        let result = solve(&self.network, task, &options)?;
        let typed = result.embedding.typed_instances(task);
        let new = result.embedding.new_instances(&self.network, task);
        let record = TaskRecord {
            cost: result.cost.total(),
            setup: result.cost.setup,
            new_instances: new.len(),
            reused_instances: typed.len() - new.len(),
        };
        self.network.commit_embedding(task, &result.embedding)?;
        self.history.push(record);
        Ok(result)
    }

    /// Fraction of instance uses that were reuses, across the history
    /// (0.0 when nothing has been embedded).
    pub fn reuse_ratio(&self) -> f64 {
        let (new, reused) = self.history.iter().fold((0usize, 0usize), |(n, r), t| {
            (n + t.new_instances, r + t.reused_instances)
        });
        if new + reused == 0 {
            0.0
        } else {
            reused as f64 / (new + reused) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vnf::{Sfc, VnfCatalog, VnfId};
    use rand::rngs::StdRng;
    use rand::{Rng, RngExt, SeedableRng};
    use sft_graph::NodeId;

    fn ring_network(n: usize, capacity: f64) -> Network {
        let mut g = sft_graph::Graph::new(n);
        for i in 0..n {
            g.add_edge(NodeId(i), NodeId((i + 1) % n), 1.0).unwrap();
        }
        Network::builder(g, VnfCatalog::uniform(3))
            .all_servers(capacity)
            .unwrap()
            .uniform_setup_cost(3.0)
            .unwrap()
            .build()
            .unwrap()
    }

    fn random_task<R: Rng>(n: usize, rng: &mut R) -> MulticastTask {
        let source = NodeId(rng.random_range(0..n));
        let mut dests = Vec::new();
        while dests.len() < 2 {
            let d = NodeId(rng.random_range(0..n));
            if d != source && !dests.contains(&d) {
                dests.push(d);
            }
        }
        MulticastTask::new(source, dests, Sfc::new(vec![VnfId(0), VnfId(1)]).unwrap()).unwrap()
    }

    #[test]
    fn instances_accrete_and_reuse_grows() {
        let mut emb = SequentialEmbedder::new(ring_network(10, 3.0), Strategy::Msa);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..8 {
            let task = random_task(10, &mut rng);
            emb.embed(&task).unwrap();
        }
        assert_eq!(emb.history().len(), 8);
        // Later tasks must reuse: the ring only has 2 chain types deployed
        // everywhere after a few tasks.
        assert!(emb.reuse_ratio() > 0.3, "reuse ratio {}", emb.reuse_ratio());
        let first_setup = emb.history()[0].setup;
        let last_setup = emb.history().last().unwrap().setup;
        assert!(last_setup <= first_setup, "setup must not grow over time");
    }

    #[test]
    fn repeating_the_same_task_pays_setup_once() {
        let mut emb = SequentialEmbedder::new(ring_network(8, 2.0), Strategy::Msa);
        let task = MulticastTask::new(
            NodeId(0),
            vec![NodeId(3), NodeId(5)],
            Sfc::new(vec![VnfId(0), VnfId(1)]).unwrap(),
        )
        .unwrap();
        let first = emb.embed(&task).unwrap();
        assert!(first.cost.setup > 0.0);
        let second = emb.embed(&task).unwrap();
        assert_eq!(second.cost.setup, 0.0, "second run reuses everything");
        assert!(second.cost.total() <= first.cost.total());
        assert_eq!(emb.history()[1].new_instances, 0);
    }

    #[test]
    fn failure_leaves_network_unchanged() {
        // Zero capacity: embedding must fail and commit nothing.
        let mut emb = SequentialEmbedder::new(ring_network(6, 0.0), Strategy::Msa);
        let task = MulticastTask::new(
            NodeId(0),
            vec![NodeId(2)],
            Sfc::new(vec![VnfId(0)]).unwrap(),
        )
        .unwrap();
        assert!(emb.embed(&task).is_err());
        assert!(emb.history().is_empty());
        assert_eq!(emb.reuse_ratio(), 0.0);
        for v in emb.network().graph().nodes() {
            assert_eq!(emb.network().deployed_load(v), 0.0);
        }
    }
}
