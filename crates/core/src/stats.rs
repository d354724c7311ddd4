//! Solution statistics: everything an operator would want to know about
//! an embedding at a glance, collected in one pass.

use crate::cost::{delivery_cost, segment_link_costs, CostBreakdown};
use crate::embedding::Embedding;
use crate::network::Network;
use crate::sft_tree::SftTree;
use crate::task::MulticastTask;
use crate::CoreError;

/// Aggregated statistics of one embedding.
#[derive(Clone, Debug)]
pub struct EmbeddingStats {
    /// Full cost breakdown.
    pub cost: CostBreakdown,
    /// Link cost per chain segment (`0..=k`).
    pub segment_link_costs: Vec<f64>,
    /// Distinct `(type, node)` instances in use.
    pub instances_used: usize,
    /// Of those, how many had to be newly placed.
    pub instances_new: usize,
    /// Physical hops of the longest source→destination walk.
    pub max_route_hops: usize,
    /// Mean physical hops across destinations.
    pub mean_route_hops: f64,
    /// Whether the logical structure branches (a true SFT, not a chain).
    pub is_branching: bool,
    /// Number of distinct instances per stage (index 0 unused).
    pub instances_per_stage: Vec<usize>,
}

impl EmbeddingStats {
    /// Collects statistics for an embedding.
    ///
    /// # Errors
    ///
    /// Propagates cost-model and tree-extraction errors for malformed
    /// embeddings.
    pub fn collect(
        network: &Network,
        task: &MulticastTask,
        embedding: &Embedding,
    ) -> Result<Self, CoreError> {
        let cost = delivery_cost(network, task, embedding)?;
        let segment_link_costs = segment_link_costs(network, task, embedding)?;
        let typed = embedding.typed_instances(task);
        let new = embedding.new_instances(network, task);
        let tree = SftTree::extract(task, embedding)?;

        let mut max_hops = 0usize;
        let mut total_hops = 0usize;
        for route in embedding.routes() {
            let hops: usize = route
                .segments()
                .iter()
                .map(|s| s.len().saturating_sub(1))
                .sum();
            max_hops = max_hops.max(hops);
            total_hops += hops;
        }
        let k = task.sfc().len();
        Ok(EmbeddingStats {
            cost,
            segment_link_costs,
            instances_used: typed.len(),
            instances_new: new.len(),
            max_route_hops: max_hops,
            mean_route_hops: total_hops as f64 / embedding.routes().len().max(1) as f64,
            is_branching: tree.is_branching(),
            instances_per_stage: (0..=k).map(|j| tree.instance_count(j)).collect(),
        })
    }

    /// Reuse ratio: fraction of used instances that were pre-deployed.
    pub fn reuse_ratio(&self) -> f64 {
        if self.instances_used == 0 {
            0.0
        } else {
            (self.instances_used - self.instances_new) as f64 / self.instances_used as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vnf::{Sfc, VnfCatalog, VnfId};
    use crate::{solve, SolveOptions};
    use sft_graph::{Graph, NodeId};

    fn fixture() -> (Network, MulticastTask) {
        let mut g = Graph::new(6);
        for i in 0..6 {
            g.add_edge(NodeId(i), NodeId((i + 1) % 6), 1.0 + i as f64 * 0.2)
                .unwrap();
        }
        let net = Network::builder(g, VnfCatalog::uniform(2))
            .all_servers(2.0)
            .unwrap()
            .deploy(VnfId(0), NodeId(2))
            .unwrap()
            .build()
            .unwrap();
        let task = MulticastTask::new(
            NodeId(0),
            vec![NodeId(3), NodeId(5)],
            Sfc::new(vec![VnfId(0), VnfId(1)]).unwrap(),
        )
        .unwrap();
        (net, task)
    }

    #[test]
    fn stats_are_internally_consistent() {
        let (net, task) = fixture();
        let r = solve(&net, &task, &SolveOptions::default()).unwrap();
        let s = EmbeddingStats::collect(&net, &task, &r.embedding).unwrap();
        // Cost agrees with the solve result.
        assert!((s.cost.total() - r.cost.total()).abs() < 1e-9);
        // Segment costs sum to the link total.
        let sum: f64 = s.segment_link_costs.iter().sum();
        assert!((sum - s.cost.link).abs() < 1e-9);
        assert_eq!(s.segment_link_costs.len(), task.sfc().len() + 1);
        // Instance accounting.
        assert!(s.instances_new <= s.instances_used);
        assert!(s.reuse_ratio() >= 0.0 && s.reuse_ratio() <= 1.0);
        // Hop accounting.
        assert!(s.mean_route_hops <= s.max_route_hops as f64 + 1e-9);
        assert!(s.max_route_hops >= 1);
        // Stage layering matches the chain length.
        assert_eq!(s.instances_per_stage.len(), task.sfc().len() + 1);
        assert_eq!(s.instances_per_stage[0], 0);
    }

    #[test]
    fn reuse_ratio_reflects_deployments() {
        let (net, task) = fixture();
        let r = solve(&net, &task, &SolveOptions::default()).unwrap();
        let s = EmbeddingStats::collect(&net, &task, &r.embedding).unwrap();
        // f0 is deployed on node 2; if the solver used it, reuse > 0.
        let used_deployed = r
            .embedding
            .typed_instances(&task)
            .iter()
            .any(|&(f, n)| net.is_deployed(f, n));
        assert_eq!(used_deployed, s.reuse_ratio() > 0.0);
    }
}
