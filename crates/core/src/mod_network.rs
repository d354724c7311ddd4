//! The multilevel overlay directed (MOD) network — paper §IV-A.
//!
//! Algorithm 1 transforms the target network plus an SFC of length `k` into
//! a `k`-column layered directed graph: each column corresponds to one
//! chain stage, each row to one server node. Node weights carry VNF setup
//! costs (zero for pre-deployed instances, §IV-D) and inter-column arc
//! weights carry shortest-path costs of the physical network.
//!
//! For shortest-path search, the MOD network is *expanded* (paper Fig. 4):
//! every overlay node splits into an in-half and an out-half joined by a
//! virtual arc weighted with the setup cost, turning node weights into arc
//! weights. Theorem 2: Dijkstra from the source over the expanded MOD
//! network yields the cost-optimal single-chain embedding ending at any
//! chosen last-column node, assuming sufficient capacities.
//!
//! The expanded network is a layered DAG, so [`ExpandedMod`] never builds
//! it: one column-by-column relaxation over the server-to-server
//! distances yields the same shortest paths, with Dijkstra's tie-breaking
//! reproduced exactly (the layered-graph view of SFC-constrained shortest
//! paths).

use crate::network::Network;
use crate::vnf::Sfc;
use crate::CoreError;
use sft_graph::NodeId;

/// The plain (node-weighted) MOD network of paper Fig. 3 — mostly useful
/// for inspection and tests; the algorithms use [`ExpandedMod`].
#[derive(Clone, Debug)]
pub struct ModNetwork {
    servers: Vec<NodeId>,
    k: usize,
    /// `weights[j][row]` = setup cost of stage `j+1`'s VNF on `servers[row]`
    /// (zero when pre-deployed).
    weights: Vec<Vec<f64>>,
}

impl ModNetwork {
    /// Builds the MOD network for a chain over a target network
    /// (paper Algorithm 1).
    ///
    /// # Errors
    ///
    /// * [`CoreError::VnfOutOfBounds`] if the chain references unknown
    ///   types.
    /// * [`CoreError::Infeasible`] if the network has no server nodes.
    pub fn build(network: &Network, sfc: &Sfc) -> Result<Self, CoreError> {
        for (_, f) in sfc.iter() {
            network.catalog().check(f)?;
        }
        let servers = network.server_list().to_vec();
        if servers.is_empty() {
            return Err(CoreError::Infeasible {
                reason: "network has no server nodes".into(),
            });
        }
        let weights = sfc
            .iter()
            .map(|(_, f)| {
                servers
                    .iter()
                    .map(|&s| network.effective_setup_cost(f, s))
                    .collect()
            })
            .collect();
        Ok(ModNetwork {
            servers,
            k: sfc.len(),
            weights,
        })
    }

    /// Number of columns (= chain length `k`).
    pub fn columns(&self) -> usize {
        self.k
    }

    /// The server nodes forming the rows, in index order.
    pub fn servers(&self) -> &[NodeId] {
        &self.servers
    }

    /// Node weight of column `j` (0-based), row `row`: the effective setup
    /// cost of the stage-`j+1` VNF on that server.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn node_weight(&self, j: usize, row: usize) -> f64 {
        self.weights[j][row]
    }
}

/// The expanded MOD network (paper Fig. 4), solved: the cheapest chain
/// prefix ending at every overlay node, read off by [`placement_for`].
///
/// The expanded network is a layered DAG (source → column 0 → … →
/// column `k-1`), so its single-source shortest paths need no graph and
/// no heap: one relaxation per column over the server-to-server
/// distances gives exactly what Dijkstra would (see [`ExpandedMod::build`]
/// for the tie rule that keeps the two identical).
///
/// [`placement_for`]: ExpandedMod::placement_for
#[derive(Clone, Debug)]
pub struct ExpandedMod {
    servers: Vec<NodeId>,
    k: usize,
    /// `cost[row]`: cheapest chain whose last stage sits on
    /// `servers[row]` (the last column's out-half), `INFINITY` when none.
    cost: Vec<f64>,
    /// `pred[(j - 1) * |S| + row]`, for `j ≥ 1`: the row hosting stage
    /// `j` on the cheapest chain whose stage `j + 1` sits on `row`.
    pred: Vec<usize>,
}

impl ExpandedMod {
    /// Prices every chain prefix from the task source: the shortest paths
    /// of Theorem 2's Dijkstra over the expanded MOD network.
    ///
    /// The expanded network's arcs are:
    /// * source → `in(0, s)` weighted by the physical shortest-path cost
    ///   from the source to server `s`;
    /// * `in(j, s)` → `out(j, s)` weighted by the effective setup cost of
    ///   stage `j+1` on `s`;
    /// * `out(j, s)` → `in(j+1, s')` weighted by the physical shortest-path
    ///   cost `s → s'` (zero when `s = s'`, i.e. consecutive VNFs
    ///   co-located); unreachable pairs have no arc.
    ///
    /// Every arc points into the next layer, so the shortest paths come
    /// from relaxing column `j` into column `j+1` in row order. Overlay
    /// ids grow along every arc, which makes Dijkstra settle nodes in
    /// (distance, id) order; its predecessor for `in(j+1, b)` is therefore
    /// the first out-half of column `j` it pops among those reaching the
    /// minimum `cost_out(j, a) + d(a, b)`: the smallest `cost_out(j, a)`,
    /// then the lowest row. The relaxation applies that rule with the same
    /// f64 additions, so placements and costs are bit-identical to the
    /// heap search over the materialized overlay.
    ///
    /// The `|S|×|S|` server distance block comes from a per-network memo
    /// that the first multi-stage solve on a network (or any of its clones)
    /// fills; a one-stage chain never reads it, so the distance engine
    /// materializes only the source's row.
    ///
    /// # Errors
    ///
    /// * [`CoreError::NodeOutOfBounds`] for an invalid source.
    /// * [`CoreError::VnfOutOfBounds`] for unknown chain types.
    /// * [`CoreError::Infeasible`] if the network has no servers.
    pub fn build(network: &Network, source: NodeId, sfc: &Sfc) -> Result<Self, CoreError> {
        network.check_node(source)?;
        let ModNetwork {
            servers,
            k,
            weights,
        } = ModNetwork::build(network, sfc)?;
        let ns = servers.len();
        let dist = network.dist();

        // Column 0's in-halves: the source's settled 0.0 plus its arc.
        let mut cost: Vec<f64> = servers
            .iter()
            .map(|&s| 0.0 + dist.distance(source, s).unwrap_or(f64::INFINITY))
            .collect();
        let block: &[f64] = if k > 1 { network.server_block() } else { &[] };
        let mut pred = vec![usize::MAX; (k - 1) * ns];
        let mut next = vec![f64::INFINITY; ns];
        for (j, column) in weights.iter().enumerate() {
            // in(j, ·) → out(j, ·): the setup arc.
            for (c, &w) in cost.iter_mut().zip(column) {
                *c += w;
            }
            if j + 1 == k {
                break;
            }
            let pred_j = &mut pred[j * ns..(j + 1) * ns];
            next.fill(f64::INFINITY);
            for (a, &base) in cost.iter().enumerate() {
                if base == f64::INFINITY {
                    continue; // never settled, so it relaxes nothing
                }
                for (b, &d) in block[a * ns..(a + 1) * ns].iter().enumerate() {
                    let cand = base + d;
                    if cand < next[b]
                        || (cand == next[b] && cand < f64::INFINITY && base < cost[pred_j[b]])
                    {
                        next[b] = cand;
                        pred_j[b] = a;
                    }
                }
            }
            std::mem::swap(&mut cost, &mut next);
        }

        Ok(ExpandedMod {
            servers,
            k,
            cost,
            pred,
        })
    }

    /// The server nodes forming the rows, in index order.
    pub fn servers(&self) -> &[NodeId] {
        &self.servers
    }

    /// Number of columns (= chain length).
    pub fn columns(&self) -> usize {
        self.k
    }

    /// Decodes the optimal chain placement ending at last-column row
    /// `row`: the physical server hosting each chain stage, plus the
    /// overlay cost (setup + inter-stage link cost). Returns `None` when
    /// that row is unreachable.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn placement_for(&self, row: usize) -> Option<(Vec<NodeId>, f64)> {
        let cost = self.cost[row];
        if !cost.is_finite() {
            return None;
        }
        let ns = self.servers.len();
        let mut placement = vec![self.servers[row]; self.k];
        let mut r = row;
        for j in (1..self.k).rev() {
            r = self.pred[(j - 1) * ns + r];
            placement[j - 1] = self.servers[r];
        }
        Some((placement, cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use crate::vnf::{VnfCatalog, VnfId};
    use sft_graph::Graph;

    /// The 4-node example of paper Fig. 3: nodes A,B,C,D with the
    /// deployment-cost matrix of Equation (2).
    fn fig3_network() -> Network {
        let mut g = Graph::new(4);
        // Edges/weights chosen to make every pair reachable.
        g.add_edge(NodeId(0), NodeId(1), 2.0).unwrap(); // A-B
        g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap(); // B-C
        g.add_edge(NodeId(2), NodeId(3), 2.0).unwrap(); // C-D
        g.add_edge(NodeId(0), NodeId(3), 4.0).unwrap(); // A-D
        let costs = [
            // f1, f2, f3, f4 per node A,B,C,D (paper Equation 2)
            [1.0, 4.0, 3.0, 4.0],
            [2.0, 4.0, 4.0, 3.0],
            [3.0, 3.0, 3.0, 2.0],
            [2.0, 3.0, 2.0, 3.0],
        ];
        let mut b = Network::builder(g, VnfCatalog::uniform(4))
            .all_servers(4.0)
            .unwrap();
        for (node, row) in costs.iter().enumerate() {
            for (f, &c) in row.iter().enumerate() {
                b = b.setup_cost(VnfId(f), NodeId(node), c).unwrap();
            }
        }
        b.build().unwrap()
    }

    fn chain4() -> Sfc {
        Sfc::new(vec![VnfId(0), VnfId(1), VnfId(2), VnfId(3)]).unwrap()
    }

    #[test]
    fn mod_network_has_k_columns_and_matrix_weights() {
        let net = fig3_network();
        let m = ModNetwork::build(&net, &chain4()).unwrap();
        assert_eq!(m.columns(), 4);
        assert_eq!(m.servers().len(), 4);
        // Column 0 = f1 on A..D: 1, 2, 3, 2 (matrix column f1).
        assert_eq!(m.node_weight(0, 0), 1.0);
        assert_eq!(m.node_weight(0, 1), 2.0);
        assert_eq!(m.node_weight(0, 2), 3.0);
        assert_eq!(m.node_weight(0, 3), 2.0);
        // Column 3 = f4: 4, 3, 2, 3.
        assert_eq!(m.node_weight(3, 0), 4.0);
        assert_eq!(m.node_weight(3, 2), 2.0);
    }

    #[test]
    fn deployment_zeroes_mod_weights() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        let net = Network::builder(g, VnfCatalog::uniform(2))
            .all_servers(2.0)
            .unwrap()
            .uniform_setup_cost(7.0)
            .unwrap()
            .deploy(VnfId(1), NodeId(0))
            .unwrap()
            .build()
            .unwrap();
        let sfc = Sfc::new(vec![VnfId(0), VnfId(1)]).unwrap();
        let m = ModNetwork::build(&net, &sfc).unwrap();
        assert_eq!(m.node_weight(0, 0), 7.0);
        assert_eq!(m.node_weight(1, 0), 0.0); // f1 deployed on node 0
        assert_eq!(m.node_weight(1, 1), 7.0);
    }

    #[test]
    fn ties_break_toward_the_cheaper_predecessor_like_dijkstra() {
        // Source 3 reaches servers 0 and 1 at cost 1 each; stage 1 costs 3
        // on node 0 and 1 on node 1, so their out-halves settle at 4 and 2.
        // Both then reach node 2 at 5 (4 + 1 and 2 + 3): Dijkstra pops
        // out(0, 1) first and keeps it, although row 0 is lower.
        let mut g = Graph::new(4);
        g.add_edge(NodeId(3), NodeId(0), 1.0).unwrap();
        g.add_edge(NodeId(3), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 3.0).unwrap();
        let net = Network::builder(g, VnfCatalog::uniform(2))
            .all_servers(4.0)
            .unwrap()
            .uniform_setup_cost(10.0)
            .unwrap()
            .setup_cost(VnfId(0), NodeId(0), 3.0)
            .unwrap()
            .setup_cost(VnfId(0), NodeId(1), 1.0)
            .unwrap()
            .setup_cost(VnfId(1), NodeId(2), 1.0)
            .unwrap()
            .build()
            .unwrap();
        let sfc = Sfc::new(vec![VnfId(0), VnfId(1)]).unwrap();
        let e = ExpandedMod::build(&net, NodeId(3), &sfc).unwrap();
        let (placement, cost) = e.placement_for(2).unwrap();
        assert_eq!(placement, vec![NodeId(1), NodeId(2)]);
        assert_eq!(cost, 6.0);
    }

    #[test]
    fn dijkstra_finds_the_optimal_chain_by_brute_force() {
        let net = fig3_network();
        let sfc = chain4();
        let e = ExpandedMod::build(&net, NodeId(0), &sfc).unwrap();

        // Brute force over all 4^4 placements for each last node.
        let dist = net.dist();
        let servers: Vec<NodeId> = net.servers().collect();
        for (row, &t) in servers.iter().enumerate() {
            let mut best = f64::INFINITY;
            for a in 0..4_usize {
                for b in 0..4_usize {
                    for c in 0..4_usize {
                        let placement = [servers[a], servers[b], servers[c], t];
                        let mut cost = dist.distance(NodeId(0), placement[0]).unwrap();
                        for w in placement.windows(2) {
                            cost += dist.distance(w[0], w[1]).unwrap();
                        }
                        for (j, &n) in placement.iter().enumerate() {
                            cost += net.effective_setup_cost(sfc.stage(j + 1), n);
                        }
                        best = best.min(cost);
                    }
                }
            }
            let (placement, cost) = e.placement_for(row).unwrap();
            assert!((cost - best).abs() < 1e-9, "row {row}: {cost} vs {best}");
            assert_eq!(placement.len(), 4);
            assert_eq!(placement[3], t);
        }
    }

    #[test]
    fn placement_decode_tracks_path_columns() {
        let net = fig3_network();
        let sfc = chain4();
        let e = ExpandedMod::build(&net, NodeId(1), &sfc).unwrap();
        let (placement, cost) = e.placement_for(2).unwrap();
        assert_eq!(placement.len(), 4);
        assert_eq!(placement[3], NodeId(2));
        assert!(cost.is_finite());
    }

    #[test]
    fn empty_server_set_is_infeasible() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        let net = Network::builder(g, VnfCatalog::uniform(1)).build().unwrap();
        assert!(matches!(
            ModNetwork::build(&net, &Sfc::new(vec![VnfId(0)]).unwrap()),
            Err(CoreError::Infeasible { .. })
        ));
    }

    #[test]
    fn single_stage_chain_places_on_one_column() {
        let net = fig3_network();
        let sfc = Sfc::new(vec![VnfId(0)]).unwrap();
        let e = ExpandedMod::build(&net, NodeId(0), &sfc).unwrap();
        assert_eq!(e.columns(), 1);
        // Optimal single-stage placement on A: 0 (distance) + 1 (setup).
        let (p, c) = e.placement_for(0).unwrap();
        assert_eq!(p, vec![NodeId(0)]);
        assert!((c - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lazy_rows_materialize_only_as_the_chain_needs() {
        let mut g = Graph::new(6);
        for i in 0..6 {
            g.add_edge(NodeId(i), NodeId((i + 1) % 6), 1.0).unwrap();
        }
        let net = Network::builder(g, VnfCatalog::uniform(2))
            .all_servers(2.0)
            .unwrap()
            .build()
            .unwrap();
        // One stage needs only the source's row; two need every server's.
        ExpandedMod::build(&net, NodeId(0), &Sfc::new(vec![VnfId(0)]).unwrap()).unwrap();
        assert_eq!(net.dist().rows_materialized(), 1);
        let sfc = Sfc::new(vec![VnfId(0), VnfId(1)]).unwrap();
        ExpandedMod::build(&net, NodeId(0), &sfc).unwrap();
        assert_eq!(net.dist().rows_materialized(), 6);
    }
}
