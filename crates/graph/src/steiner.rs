//! Steiner-tree constructions.
//!
//! Stage 1 of the paper's two-stage algorithm "builds a Steiner tree to
//! cover [the last VNF node] and all destinations" (Algorithm 2, line 6) and
//! charges O(|D|·|V|²) for it, citing Kou–Markowsky–Berman (KMB, 1981). This
//! module implements:
//!
//! * [`Graph::steiner_kmb`] — the KMB `2·(1 − 1/|T|)`-approximation;
//! * [`Graph::steiner_takahashi`] — the Takahashi–Matsuyama path heuristic,
//!   used as an ablation of the paper's design choice;
//! * [`Graph::steiner_exact`] — exponential brute force over Steiner-node
//!   subsets, the test oracle for approximation-ratio assertions.

use crate::cancel::CancelToken;
use crate::provider::LazyDistances;
use crate::union_find::UnionFind;
use crate::{EdgeId, Graph, GraphError, NodeId};
use std::collections::BTreeSet;

/// A Steiner tree: edges of the host graph spanning all requested terminals.
#[derive(Clone, Debug, PartialEq)]
pub struct SteinerTree {
    /// Edges of the tree (no particular order).
    pub edges: Vec<EdgeId>,
    /// Total edge weight.
    pub cost: f64,
}

impl SteinerTree {
    /// The set of nodes touched by the tree's edges.
    pub fn node_set(&self, g: &Graph) -> BTreeSet<NodeId> {
        let mut s = BTreeSet::new();
        for id in &self.edges {
            let e = g.edge(*id);
            s.insert(e.u);
            s.insert(e.v);
        }
        s
    }

    /// Whether the edge set forms a tree (acyclic and connected over the
    /// touched nodes) that contains every terminal. A tree with no edges is
    /// valid only when at most one terminal is requested.
    pub fn is_valid(&self, g: &Graph, terminals: &[NodeId]) -> bool {
        let terms: BTreeSet<NodeId> = terminals.iter().copied().collect();
        if self.edges.is_empty() {
            return terms.len() <= 1;
        }
        let nodes = self.node_set(g);
        if !terms.iter().all(|t| nodes.contains(t)) {
            return false;
        }
        // Acyclic: every edge must join two distinct components.
        let mut uf = UnionFind::new(g.node_count());
        for id in &self.edges {
            let e = g.edge(*id);
            if !uf.union(e.u.0, e.v.0) {
                return false;
            }
        }
        // Connected over touched nodes: nodes - edges == 1 component.
        nodes.len() == self.edges.len() + 1
    }
}

impl Graph {
    /// Kou–Markowsky–Berman Steiner tree over `terminals`.
    ///
    /// Steps: (1) metric closure over the terminals via one Dijkstra per
    /// terminal; (2) MST of the closure; (3) expansion of MST edges into
    /// shortest paths; (4) MST of the expanded subgraph; (5) pruning of
    /// non-terminal leaves. Guarantees cost ≤ 2·(1 − 1/|T|)·OPT.
    ///
    /// ```
    /// use sft_graph::{Graph, NodeId};
    /// # fn main() -> Result<(), sft_graph::GraphError> {
    /// // A star: connecting the three leaves through the hub (node 3)
    /// // beats any pair of direct leaf-to-leaf shortcuts.
    /// let mut g = Graph::new(4);
    /// for leaf in 0..3 {
    ///     g.add_edge(NodeId(leaf), NodeId(3), 1.0)?;
    /// }
    /// let tree = g.steiner_kmb(&[NodeId(0), NodeId(1), NodeId(2)])?;
    /// assert_eq!(tree.cost, 3.0); // uses the non-terminal hub
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// * [`GraphError::EmptySelection`] if `terminals` is empty.
    /// * [`GraphError::NodeOutOfBounds`] for invalid terminals.
    /// * [`GraphError::Disconnected`] if the terminals do not share a
    ///   connected component.
    pub fn steiner_kmb(&self, terminals: &[NodeId]) -> Result<SteinerTree, GraphError> {
        let terms = self.check_terminals(terminals)?;
        if terms.len() <= 1 {
            return Ok(SteinerTree {
                edges: Vec::new(),
                cost: 0.0,
            });
        }

        // (1) Dijkstra from each terminal.
        let searches: Vec<_> = terms.iter().map(|&t| self.dijkstra(t)).collect();

        // (2) MST of the metric closure (Prim over the dense closure).
        let k = terms.len();
        let mut in_tree = vec![false; k];
        let mut best = vec![(f64::INFINITY, 0_usize); k]; // (dist, closure parent)
        in_tree[0] = true;
        for j in 1..k {
            let d = searches[0]
                .distance(terms[j])
                .ok_or(GraphError::Disconnected)?;
            best[j] = (d, 0);
        }
        let mut closure_edges: Vec<(usize, usize)> = Vec::with_capacity(k - 1);
        for _ in 1..k {
            let (j, _) = best
                .iter()
                .enumerate()
                .filter(|(j, _)| !in_tree[*j])
                .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
                .expect("at least one node outside the closure tree");
            if !best[j].0.is_finite() {
                return Err(GraphError::Disconnected);
            }
            in_tree[j] = true;
            closure_edges.push((best[j].1, j));
            for m in 0..k {
                if !in_tree[m] {
                    let d = searches[j]
                        .distance(terms[m])
                        .ok_or(GraphError::Disconnected)?;
                    if d < best[m].0 {
                        best[m] = (d, j);
                    }
                }
            }
        }

        // (3) Expand closure edges into shortest paths; collect edge set.
        let mut chosen: BTreeSet<EdgeId> = BTreeSet::new();
        for (a, b) in closure_edges {
            let path = searches[a]
                .path_to(terms[b])
                .ok_or(GraphError::Disconnected)?;
            for id in self.path_edges(&path)? {
                chosen.insert(id);
            }
        }

        // (4) MST of the expanded subgraph (Kruskal restricted to chosen).
        let mut order: Vec<EdgeId> = chosen.into_iter().collect();
        order.sort_by(|a, b| self.weight(*a).total_cmp(&self.weight(*b)));
        let mut uf = UnionFind::new(self.node_count());
        let mut tree_edges = Vec::new();
        for id in order {
            let e = self.edge(id);
            if uf.union(e.u.0, e.v.0) {
                tree_edges.push(id);
            }
        }

        // (5) Prune non-terminal leaves until fixpoint.
        let term_set: BTreeSet<NodeId> = terms.iter().copied().collect();
        prune_non_terminal_leaves(self, &mut tree_edges, &term_set);

        let cost = tree_edges.iter().map(|&e| self.weight(e)).sum();
        Ok(SteinerTree {
            edges: tree_edges,
            cost,
        })
    }

    /// KMB Steiner tree whose metric closure and path expansion read the
    /// memoized rows of `dist`, with an optional cancellation token polled
    /// inside any row computation. Produces the same approximation
    /// guarantee as [`Graph::steiner_kmb`]; much faster when many trees are
    /// built over the same graph (the paper's stage 1 builds one per
    /// candidate last-VNF node).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Graph::steiner_kmb`], plus
    /// [`GraphError::Cancelled`] when `cancel` trips mid-construction. The
    /// engine must belong to this graph (same node count), otherwise
    /// [`GraphError::NodeOutOfBounds`] is returned.
    pub fn steiner_kmb_with_provider(
        &self,
        dist: &LazyDistances,
        terminals: &[NodeId],
        cancel: Option<&CancelToken>,
    ) -> Result<SteinerTree, GraphError> {
        if dist.node_count() != self.node_count() {
            return Err(GraphError::NodeOutOfBounds {
                node: dist.node_count(),
                len: self.node_count(),
            });
        }
        let terms = self.check_terminals(terminals)?;
        if terms.len() <= 1 {
            return Ok(SteinerTree {
                edges: Vec::new(),
                cost: 0.0,
            });
        }

        // MST of the metric closure (Prim over the dense closure).
        let k = terms.len();
        let mut in_tree = vec![false; k];
        let mut best = vec![(f64::INFINITY, 0_usize); k];
        in_tree[0] = true;
        for j in 1..k {
            let d = dist
                .try_distance(terms[0], terms[j], cancel)?
                .ok_or(GraphError::Disconnected)?;
            best[j] = (d, 0);
        }
        let mut closure_edges: Vec<(usize, usize)> = Vec::with_capacity(k - 1);
        for _ in 1..k {
            let (j, _) = best
                .iter()
                .enumerate()
                .filter(|(j, _)| !in_tree[*j])
                .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
                .expect("at least one node outside the closure tree");
            if !best[j].0.is_finite() {
                return Err(GraphError::Disconnected);
            }
            in_tree[j] = true;
            closure_edges.push((best[j].1, j));
            for m in 0..k {
                if !in_tree[m] {
                    let d = dist
                        .try_distance(terms[j], terms[m], cancel)?
                        .ok_or(GraphError::Disconnected)?;
                    if d < best[m].0 {
                        best[m] = (d, j);
                    }
                }
            }
        }

        // Expand closure edges into the engine's shortest paths.
        let mut chosen: BTreeSet<EdgeId> = BTreeSet::new();
        for (a, b) in closure_edges {
            let path = dist
                .try_path(terms[a], terms[b], cancel)?
                .ok_or(GraphError::Disconnected)?;
            for id in self.path_edges(&path)? {
                chosen.insert(id);
            }
        }

        // MST of the expansion, then prune.
        let mut order: Vec<EdgeId> = chosen.into_iter().collect();
        order.sort_by(|a, b| self.weight(*a).total_cmp(&self.weight(*b)));
        let mut uf = UnionFind::new(self.node_count());
        let mut tree_edges = Vec::new();
        for id in order {
            let e = self.edge(id);
            if uf.union(e.u.0, e.v.0) {
                tree_edges.push(id);
            }
        }
        let term_set: BTreeSet<NodeId> = terms.iter().copied().collect();
        prune_non_terminal_leaves(self, &mut tree_edges, &term_set);
        let cost = tree_edges.iter().map(|&e| self.weight(e)).sum();
        Ok(SteinerTree {
            edges: tree_edges,
            cost,
        })
    }

    /// Takahashi–Matsuyama Steiner heuristic: grow a tree from the first
    /// terminal, repeatedly attaching the terminal nearest to the current
    /// tree along a shortest path. Same 2-approximation class as KMB; kept
    /// as an ablation of the paper's stage-1 design choice.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Graph::steiner_kmb`].
    pub fn steiner_takahashi(&self, terminals: &[NodeId]) -> Result<SteinerTree, GraphError> {
        let terms = self.check_terminals(terminals)?;
        if terms.len() <= 1 {
            return Ok(SteinerTree {
                edges: Vec::new(),
                cost: 0.0,
            });
        }
        let mut tree_nodes: BTreeSet<NodeId> = BTreeSet::new();
        tree_nodes.insert(terms[0]);
        let mut tree_edges: BTreeSet<EdgeId> = BTreeSet::new();
        let mut remaining: BTreeSet<NodeId> = terms[1..].iter().copied().collect();
        remaining.remove(&terms[0]);

        while !remaining.is_empty() {
            // Multi-source Dijkstra from the current tree.
            let sp = crate::dijkstra::dijkstra_core(
                self.node_count() + 1,
                NodeId(self.node_count()),
                None,
                |u, visit| {
                    if u.0 == self.node_count() {
                        // Virtual super-source connected to the tree free.
                        for &t in &tree_nodes {
                            visit(t, 0.0);
                        }
                    } else {
                        for (v, e) in self.neighbors(u) {
                            visit(v, self.weight(e));
                        }
                    }
                },
            );
            let (&next, _) = remaining
                .iter()
                .filter_map(|t| sp.distance(*t).map(|d| (t, d)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .ok_or(GraphError::Disconnected)?;
            let mut path = sp.path_to(next).ok_or(GraphError::Disconnected)?;
            path.remove(0); // drop the virtual super-source
            for id in self.path_edges(&path)? {
                tree_edges.insert(id);
            }
            for n in path {
                tree_nodes.insert(n);
                remaining.remove(&n);
            }
        }

        // The union of shortest paths may contain cycles; extract an MST and
        // prune, as in KMB steps 4-5.
        let mut order: Vec<EdgeId> = tree_edges.into_iter().collect();
        order.sort_by(|a, b| self.weight(*a).total_cmp(&self.weight(*b)));
        let mut uf = UnionFind::new(self.node_count());
        let mut edges = Vec::new();
        for id in order {
            let e = self.edge(id);
            if uf.union(e.u.0, e.v.0) {
                edges.push(id);
            }
        }
        let term_set: BTreeSet<NodeId> = terms.iter().copied().collect();
        prune_non_terminal_leaves(self, &mut edges, &term_set);
        let cost = edges.iter().map(|&e| self.weight(e)).sum();
        Ok(SteinerTree { edges, cost })
    }

    /// Exact minimum Steiner tree by brute force over subsets of candidate
    /// Steiner nodes. A test oracle only: exponential in
    /// `node_count() - terminals.len()`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Graph::steiner_kmb`], plus
    /// [`GraphError::EmptySelection`] if more than 25 non-terminal nodes
    /// would make the enumeration intractable.
    pub fn steiner_exact(&self, terminals: &[NodeId]) -> Result<SteinerTree, GraphError> {
        let terms = self.check_terminals(terminals)?;
        if terms.len() <= 1 {
            return Ok(SteinerTree {
                edges: Vec::new(),
                cost: 0.0,
            });
        }
        let term_set: BTreeSet<NodeId> = terms.iter().copied().collect();
        let optional: Vec<NodeId> = self.nodes().filter(|n| !term_set.contains(n)).collect();
        if optional.len() > 25 {
            return Err(GraphError::EmptySelection);
        }
        let mut best: Option<SteinerTree> = None;
        for mask in 0_u64..(1 << optional.len()) {
            let mut allowed = vec![false; self.node_count()];
            for &t in &terms {
                allowed[t.0] = true;
            }
            for (i, n) in optional.iter().enumerate() {
                if mask >> i & 1 == 1 {
                    allowed[n.0] = true;
                }
            }
            if let Some(tree) = self.mst_over_allowed(&allowed, &terms) {
                if best.as_ref().is_none_or(|b| tree.cost < b.cost) {
                    best = Some(tree);
                }
            }
        }
        let mut tree = best.ok_or(GraphError::Disconnected)?;
        // An optimal solution never keeps a non-terminal leaf, but MSTs over
        // supersets may; prune for canonical output.
        prune_non_terminal_leaves(self, &mut tree.edges, &term_set);
        tree.cost = tree.edges.iter().map(|&e| self.weight(e)).sum();
        Ok(tree)
    }

    /// Kruskal over the subgraph induced by `allowed`, returning a tree only
    /// if it connects all terminals into one component.
    fn mst_over_allowed(&self, allowed: &[bool], terms: &[NodeId]) -> Option<SteinerTree> {
        let mut order: Vec<EdgeId> = self
            .edge_ids()
            .filter(|&id| {
                let e = self.edge(id);
                allowed[e.u.0] && allowed[e.v.0]
            })
            .collect();
        order.sort_by(|a, b| self.weight(*a).total_cmp(&self.weight(*b)));
        let mut uf = UnionFind::new(self.node_count());
        let mut edges = Vec::new();
        let mut cost = 0.0;
        for id in order {
            let e = self.edge(id);
            if uf.union(e.u.0, e.v.0) {
                edges.push(id);
                cost += e.weight;
            }
        }
        let root = uf.find(terms[0].0);
        // All allowed nodes must be in the terminals' component, otherwise
        // the MST forest includes junk trees whose weight is not comparable.
        for (i, &a) in allowed.iter().enumerate() {
            if a && uf.find(i) != root {
                return None;
            }
        }
        Some(SteinerTree { edges, cost })
    }

    fn check_terminals(&self, terminals: &[NodeId]) -> Result<Vec<NodeId>, GraphError> {
        if terminals.is_empty() {
            return Err(GraphError::EmptySelection);
        }
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for &t in terminals {
            if t.0 >= self.node_count() {
                return Err(GraphError::NodeOutOfBounds {
                    node: t.0,
                    len: self.node_count(),
                });
            }
            if seen.insert(t) {
                out.push(t);
            }
        }
        Ok(out)
    }
}

/// Repeatedly removes edges whose endpoint is a non-terminal leaf.
fn prune_non_terminal_leaves(g: &Graph, edges: &mut Vec<EdgeId>, terminals: &BTreeSet<NodeId>) {
    loop {
        let mut degree = vec![0_usize; g.node_count()];
        for &id in edges.iter() {
            let e = g.edge(id);
            degree[e.u.0] += 1;
            degree[e.v.0] += 1;
        }
        let before = edges.len();
        edges.retain(|&id| {
            let e = g.edge(id);
            let u_leaf = degree[e.u.0] == 1 && !terminals.contains(&e.u);
            let v_leaf = degree[e.v.0] == 1 && !terminals.contains(&e.v);
            !(u_leaf || v_leaf)
        });
        if edges.len() == before {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic KMB counterexample shape: a hub whose spokes beat the
    /// terminal-to-terminal shortcuts.
    fn star_with_shortcuts() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new(4);
        // Node 3 is the hub; 0,1,2 are terminals.
        g.add_edge(NodeId(0), NodeId(3), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(3), 1.0).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 1.0).unwrap();
        g.add_edge(NodeId(0), NodeId(1), 1.9).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 1.9).unwrap();
        (g, vec![NodeId(0), NodeId(1), NodeId(2)])
    }

    #[test]
    fn kmb_uses_steiner_node_when_beneficial() {
        let (g, terms) = star_with_shortcuts();
        let t = g.steiner_kmb(&terms).unwrap();
        assert!(t.is_valid(&g, &terms));
        // Optimal is the star through the hub: cost 3.0. KMB may return the
        // 3.8 shortcut tree (its approximation gap) but never exceeds 2x OPT.
        let opt = g.steiner_exact(&terms).unwrap();
        assert!((opt.cost - 3.0).abs() < 1e-12);
        assert!(t.cost <= 2.0 * opt.cost + 1e-12);
    }

    #[test]
    fn exact_beats_or_ties_heuristics_on_grid() {
        let g = grid(3, 3, |i| 1.0 + (i as f64) * 0.1);
        let terms = vec![NodeId(0), NodeId(2), NodeId(6), NodeId(8)];
        let opt = g.steiner_exact(&terms).unwrap();
        let kmb = g.steiner_kmb(&terms).unwrap();
        let tm = g.steiner_takahashi(&terms).unwrap();
        assert!(opt.is_valid(&g, &terms));
        assert!(kmb.is_valid(&g, &terms));
        assert!(tm.is_valid(&g, &terms));
        assert!(opt.cost <= kmb.cost + 1e-12);
        assert!(opt.cost <= tm.cost + 1e-12);
        assert!(kmb.cost <= 2.0 * opt.cost + 1e-12);
        assert!(tm.cost <= 2.0 * opt.cost + 1e-12);
    }

    /// Builds an r x c grid graph with weights from `w(edge_index)`.
    fn grid(r: usize, c: usize, w: impl Fn(usize) -> f64) -> Graph {
        let mut g = Graph::new(r * c);
        let mut i = 0;
        for y in 0..r {
            for x in 0..c {
                let n = y * c + x;
                if x + 1 < c {
                    g.add_edge(NodeId(n), NodeId(n + 1), w(i)).unwrap();
                    i += 1;
                }
                if y + 1 < r {
                    g.add_edge(NodeId(n), NodeId(n + c), w(i)).unwrap();
                    i += 1;
                }
            }
        }
        g
    }

    #[test]
    fn two_terminals_reduce_to_shortest_path() {
        let g = grid(3, 3, |_| 1.0);
        let terms = vec![NodeId(0), NodeId(8)];
        let t = g.steiner_kmb(&terms).unwrap();
        assert!((t.cost - 4.0).abs() < 1e-12);
        assert_eq!(t.edges.len(), 4);
        let sp = g.dijkstra(NodeId(0));
        assert_eq!(t.cost, sp.distance(NodeId(8)).unwrap());
    }

    #[test]
    fn single_terminal_yields_empty_tree() {
        let (g, _) = star_with_shortcuts();
        for f in [
            Graph::steiner_kmb,
            Graph::steiner_takahashi,
            Graph::steiner_exact,
        ] {
            let t = f(&g, &[NodeId(2)]).unwrap();
            assert!(t.edges.is_empty());
            assert_eq!(t.cost, 0.0);
            assert!(t.is_valid(&g, &[NodeId(2)]));
        }
    }

    #[test]
    fn duplicate_terminals_are_deduplicated() {
        let (g, _) = star_with_shortcuts();
        let t = g
            .steiner_kmb(&[NodeId(0), NodeId(0), NodeId(1), NodeId(1)])
            .unwrap();
        let direct = g.steiner_kmb(&[NodeId(0), NodeId(1)]).unwrap();
        assert!((t.cost - direct.cost).abs() < 1e-12);
    }

    #[test]
    fn errors_on_empty_invalid_or_disconnected_terminals() {
        let (g, _) = star_with_shortcuts();
        assert_eq!(g.steiner_kmb(&[]), Err(GraphError::EmptySelection));
        assert!(matches!(
            g.steiner_kmb(&[NodeId(42)]),
            Err(GraphError::NodeOutOfBounds { .. })
        ));
        let mut h = Graph::new(4);
        h.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        h.add_edge(NodeId(2), NodeId(3), 1.0).unwrap();
        assert_eq!(
            h.steiner_kmb(&[NodeId(0), NodeId(3)]),
            Err(GraphError::Disconnected)
        );
        assert_eq!(
            h.steiner_takahashi(&[NodeId(0), NodeId(3)]),
            Err(GraphError::Disconnected)
        );
        assert_eq!(
            h.steiner_exact(&[NodeId(0), NodeId(3)]),
            Err(GraphError::Disconnected)
        );
    }

    #[test]
    fn all_terminals_reduces_to_mst() {
        let g = grid(2, 3, |i| (i + 1) as f64);
        let terms: Vec<NodeId> = g.nodes().collect();
        let t = g.steiner_kmb(&terms).unwrap();
        let mst = g.minimum_spanning_tree().unwrap();
        assert!((t.cost - mst.weight).abs() < 1e-12);
    }

    #[test]
    fn pruning_removes_dangling_non_terminals() {
        // Path 0-1-2 plus a dangling spur 1-3; terminals 0 and 2.
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(3), 0.5).unwrap();
        let terms = vec![NodeId(0), NodeId(2)];
        for f in [
            Graph::steiner_kmb,
            Graph::steiner_takahashi,
            Graph::steiner_exact,
        ] {
            let t = f(&g, &terms).unwrap();
            assert!(!t.node_set(&g).contains(&NodeId(3)), "spur not pruned");
            assert!((t.cost - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn provider_kmb_stays_within_the_kmb_bound() {
        let g = grid(4, 4, |i| 1.0 + ((i * 7) % 5) as f64 * 0.3);
        let dist = LazyDistances::new(&g);
        for terms in [
            vec![NodeId(0), NodeId(15)],
            vec![NodeId(0), NodeId(3), NodeId(12), NodeId(15)],
            vec![NodeId(5), NodeId(6), NodeId(9), NodeId(10), NodeId(0)],
        ] {
            let a = g.steiner_kmb(&terms).unwrap();
            let b = g.steiner_kmb_with_provider(&dist, &terms, None).unwrap();
            assert!(b.is_valid(&g, &terms));
            // Tie-breaking may differ; both must be within the KMB bound
            // of the optimum.
            let opt = g.steiner_exact(&terms).unwrap();
            assert!(a.cost <= 2.0 * opt.cost + 1e-9);
            assert!(b.cost <= 2.0 * opt.cost + 1e-9);
        }
    }

    #[test]
    fn provider_kmb_propagates_cancellation() {
        let g = grid(4, 4, |_| 1.0);
        let lazy = LazyDistances::new(&g);
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            g.steiner_kmb_with_provider(&lazy, &[NodeId(0), NodeId(15)], Some(&token)),
            Err(GraphError::Cancelled)
        );
    }

    #[test]
    fn provider_kmb_rejects_a_foreign_engine() {
        let g = grid(2, 2, |_| 1.0);
        let other = LazyDistances::new(&grid(3, 3, |_| 1.0));
        assert!(matches!(
            g.steiner_kmb_with_provider(&other, &[NodeId(0), NodeId(3)], None),
            Err(GraphError::NodeOutOfBounds { .. })
        ));
    }

    #[test]
    fn takahashi_matches_exact_on_star() {
        let (g, terms) = star_with_shortcuts();
        let tm = g.steiner_takahashi(&terms).unwrap();
        assert!(tm.is_valid(&g, &terms));
        assert!(tm.cost <= 2.0 * 3.0 + 1e-12);
    }

    #[test]
    fn is_valid_rejects_cyclic_or_non_spanning_edge_sets() {
        let (g, terms) = star_with_shortcuts();
        // Cycle 0-3, 1-3, 0-1.
        let cyc = SteinerTree {
            edges: vec![
                g.find_edge(NodeId(0), NodeId(3)).unwrap(),
                g.find_edge(NodeId(1), NodeId(3)).unwrap(),
                g.find_edge(NodeId(0), NodeId(1)).unwrap(),
            ],
            cost: 0.0,
        };
        assert!(!cyc.is_valid(&g, &terms));
        // Missing terminal 2.
        let partial = SteinerTree {
            edges: vec![g.find_edge(NodeId(0), NodeId(1)).unwrap()],
            cost: 0.0,
        };
        assert!(!partial.is_valid(&g, &terms));
    }
}
