//! Steiner-tree constructions.
//!
//! Stage 1 of the paper's two-stage algorithm "builds a Steiner tree to
//! cover [the last VNF node] and all destinations" (Algorithm 2, line 6) and
//! charges O(|D|·|V|²) for it, citing Kou–Markowsky–Berman (KMB, 1981). This
//! module implements:
//!
//! * [`Graph::steiner_kmb_with_provider`] — the KMB
//!   `2·(1 − 1/|T|)`-approximation over the distance engine's memoized
//!   rows, and [`KmbSweep`], the same construction for many roots over one
//!   destination set (MSA's stage 1 builds one tree per candidate row);
//! * [`Graph::steiner_takahashi`] — the Takahashi–Matsuyama path heuristic,
//!   used as an ablation of the paper's design choice;
//! * [`Graph::steiner_exact`] — exponential brute force over Steiner-node
//!   subsets, the test oracle for approximation-ratio assertions.
//!
//! The final steps of KMB and Takahashi–Matsuyama — the MST of the
//! expanded paths and the pruning of non-terminal leaves — run on local
//! indices of the expanded nodes, so a tree costs memory in the size of
//! its expansion, not of the graph.

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

    fn empty() -> SteinerTree {
        SteinerTree {
            edges: Vec::new(),
            cost: 0.0,
        }
    }
}

/// KMB trees for many roots over one destination set, each bit-identical
/// to [`Graph::steiner_kmb_with_provider`] on `[root, destinations…]`.
///
/// MSA's stage 1 builds one tree per candidate last-VNF node, always over
/// the task's destinations. Part of KMB does not depend on the root: the
/// metric-closure distances between destinations (each read off the row of
/// the destination it starts from, in whichever direction Prim reads it)
/// and the shortest paths that expand closure edges between destinations.
/// The sweep reads each of those once, on first use, and serves every later
/// root from its copy; it therefore reads no row a fresh build would not,
/// and never reads one before a build needs it.
///
/// Each build runs, for `T = {root} ∪ D`: (1) Prim's MST over the metric
/// closure of `T`, from the root; (2) expansion of each closure edge into
/// the engine's shortest path; (3) Kruskal over the expanded edges in
/// (weight, edge id) order; (4) pruning of non-terminal leaves. Its cost
/// is at most `2·(1 − 1/|T|)·OPT`.
#[derive(Debug)]
pub struct KmbSweep<'a> {
    graph: &'a Graph,
    dist: &'a LazyDistances,
    /// The distinct destinations, in first-occurrence order.
    dests: Vec<NodeId>,
    /// The first out-of-bounds destination's error, which every build
    /// returns once the root is valid.
    invalid: Option<GraphError>,
    /// `closure[i * |D| + j]`: the distance from `dests[i]` to `dests[j]`
    /// on `dests[i]`'s row; NaN until read, `INFINITY` when unreachable.
    closure: Vec<f64>,
    /// `paths[i * |D| + j]`: the edges of the engine's shortest path from
    /// `dests[i]` to `dests[j]`, once a build has expanded that pair.
    paths: Vec<Option<Vec<EdgeId>>>,
}

impl<'a> KmbSweep<'a> {
    /// A sweep over `destinations` (duplicates allowed) on `graph`; `dist`
    /// must be the graph's distance engine. Reads nothing yet.
    pub fn new(graph: &'a Graph, dist: &'a LazyDistances, destinations: &[NodeId]) -> Self {
        let n = graph.node_count();
        let invalid = destinations
            .iter()
            .find(|t| t.0 >= n)
            .map(|t| GraphError::NodeOutOfBounds { node: t.0, len: n });
        let mut dests: Vec<NodeId> = Vec::with_capacity(destinations.len());
        for &t in destinations {
            if !dests.contains(&t) {
                dests.push(t);
            }
        }
        let pairs = dests.len() * dests.len();
        KmbSweep {
            graph,
            dist,
            dests,
            invalid,
            closure: vec![f64::NAN; pairs],
            paths: vec![None; pairs],
        }
    }

    /// The KMB tree spanning `root` and every destination, polling
    /// `cancel` inside any row computation it triggers.
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfBounds`] when `dist` belongs to a graph of
    ///   another size, then for the root, then for the first invalid
    ///   destination.
    /// * [`GraphError::Disconnected`] if some destination is unreachable
    ///   from the root.
    /// * [`GraphError::Cancelled`] when `cancel` trips mid-construction;
    ///   the sweep keeps only what it read before, and stays usable.
    pub fn tree(
        &mut self,
        root: NodeId,
        cancel: Option<&CancelToken>,
    ) -> Result<SteinerTree, GraphError> {
        let n = self.graph.node_count();
        self.graph.check_engine(self.dist)?;
        if root.0 >= n {
            return Err(GraphError::NodeOutOfBounds {
                node: root.0,
                len: n,
            });
        }
        if let Some(err) = &self.invalid {
            return Err(err.clone());
        }
        // Terminal `j ≥ 1` is destination `members[j - 1]`; terminal 0 is
        // the root.
        let members: Vec<usize> = (0..self.dests.len())
            .filter(|&i| self.dests[i] != root)
            .collect();
        let k = members.len() + 1;
        if k == 1 {
            return Ok(SteinerTree::empty());
        }

        // (1) Prim over the metric closure, from the root. Ties go to the
        // lowest terminal, the first minimum `Iterator::min_by` returns.
        let mut in_tree = vec![false; k];
        let mut best = vec![(f64::INFINITY, 0_usize); k];
        in_tree[0] = true;
        for j in 1..k {
            let d = self
                .dist
                .try_distance(root, self.dests[members[j - 1]], cancel)?
                .ok_or(GraphError::Disconnected)?;
            best[j] = (d, 0);
        }
        let mut closure_edges: Vec<(usize, usize)> = Vec::with_capacity(k - 1);
        for _ in 1..k {
            let j = (1..k)
                .filter(|&j| !in_tree[j])
                .reduce(|a, b| {
                    if best[b].0.total_cmp(&best[a].0).is_lt() {
                        b
                    } else {
                        a
                    }
                })
                .expect("at least one terminal outside the closure tree");
            if !best[j].0.is_finite() {
                return Err(GraphError::Disconnected);
            }
            in_tree[j] = true;
            closure_edges.push((best[j].1, j));
            for m in 1..k {
                if !in_tree[m] {
                    let d = self.closure_distance(members[j - 1], members[m - 1], cancel)?;
                    if d < best[m].0 {
                        best[m] = (d, j);
                    }
                }
            }
        }

        // (2) Expand closure edges into the engine's shortest paths.
        let mut chosen: Vec<EdgeId> = Vec::new();
        for (a, b) in closure_edges {
            let to = members[b - 1];
            if a == 0 {
                let path = self
                    .dist
                    .try_path(root, self.dests[to], cancel)?
                    .ok_or(GraphError::Disconnected)?;
                chosen.extend(self.graph.path_edges(&path)?);
            } else {
                chosen.extend_from_slice(self.dest_path(members[a - 1], to, cancel)?);
            }
        }

        // (3)–(4) on local indices of the expansion.
        let mut terms = Vec::with_capacity(k);
        terms.push(root);
        terms.extend(members.iter().map(|&i| self.dests[i]));
        Ok(spanning_tree(self.graph, chosen, &terms))
    }

    /// The closure distance from destination `i` to destination `j`,
    /// memoized; [`GraphError::Disconnected`] when unreachable.
    fn closure_distance(
        &mut self,
        i: usize,
        j: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<f64, GraphError> {
        let slot = &mut self.closure[i * self.dests.len() + j];
        if slot.is_nan() {
            let d = self
                .dist
                .try_distance(self.dests[i], self.dests[j], cancel)?;
            *slot = d.unwrap_or(f64::INFINITY);
        }
        if *slot == f64::INFINITY {
            return Err(GraphError::Disconnected);
        }
        Ok(*slot)
    }

    /// The edges of the engine's shortest path from destination `i` to
    /// destination `j`, memoized.
    fn dest_path(
        &mut self,
        i: usize,
        j: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<&[EdgeId], GraphError> {
        let at = i * self.dests.len() + j;
        if self.paths[at].is_none() {
            let path = self
                .dist
                .try_path(self.dests[i], self.dests[j], cancel)?
                .ok_or(GraphError::Disconnected)?;
            self.paths[at] = Some(self.graph.path_edges(&path)?);
        }
        Ok(self.paths[at].as_deref().expect("filled above"))
    }
}

impl Graph {
    /// Kou–Markowsky–Berman Steiner tree over `terminals`, whose metric
    /// closure and path expansion read the memoized rows of `dist`, with
    /// an optional cancellation token polled inside any row computation.
    /// The first terminal is the root of [`KmbSweep`], which describes the
    /// steps; duplicates are ignored. Guarantees cost ≤ 2·(1 − 1/|T|)·OPT.
    ///
    /// ```
    /// use sft_graph::{Graph, LazyDistances, NodeId};
    /// # fn main() -> Result<(), sft_graph::GraphError> {
    /// // A star: connecting the three leaves through the hub (node 3)
    /// // beats any pair of direct leaf-to-leaf shortcuts.
    /// let mut g = Graph::new(4);
    /// for leaf in 0..3 {
    ///     g.add_edge(NodeId(leaf), NodeId(3), 1.0)?;
    /// }
    /// let dist = LazyDistances::new(&g);
    /// let terminals = [NodeId(0), NodeId(1), NodeId(2)];
    /// let tree = g.steiner_kmb_with_provider(&dist, &terminals, None)?;
    /// assert_eq!(tree.cost, 3.0); // uses the non-terminal hub
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfBounds`] if the engine belongs to a graph
    ///   of another size, or for invalid terminals.
    /// * [`GraphError::EmptySelection`] if `terminals` is empty.
    /// * [`GraphError::Disconnected`] if the terminals do not share a
    ///   connected component.
    /// * [`GraphError::Cancelled`] when `cancel` trips mid-construction.
    pub fn steiner_kmb_with_provider(
        &self,
        dist: &LazyDistances,
        terminals: &[NodeId],
        cancel: Option<&CancelToken>,
    ) -> Result<SteinerTree, GraphError> {
        self.check_engine(dist)?;
        let (&root, destinations) = terminals.split_first().ok_or(GraphError::EmptySelection)?;
        KmbSweep::new(self, dist, destinations).tree(root, cancel)
    }

    /// [`GraphError::NodeOutOfBounds`] unless `dist` covers this graph's
    /// node count.
    fn check_engine(&self, dist: &LazyDistances) -> Result<(), GraphError> {
        if dist.node_count() == self.node_count() {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfBounds {
                node: dist.node_count(),
                len: self.node_count(),
            })
        }
    }

    /// Takahashi–Matsuyama Steiner heuristic: grow a tree from the first
    /// terminal, repeatedly attaching the terminal nearest to the current
    /// tree along a shortest path. Same 2-approximation class as KMB; kept
    /// as an ablation of the paper's stage-1 design choice.
    ///
    /// # Errors
    ///
    /// * [`GraphError::EmptySelection`] if `terminals` is empty.
    /// * [`GraphError::NodeOutOfBounds`] for invalid terminals.
    /// * [`GraphError::Disconnected`] if the terminals do not share a
    ///   connected component.
    pub fn steiner_takahashi(&self, terminals: &[NodeId]) -> Result<SteinerTree, GraphError> {
        let terms = self.check_terminals(terminals)?;
        if terms.len() <= 1 {
            return Ok(SteinerTree::empty());
        }
        let mut tree_nodes: BTreeSet<NodeId> = BTreeSet::new();
        tree_nodes.insert(terms[0]);
        let mut tree_edges: Vec<EdgeId> = Vec::new();
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
            tree_edges.extend(self.path_edges(&path)?);
            for n in path {
                tree_nodes.insert(n);
                remaining.remove(&n);
            }
        }

        // The union of shortest paths may contain cycles; extract an MST and
        // prune, as in KMB's last steps.
        Ok(spanning_tree(self, tree_edges, &terms))
    }

    /// Exact minimum Steiner tree by brute force over subsets of candidate
    /// Steiner nodes. A test oracle only: exponential in
    /// `node_count() - terminals.len()`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Graph::steiner_takahashi`], plus
    /// [`GraphError::EmptySelection`] if more than 25 non-terminal nodes
    /// would make the enumeration intractable.
    pub fn steiner_exact(&self, terminals: &[NodeId]) -> Result<SteinerTree, GraphError> {
        let terms = self.check_terminals(terminals)?;
        if terms.len() <= 1 {
            return Ok(SteinerTree::empty());
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
        let (mut local, terminal) = localize(self, &tree.edges, &terms);
        prune_leaves(&mut local, &terminal);
        tree.edges = local.into_iter().map(|(id, _, _)| id).collect();
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

/// KMB's last two steps, shared by Takahashi–Matsuyama: Kruskal over the
/// distinct `chosen` edges in (weight, edge id) order, then pruning of
/// non-terminal leaves, both on local indices of the chosen edges' nodes.
fn spanning_tree(g: &Graph, mut chosen: Vec<EdgeId>, terms: &[NodeId]) -> SteinerTree {
    chosen.sort_unstable_by(|a, b| g.weight(*a).total_cmp(&g.weight(*b)).then(a.cmp(b)));
    chosen.dedup();
    let (arcs, terminal) = localize(g, &chosen, terms);
    let mut uf = UnionFind::new(terminal.len());
    let mut tree: Vec<(EdgeId, usize, usize)> = arcs
        .into_iter()
        .filter(|&(_, a, b)| uf.union(a, b))
        .collect();
    prune_leaves(&mut tree, &terminal);
    let edges: Vec<EdgeId> = tree.into_iter().map(|(id, _, _)| id).collect();
    let cost = edges.iter().map(|&e| g.weight(e)).sum();
    SteinerTree { edges, cost }
}

/// Each edge with its endpoints as indices into the sorted distinct
/// endpoints of `edges`, and which of those nodes are terminals.
fn localize(
    g: &Graph,
    edges: &[EdgeId],
    terms: &[NodeId],
) -> (Vec<(EdgeId, usize, usize)>, Vec<bool>) {
    let mut nodes: Vec<NodeId> = Vec::with_capacity(2 * edges.len());
    for &id in edges {
        let e = g.edge(id);
        nodes.push(e.u);
        nodes.push(e.v);
    }
    nodes.sort_unstable();
    nodes.dedup();
    let local = |v: NodeId| {
        nodes
            .binary_search(&v)
            .expect("an endpoint of a listed edge")
    };
    let arcs = edges
        .iter()
        .map(|&id| {
            let e = g.edge(id);
            (id, local(e.u), local(e.v))
        })
        .collect();
    let mut terminal = vec![false; nodes.len()];
    for t in terms {
        if let Ok(i) = nodes.binary_search(t) {
            terminal[i] = true;
        }
    }
    (arcs, terminal)
}

/// Repeatedly removes edges whose endpoint is a non-terminal leaf, one
/// layer of leaves per pass, keeping the survivors' order.
fn prune_leaves(tree: &mut Vec<(EdgeId, usize, usize)>, terminal: &[bool]) {
    let mut degree = vec![0_u32; terminal.len()];
    loop {
        degree.fill(0);
        for &(_, a, b) in tree.iter() {
            degree[a] += 1;
            degree[b] += 1;
        }
        let leaf = |x: usize| degree[x] == 1 && !terminal[x];
        let before = tree.len();
        tree.retain(|&(_, a, b)| !(leaf(a) || leaf(b)));
        if tree.len() == before {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The engine's KMB on rows filled before the build.
    fn kmb(g: &Graph, terms: &[NodeId]) -> Result<SteinerTree, GraphError> {
        let dist = LazyDistances::new(g);
        for &t in terms.iter().filter(|t| t.0 < g.node_count()) {
            dist.distance(t, t);
        }
        g.steiner_kmb_with_provider(&dist, terms, None)
    }

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
        let t = kmb(&g, &terms).unwrap();
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
        let kmb = kmb(&g, &terms).unwrap();
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
        let t = kmb(&g, &terms).unwrap();
        assert!((t.cost - 4.0).abs() < 1e-12);
        assert_eq!(t.edges.len(), 4);
        let sp = g.dijkstra(NodeId(0));
        assert_eq!(t.cost, sp.distance(NodeId(8)).unwrap());
    }

    #[test]
    fn single_terminal_yields_empty_tree() {
        let (g, _) = star_with_shortcuts();
        for f in [kmb, Graph::steiner_takahashi, Graph::steiner_exact] {
            let t = f(&g, &[NodeId(2)]).unwrap();
            assert!(t.edges.is_empty());
            assert_eq!(t.cost, 0.0);
            assert!(t.is_valid(&g, &[NodeId(2)]));
        }
    }

    #[test]
    fn duplicate_terminals_are_deduplicated() {
        let (g, _) = star_with_shortcuts();
        let t = kmb(&g, &[NodeId(0), NodeId(0), NodeId(1), NodeId(1)]).unwrap();
        let direct = kmb(&g, &[NodeId(0), NodeId(1)]).unwrap();
        assert!((t.cost - direct.cost).abs() < 1e-12);
    }

    #[test]
    fn errors_on_empty_invalid_or_disconnected_terminals() {
        let (g, _) = star_with_shortcuts();
        assert_eq!(kmb(&g, &[]), Err(GraphError::EmptySelection));
        assert!(matches!(
            kmb(&g, &[NodeId(42)]),
            Err(GraphError::NodeOutOfBounds { .. })
        ));
        let mut h = Graph::new(4);
        h.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        h.add_edge(NodeId(2), NodeId(3), 1.0).unwrap();
        for f in [kmb, Graph::steiner_takahashi, Graph::steiner_exact] {
            assert_eq!(
                f(&h, &[NodeId(0), NodeId(3)]),
                Err(GraphError::Disconnected)
            );
        }
    }

    #[test]
    fn all_terminals_reduces_to_mst() {
        let g = grid(2, 3, |i| (i + 1) as f64);
        let terms: Vec<NodeId> = g.nodes().collect();
        let t = kmb(&g, &terms).unwrap();
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
        for f in [kmb, Graph::steiner_takahashi, Graph::steiner_exact] {
            let t = f(&g, &terms).unwrap();
            assert!(!t.node_set(&g).contains(&NodeId(3)), "spur not pruned");
            assert!((t.cost - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn provider_kmb_stays_within_the_kmb_bound() {
        let g = grid(4, 4, |i| 1.0 + ((i * 7) % 5) as f64 * 0.3);
        for terms in [
            vec![NodeId(0), NodeId(15)],
            vec![NodeId(0), NodeId(3), NodeId(12), NodeId(15)],
            vec![NodeId(5), NodeId(6), NodeId(9), NodeId(10), NodeId(0)],
        ] {
            let t = kmb(&g, &terms).unwrap();
            assert!(t.is_valid(&g, &terms));
            let opt = g.steiner_exact(&terms).unwrap();
            assert!(t.cost <= 2.0 * opt.cost + 1e-9);
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
        let mut sweep = KmbSweep::new(&g, &lazy, &[NodeId(15)]);
        assert_eq!(
            sweep.tree(NodeId(0), Some(&token)),
            Err(GraphError::Cancelled)
        );
        // The cancelled build kept nothing wrong: a live one succeeds.
        assert_eq!(sweep.tree(NodeId(0), None).unwrap().cost, 6.0);
    }

    #[test]
    fn provider_kmb_rejects_a_foreign_engine() {
        let g = grid(2, 2, |_| 1.0);
        let other = LazyDistances::new(&grid(3, 3, |_| 1.0));
        for terms in [&[NodeId(0), NodeId(3)][..], &[]] {
            assert!(matches!(
                g.steiner_kmb_with_provider(&other, terms, None),
                Err(GraphError::NodeOutOfBounds { node: 9, len: 4 })
            ));
        }
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

    /// `steiner_kmb_with_provider` before the sweep, kept as the oracle:
    /// terminals deduplicated through a `BTreeSet`, Prim over the closure
    /// read pair by pair from the engine, expansion into a `BTreeSet`,
    /// Kruskal stable-sorted by weight over a node-count union-find, and
    /// pruning with a node-count degree array per pass.
    fn reference_kmb(
        g: &Graph,
        dist: &LazyDistances,
        terminals: &[NodeId],
        cancel: Option<&CancelToken>,
    ) -> Result<SteinerTree, GraphError> {
        if dist.node_count() != g.node_count() {
            return Err(GraphError::NodeOutOfBounds {
                node: dist.node_count(),
                len: g.node_count(),
            });
        }
        let terms = g.check_terminals(terminals)?;
        if terms.len() <= 1 {
            return Ok(SteinerTree::empty());
        }
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
        let mut chosen: BTreeSet<EdgeId> = BTreeSet::new();
        for (a, b) in closure_edges {
            let path = dist
                .try_path(terms[a], terms[b], cancel)?
                .ok_or(GraphError::Disconnected)?;
            for id in g.path_edges(&path)? {
                chosen.insert(id);
            }
        }
        let mut order: Vec<EdgeId> = chosen.into_iter().collect();
        order.sort_by(|a, b| g.weight(*a).total_cmp(&g.weight(*b)));
        let mut uf = UnionFind::new(g.node_count());
        let mut edges = Vec::new();
        for id in order {
            let e = g.edge(id);
            if uf.union(e.u.0, e.v.0) {
                edges.push(id);
            }
        }
        let term_set: BTreeSet<NodeId> = terms.iter().copied().collect();
        loop {
            let mut degree = vec![0_usize; g.node_count()];
            for &id in &edges {
                let e = g.edge(id);
                degree[e.u.0] += 1;
                degree[e.v.0] += 1;
            }
            let before = edges.len();
            edges.retain(|&id| {
                let e = g.edge(id);
                let u_leaf = degree[e.u.0] == 1 && !term_set.contains(&e.u);
                let v_leaf = degree[e.v.0] == 1 && !term_set.contains(&e.v);
                !(u_leaf || v_leaf)
            });
            if edges.len() == before {
                break;
            }
        }
        let cost = edges.iter().map(|&e| g.weight(e)).sum();
        Ok(SteinerTree { edges, cost })
    }

    /// Integer weights 0–2 make equal distances and equal-weight edges
    /// common; a cut leaves some graphs in two unreachable parts.
    fn tie_heavy_graph(rng: &mut rand::rngs::StdRng) -> Graph {
        use rand::RngExt;
        let n = rng.random_range(1..=12usize);
        let cut = rng.random_range(1..=n);
        let density = [3u32, 5, 8][rng.random_range(0..3usize)];
        let mut g = Graph::new(n);
        for u in 0..n {
            for v in u + 1..n {
                if (u < cut) != (v < cut) || rng.random_range(0..10u32) >= density {
                    continue;
                }
                let w = f64::from(rng.random_range(0..=2u32));
                g.add_edge(NodeId(u), NodeId(v), w).unwrap();
            }
        }
        g
    }

    fn bits(tree: Result<SteinerTree, GraphError>) -> Result<(Vec<EdgeId>, u64), GraphError> {
        tree.map(|t| (t.edges, t.cost.to_bits()))
    }

    /// The sweep, one build at a time and across several roots in a row,
    /// answers what the kept copy of the pre-sweep KMB answers, edge order,
    /// cost bits and errors included, and leaves the same rows resident.
    /// Destination lists repeat nodes, sometimes contain the root, and
    /// sometimes a node out of bounds; every fourth build runs under a
    /// tripped token, which must cancel exactly when a needed row is cold.
    #[test]
    fn kmb_matches_the_reference_alone_and_across_a_sweep() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let tripped = CancelToken::new();
        tripped.cancel();
        let (mut trees, mut disconnected, mut cancelled, mut invalid) = (0, 0, 0, 0);
        for _ in 0..500 {
            let g = tie_heavy_graph(&mut rng);
            let n = g.node_count();
            let mut dests: Vec<NodeId> = (0..rng.random_range(0..=5usize))
                .map(|_| NodeId(rng.random_range(0..n)))
                .collect();
            if rng.random_range(0..20u32) == 0 {
                dests.push(NodeId(n + rng.random_range(0..3usize)));
            }
            let reference = LazyDistances::new(&g);
            let alone = LazyDistances::new(&g);
            let swept = LazyDistances::new(&g);
            let mut sweep = KmbSweep::new(&g, &swept, &dests);
            for _ in 0..5 {
                let root = match dests.first() {
                    Some(&d) if rng.random_range(0..3u32) == 0 => d,
                    _ => NodeId(rng.random_range(0..n)),
                };
                let cancel = (rng.random_range(0..4u32) == 0).then_some(&tripped);
                let mut terminals = vec![root];
                terminals.extend_from_slice(&dests);
                let want = bits(reference_kmb(&g, &reference, &terminals, cancel));
                let one = bits(g.steiner_kmb_with_provider(&alone, &terminals, cancel));
                assert_eq!(one, want, "alone: {terminals:?}");
                assert_eq!(bits(sweep.tree(root, cancel)), want, "swept: {terminals:?}");
                let rows = reference.rows_materialized();
                assert_eq!(alone.rows_materialized(), rows);
                assert_eq!(swept.rows_materialized(), rows);
                match want {
                    Ok(_) => trees += 1,
                    Err(GraphError::Disconnected) => disconnected += 1,
                    Err(GraphError::Cancelled) => cancelled += 1,
                    Err(GraphError::NodeOutOfBounds { .. }) => invalid += 1,
                    Err(other) => panic!("unexpected {other:?}"),
                }
            }
        }
        assert!(trees > 1000 && disconnected > 50 && cancelled > 50 && invalid > 20);
    }
}
