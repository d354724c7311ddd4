//! Undirected weighted graph storage.
//!
//! [`Graph`] is the substrate every paper algorithm runs on: the physical
//! network topology with non-negative link-connection costs on edges.

use crate::GraphError;
use std::fmt;

/// Identifier of a node in a [`Graph`].
///
/// The wrapped index is public because node identity is deliberately just a
/// dense index into the graph's node range — generators and the domain layer
/// construct them directly.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The underlying dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(value: usize) -> Self {
        NodeId(value)
    }
}

/// Identifier of an undirected edge in a [`Graph`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub usize);

impl EdgeId {
    /// The underlying dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// An undirected edge: endpoints, a non-negative weight, an optional
/// bandwidth capacity, and an optional propagation latency.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Edge {
    /// First endpoint (always the smaller node index).
    pub u: NodeId,
    /// Second endpoint (always the larger node index).
    pub v: NodeId,
    /// Non-negative, finite weight (link-connection cost).
    pub weight: f64,
    /// Optional bandwidth capacity. `None` means uncapacitated — the
    /// legacy model where any number of sessions may share the link.
    pub capacity: Option<f64>,
    /// Optional propagation latency. `None` means the latency *is* the
    /// weight, so a latency-free graph prices delay exactly like cost
    /// and legacy behaviour is bit-identical.
    pub latency: Option<f64>,
}

impl Edge {
    /// Given one endpoint, returns the opposite endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not an endpoint of this edge.
    pub fn other(&self, n: NodeId) -> NodeId {
        if n == self.u {
            self.v
        } else if n == self.v {
            self.u
        } else {
            panic!("node {n:?} is not an endpoint of edge {self:?}")
        }
    }
}

/// An undirected graph with non-negative edge weights.
///
/// Nodes are dense indices `0..node_count()`. Parallel edges and self-loops
/// are rejected at insertion time so that every `(u, v)` pair identifies at
/// most one edge — the paper's cost model counts each physical link once per
/// chain segment, which this uniqueness makes cheap to enforce.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    adjacency: Vec<Vec<(NodeId, EdgeId)>>,
    edges: Vec<Edge>,
}

impl Graph {
    /// Creates a graph with `n` isolated nodes.
    ///
    /// ```
    /// use sft_graph::Graph;
    /// let g = Graph::new(5);
    /// assert_eq!(g.node_count(), 5);
    /// assert_eq!(g.edge_count(), 0);
    /// ```
    pub fn new(n: usize) -> Self {
        Graph {
            adjacency: vec![Vec::new(); n],
            edges: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node ids, in index order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId)
    }

    /// Iterator over all edge ids, in insertion order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len()).map(EdgeId)
    }

    /// Iterator over all edges, in insertion order.
    pub fn edges(&self) -> impl Iterator<Item = &Edge> + '_ {
        self.edges.iter()
    }

    /// Appends a new isolated node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.adjacency.push(Vec::new());
        NodeId(self.adjacency.len() - 1)
    }

    /// Adds an undirected edge.
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfBounds`] if either endpoint does not exist.
    /// * [`GraphError::SelfLoop`] if `u == v`.
    /// * [`GraphError::InvalidWeight`] if `weight` is negative or not finite.
    /// * [`GraphError::DuplicateEdge`] if an edge between `u` and `v` exists.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, weight: f64) -> Result<EdgeId, GraphError> {
        self.add_edge_with_capacity(u, v, weight, None)
    }

    /// Adds an undirected edge carrying an optional bandwidth capacity
    /// (`None` = uncapacitated, the legacy behavior of [`Graph::add_edge`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Graph::add_edge`], plus
    /// [`GraphError::InvalidWeight`] if the capacity is negative or not
    /// finite.
    pub fn add_edge_with_capacity(
        &mut self,
        u: NodeId,
        v: NodeId,
        weight: f64,
        capacity: Option<f64>,
    ) -> Result<EdgeId, GraphError> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Err(GraphError::SelfLoop { node: u.0 });
        }
        if !weight.is_finite() || weight < 0.0 {
            return Err(GraphError::InvalidWeight { weight });
        }
        if let Some(c) = capacity {
            if !c.is_finite() || c < 0.0 {
                return Err(GraphError::InvalidWeight { weight: c });
            }
        }
        if self.find_edge(u, v).is_some() {
            return Err(GraphError::DuplicateEdge { u: u.0, v: v.0 });
        }
        let (a, b) = if u.0 <= v.0 { (u, v) } else { (v, u) };
        let id = EdgeId(self.edges.len());
        self.edges.push(Edge {
            u: a,
            v: b,
            weight,
            capacity,
            latency: None,
        });
        self.adjacency[u.0].push((v, id));
        self.adjacency[v.0].push((u, id));
        Ok(id)
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0]
    }

    /// Weight of the edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn weight(&self, id: EdgeId) -> f64 {
        self.edges[id.0].weight
    }

    /// Bandwidth capacity of the edge with the given id (`None` =
    /// uncapacitated).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn edge_capacity(&self, id: EdgeId) -> Option<f64> {
        self.edges[id.0].capacity
    }

    /// Replaces the bandwidth capacity of an existing edge.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidWeight`] if the capacity is negative or not
    /// finite.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn set_edge_capacity(
        &mut self,
        id: EdgeId,
        capacity: Option<f64>,
    ) -> Result<(), GraphError> {
        if let Some(c) = capacity {
            if !c.is_finite() || c < 0.0 {
                return Err(GraphError::InvalidWeight { weight: c });
            }
        }
        self.edges[id.0].capacity = capacity;
        Ok(())
    }

    /// Whether any edge carries a bandwidth capacity. When `false`, the
    /// graph behaves exactly like the legacy uncapacitated model.
    pub fn has_edge_capacities(&self) -> bool {
        self.edges.iter().any(|e| e.capacity.is_some())
    }

    /// Explicit propagation latency of the edge with the given id
    /// (`None` = the latency defaults to the edge weight).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn edge_latency(&self, id: EdgeId) -> Option<f64> {
        self.edges[id.0].latency
    }

    /// The latency actually charged for traversing an edge: the explicit
    /// latency when set, the weight otherwise. On a latency-free graph
    /// this makes end-to-end delay coincide exactly with path cost.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn effective_latency(&self, id: EdgeId) -> f64 {
        let e = &self.edges[id.0];
        e.latency.unwrap_or(e.weight)
    }

    /// Replaces the propagation latency of an existing edge (`None`
    /// reverts to the latency-defaults-to-weight behaviour).
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidWeight`] if the latency is negative or not
    /// finite.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn set_edge_latency(&mut self, id: EdgeId, latency: Option<f64>) -> Result<(), GraphError> {
        if let Some(l) = latency {
            if !l.is_finite() || l < 0.0 {
                return Err(GraphError::InvalidWeight { weight: l });
            }
        }
        self.edges[id.0].latency = latency;
        Ok(())
    }

    /// Whether any edge carries an explicit latency. When `false`, delay
    /// equals cost along every path and the legacy model applies.
    pub fn has_edge_latencies(&self) -> bool {
        self.edges.iter().any(|e| e.latency.is_some())
    }

    /// Total effective latency of a path given as a node sequence.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Graph::path_weight`].
    pub fn path_latency(&self, path: &[NodeId]) -> Result<f64, GraphError> {
        for &n in path {
            self.check_node(n)?;
        }
        let mut total = 0.0;
        for w in path.windows(2) {
            let e = self.find_edge(w[0], w[1]).ok_or(GraphError::Disconnected)?;
            total += self.effective_latency(e);
        }
        Ok(total)
    }

    /// Looks up the edge between `u` and `v`, if any.
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let (scan, target) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.adjacency
            .get(scan.0)?
            .iter()
            .find(|(n, _)| *n == target)
            .map(|(_, e)| *e)
    }

    /// Degree of a node (0 for out-of-range nodes).
    pub fn degree(&self, u: NodeId) -> usize {
        self.adjacency.get(u.0).map_or(0, Vec::len)
    }

    /// Neighbors of `u` together with the connecting edge ids.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of bounds.
    pub fn neighbors(&self, u: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        self.adjacency[u.0].iter().copied()
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.weight).sum()
    }

    /// Returns the connected component label of every node (labels are dense
    /// starting at 0, assigned in node order).
    pub fn components(&self) -> Vec<usize> {
        let n = self.node_count();
        let mut label = vec![usize::MAX; n];
        let mut next = 0;
        let mut stack = Vec::new();
        for s in 0..n {
            if label[s] != usize::MAX {
                continue;
            }
            label[s] = next;
            stack.push(s);
            while let Some(u) = stack.pop() {
                for &(v, _) in &self.adjacency[u] {
                    if label[v.0] == usize::MAX {
                        label[v.0] = next;
                        stack.push(v.0);
                    }
                }
            }
            next += 1;
        }
        label
    }

    /// Whether the graph is connected. The empty graph counts as connected.
    pub fn is_connected(&self) -> bool {
        let labels = self.components();
        labels.iter().all(|&l| l == 0)
    }

    /// Total weight of a path given as a node sequence.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] if any node is invalid, and
    /// [`GraphError::Disconnected`] if two consecutive nodes are not
    /// adjacent.
    pub fn path_weight(&self, path: &[NodeId]) -> Result<f64, GraphError> {
        for &n in path {
            self.check_node(n)?;
        }
        let mut total = 0.0;
        for w in path.windows(2) {
            let e = self.find_edge(w[0], w[1]).ok_or(GraphError::Disconnected)?;
            total += self.weight(e);
        }
        Ok(total)
    }

    /// Edge ids along a path given as a node sequence.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Graph::path_weight`].
    pub fn path_edges(&self, path: &[NodeId]) -> Result<Vec<EdgeId>, GraphError> {
        for &n in path {
            self.check_node(n)?;
        }
        path.windows(2)
            .map(|w| self.find_edge(w[0], w[1]).ok_or(GraphError::Disconnected))
            .collect()
    }

    /// Builds the subgraph induced by `nodes`: the selected nodes are
    /// renumbered `0..nodes.len()` in the given order and every edge with
    /// both endpoints selected is kept.
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfBounds`] for invalid node ids.
    /// * [`GraphError::DuplicateEdge`] if `nodes` contains duplicates
    ///   (which would alias edges).
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> Result<Graph, GraphError> {
        let mut index = vec![usize::MAX; self.node_count()];
        for (i, &n) in nodes.iter().enumerate() {
            self.check_node(n)?;
            if index[n.0] != usize::MAX {
                return Err(GraphError::DuplicateEdge { u: n.0, v: n.0 });
            }
            index[n.0] = i;
        }
        let mut g = Graph::new(nodes.len());
        for e in self.edges() {
            let (iu, iv) = (index[e.u.0], index[e.v.0]);
            if iu != usize::MAX && iv != usize::MAX {
                let id = g
                    .add_edge_with_capacity(NodeId(iu), NodeId(iv), e.weight, e.capacity)
                    .expect("unique edges stay unique under induction");
                g.set_edge_latency(id, e.latency)
                    .expect("a stored latency is always valid");
            }
        }
        Ok(g)
    }

    fn check_node(&self, n: NodeId) -> Result<(), GraphError> {
        if n.0 < self.node_count() {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfBounds {
                node: n.0,
                len: self.node_count(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 2.0).unwrap();
        g.add_edge(NodeId(2), NodeId(0), 3.0).unwrap();
        g
    }

    #[test]
    fn new_graph_is_empty() {
        let g = Graph::new(3);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 0);
        assert!(g.edges().next().is_none());
    }

    #[test]
    fn add_edge_records_endpoints_and_weight() {
        let g = triangle();
        assert_eq!(g.edge_count(), 3);
        let e = g.find_edge(NodeId(2), NodeId(1)).unwrap();
        assert_eq!(g.weight(e), 2.0);
        assert_eq!(g.edge(e).other(NodeId(1)), NodeId(2));
    }

    #[test]
    fn edge_endpoints_are_normalized() {
        let mut g = Graph::new(3);
        let e = g.add_edge(NodeId(2), NodeId(0), 1.5).unwrap();
        assert_eq!(g.edge(e).u, NodeId(0));
        assert_eq!(g.edge(e).v, NodeId(2));
    }

    #[test]
    fn rejects_self_loop() {
        let mut g = Graph::new(2);
        assert_eq!(
            g.add_edge(NodeId(1), NodeId(1), 1.0),
            Err(GraphError::SelfLoop { node: 1 })
        );
    }

    #[test]
    fn rejects_duplicate_edge_in_either_orientation() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        assert_eq!(
            g.add_edge(NodeId(1), NodeId(0), 9.0),
            Err(GraphError::DuplicateEdge { u: 1, v: 0 })
        );
    }

    #[test]
    fn rejects_bad_weights() {
        let mut g = Graph::new(2);
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(1), -1.0),
            Err(GraphError::InvalidWeight { .. })
        ));
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(1), f64::NAN),
            Err(GraphError::InvalidWeight { .. })
        ));
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(1), f64::INFINITY),
            Err(GraphError::InvalidWeight { .. })
        ));
    }

    #[test]
    fn rejects_out_of_bounds_nodes() {
        let mut g = Graph::new(2);
        assert_eq!(
            g.add_edge(NodeId(0), NodeId(5), 1.0),
            Err(GraphError::NodeOutOfBounds { node: 5, len: 2 })
        );
    }

    #[test]
    fn zero_weight_edges_are_allowed() {
        // Pre-deployed VNF reuse maps to zero-cost virtual edges in the
        // expanded MOD network, so zero weights must be legal.
        let mut g = Graph::new(2);
        assert!(g.add_edge(NodeId(0), NodeId(1), 0.0).is_ok());
    }

    #[test]
    fn degree_and_neighbors() {
        let g = triangle();
        assert_eq!(g.degree(NodeId(0)), 2);
        let mut ns: Vec<_> = g.neighbors(NodeId(0)).map(|(n, _)| n.0).collect();
        ns.sort_unstable();
        assert_eq!(ns, vec![1, 2]);
    }

    #[test]
    fn components_and_connectivity() {
        let mut g = Graph::new(5);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 1.0).unwrap();
        let labels = g.components();
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
        assert_ne!(labels[4], labels[0]);
        assert!(!g.is_connected());
        g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        g.add_edge(NodeId(3), NodeId(4), 1.0).unwrap();
        assert!(g.is_connected());
    }

    #[test]
    fn path_weight_and_edges() {
        let g = triangle();
        let path = [NodeId(0), NodeId(1), NodeId(2)];
        assert_eq!(g.path_weight(&path).unwrap(), 3.0);
        assert_eq!(g.path_edges(&path).unwrap().len(), 2);
        let bad = [NodeId(0), NodeId(0)];
        assert_eq!(g.path_weight(&bad), Err(GraphError::Disconnected));
    }

    #[test]
    fn single_node_path_has_zero_weight() {
        let g = triangle();
        assert_eq!(g.path_weight(&[NodeId(1)]).unwrap(), 0.0);
        assert!(g.path_edges(&[NodeId(1)]).unwrap().is_empty());
    }

    #[test]
    fn add_node_grows_graph() {
        let mut g = triangle();
        let n = g.add_node();
        assert_eq!(n, NodeId(3));
        assert_eq!(g.node_count(), 4);
        assert!(!g.is_connected());
    }

    #[test]
    fn total_weight_sums_edges() {
        assert_eq!(triangle().total_weight(), 6.0);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = triangle();
        let sub = g.induced_subgraph(&[NodeId(2), NodeId(0)]).unwrap();
        assert_eq!(sub.node_count(), 2);
        assert_eq!(sub.edge_count(), 1);
        // Edge 2-0 had weight 3; node 2 becomes 0, node 0 becomes 1.
        assert_eq!(
            sub.weight(sub.find_edge(NodeId(0), NodeId(1)).unwrap()),
            3.0
        );
    }

    #[test]
    fn induced_subgraph_rejects_bad_input() {
        let g = triangle();
        assert!(g.induced_subgraph(&[NodeId(9)]).is_err());
        assert!(g.induced_subgraph(&[NodeId(0), NodeId(0)]).is_err());
        let empty = g.induced_subgraph(&[]).unwrap();
        assert_eq!(empty.node_count(), 0);
    }

    #[test]
    fn empty_graph_is_connected() {
        assert!(Graph::new(0).is_connected());
        assert!(Graph::new(1).is_connected());
    }

    #[test]
    fn edges_carry_optional_capacities() {
        let mut g = Graph::new(3);
        let a = g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        let b = g
            .add_edge_with_capacity(NodeId(1), NodeId(2), 2.0, Some(5.0))
            .unwrap();
        assert_eq!(g.edge_capacity(a), None);
        assert_eq!(g.edge_capacity(b), Some(5.0));
        assert!(g.has_edge_capacities());
        g.set_edge_capacity(b, None).unwrap();
        assert!(!g.has_edge_capacities());
        g.set_edge_capacity(a, Some(1.5)).unwrap();
        assert_eq!(g.edge_capacity(a), Some(1.5));
        assert!(g.set_edge_capacity(a, Some(-1.0)).is_err());
        assert!(g.set_edge_capacity(a, Some(f64::NAN)).is_err());
        assert!(g
            .add_edge_with_capacity(NodeId(0), NodeId(2), 1.0, Some(f64::INFINITY))
            .is_err());
    }

    #[test]
    fn edges_carry_optional_latencies() {
        let mut g = Graph::new(3);
        let a = g.add_edge(NodeId(0), NodeId(1), 2.0).unwrap();
        let b = g.add_edge(NodeId(1), NodeId(2), 3.0).unwrap();
        assert!(!g.has_edge_latencies());
        // Latency defaults to the weight.
        assert_eq!(g.edge_latency(a), None);
        assert_eq!(g.effective_latency(a), 2.0);
        g.set_edge_latency(b, Some(0.5)).unwrap();
        assert!(g.has_edge_latencies());
        assert_eq!(g.edge_latency(b), Some(0.5));
        assert_eq!(g.effective_latency(b), 0.5);
        let path = [NodeId(0), NodeId(1), NodeId(2)];
        assert_eq!(g.path_latency(&path).unwrap(), 2.5);
        assert_eq!(g.path_weight(&path).unwrap(), 5.0);
        g.set_edge_latency(b, None).unwrap();
        assert!(!g.has_edge_latencies());
        assert_eq!(g.path_latency(&path).unwrap(), 5.0);
        assert!(g.set_edge_latency(a, Some(-1.0)).is_err());
        assert!(g.set_edge_latency(a, Some(f64::NAN)).is_err());
        assert!(g.set_edge_latency(a, Some(f64::INFINITY)).is_err());
    }

    #[test]
    fn induced_subgraph_preserves_latencies() {
        let mut g = Graph::new(3);
        let e = g.add_edge(NodeId(0), NodeId(2), 3.0).unwrap();
        g.set_edge_latency(e, Some(1.25)).unwrap();
        let sub = g.induced_subgraph(&[NodeId(2), NodeId(0)]).unwrap();
        let e = sub.find_edge(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(sub.edge_latency(e), Some(1.25));
        assert_eq!(sub.effective_latency(e), 1.25);
    }

    #[test]
    fn induced_subgraph_preserves_capacities() {
        let mut g = Graph::new(3);
        g.add_edge_with_capacity(NodeId(0), NodeId(2), 3.0, Some(7.0))
            .unwrap();
        let sub = g.induced_subgraph(&[NodeId(2), NodeId(0)]).unwrap();
        let e = sub.find_edge(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(sub.edge_capacity(e), Some(7.0));
    }
}
