//! Random topology generators.
//!
//! The paper's synthetic evaluation (§V-B) uses Erdős–Rényi random graphs
//! whose link-connection costs are the Euclidean distances between node
//! placements (Table I). This module provides:
//!
//! * [`euclidean_er`] — ER graphs over uniform-random 2-D placements, with
//!   connectivity augmentation (the paper's algorithms assume a connected
//!   network);
//! * [`random_geometric`] — unit-disk-style geometric graphs, kept as an
//!   alternative topology family for robustness experiments;
//! * [`waxman`] — Waxman (1988) locality-biased random graphs, the standard
//!   synthetic WAN family used for the large-substrate scale experiments.

use crate::{Graph, GraphError, NodeId};
use rand::{Rng, RngExt};

/// A generated topology: the graph plus the 2-D placement that produced the
/// Euclidean link costs.
#[derive(Clone, Debug)]
pub struct GeneratedTopology {
    /// The generated, connected graph.
    pub graph: Graph,
    /// Node placements in the `[0, side] x [0, side]` square.
    pub positions: Vec<(f64, f64)>,
}

impl GeneratedTopology {
    /// Euclidean distance between two nodes' placements.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of bounds.
    pub fn distance(&self, u: NodeId, v: NodeId) -> f64 {
        euclid(self.positions[u.0], self.positions[v.0])
    }
}

fn euclid(a: (f64, f64), b: (f64, f64)) -> f64 {
    ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
}

/// Generates an Erdős–Rényi `G(n, p)` graph over uniform-random placements
/// in a `side x side` square, link costs = Euclidean distances, then
/// augments connectivity by greedily adding the shortest absent edge
/// between components until the graph is connected.
///
/// # Errors
///
/// Returns [`GraphError::EmptySelection`] if `n == 0`, and
/// [`GraphError::InvalidWeight`] if `p` is not in `[0, 1]` or `side` is not
/// positive and finite.
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// # fn main() -> Result<(), sft_graph::GraphError> {
/// let mut rng = StdRng::seed_from_u64(7);
/// let topo = sft_graph::generate::euclidean_er(50, 0.1, 100.0, &mut rng)?;
/// assert!(topo.graph.is_connected());
/// assert_eq!(topo.graph.node_count(), 50);
/// # Ok(())
/// # }
/// ```
pub fn euclidean_er<R: Rng + ?Sized>(
    n: usize,
    p: f64,
    side: f64,
    rng: &mut R,
) -> Result<GeneratedTopology, GraphError> {
    if n == 0 {
        return Err(GraphError::EmptySelection);
    }
    if !(0.0..=1.0).contains(&p) || p.is_nan() {
        return Err(GraphError::InvalidWeight { weight: p });
    }
    if !side.is_finite() || side <= 0.0 {
        return Err(GraphError::InvalidWeight { weight: side });
    }
    let positions: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.random::<f64>() * side, rng.random::<f64>() * side))
        .collect();
    let mut graph = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.random::<f64>() < p {
                let w = euclid(positions[u], positions[v]).max(f64::MIN_POSITIVE);
                graph
                    .add_edge(NodeId(u), NodeId(v), w)
                    .expect("fresh pair cannot collide");
            }
        }
    }
    augment_connectivity(&mut graph, &positions);
    Ok(GeneratedTopology { graph, positions })
}

/// Generates a random geometric graph: uniform placements in a
/// `side x side` square, an edge between every pair closer than `radius`,
/// Euclidean link costs, plus the same connectivity augmentation as
/// [`euclidean_er`].
///
/// # Errors
///
/// Returns [`GraphError::EmptySelection`] if `n == 0`, and
/// [`GraphError::InvalidWeight`] for a non-positive `radius` or `side`.
pub fn random_geometric<R: Rng + ?Sized>(
    n: usize,
    radius: f64,
    side: f64,
    rng: &mut R,
) -> Result<GeneratedTopology, GraphError> {
    if n == 0 {
        return Err(GraphError::EmptySelection);
    }
    if !radius.is_finite() || radius <= 0.0 {
        return Err(GraphError::InvalidWeight { weight: radius });
    }
    if !side.is_finite() || side <= 0.0 {
        return Err(GraphError::InvalidWeight { weight: side });
    }
    let positions: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.random::<f64>() * side, rng.random::<f64>() * side))
        .collect();
    let mut graph = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            let d = euclid(positions[u], positions[v]);
            if d < radius {
                graph
                    .add_edge(NodeId(u), NodeId(v), d.max(f64::MIN_POSITIVE))
                    .expect("fresh pair cannot collide");
            }
        }
    }
    augment_connectivity(&mut graph, &positions);
    Ok(GeneratedTopology { graph, positions })
}

/// Generates a Waxman random graph: uniform placements in a `side x side`
/// square, an edge between each pair `(u, v)` with probability
/// `beta * exp(-d(u, v) / (alpha * L))` where `L = side * sqrt(2)` is the
/// maximum possible distance, Euclidean link costs, plus the same
/// connectivity augmentation as [`euclidean_er`].
///
/// Waxman graphs (Waxman 1988) are the standard synthetic ISP/WAN topology
/// family: `beta` scales the overall edge density while `alpha` controls
/// locality — small `alpha` strongly favours short edges, producing the
/// geographically clustered substrates used for scale experiments.
///
/// # Errors
///
/// Returns [`GraphError::EmptySelection`] if `n == 0`, and
/// [`GraphError::InvalidWeight`] if `alpha` is not positive and finite,
/// `beta` is not in `[0, 1]`, or `side` is not positive and finite.
pub fn waxman<R: Rng + ?Sized>(
    n: usize,
    alpha: f64,
    beta: f64,
    side: f64,
    rng: &mut R,
) -> Result<GeneratedTopology, GraphError> {
    if n == 0 {
        return Err(GraphError::EmptySelection);
    }
    if !alpha.is_finite() || alpha <= 0.0 {
        return Err(GraphError::InvalidWeight { weight: alpha });
    }
    if !(0.0..=1.0).contains(&beta) || beta.is_nan() {
        return Err(GraphError::InvalidWeight { weight: beta });
    }
    if !side.is_finite() || side <= 0.0 {
        return Err(GraphError::InvalidWeight { weight: side });
    }
    let positions: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.random::<f64>() * side, rng.random::<f64>() * side))
        .collect();
    let scale = alpha * side * std::f64::consts::SQRT_2;
    let mut graph = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            let d = euclid(positions[u], positions[v]);
            if rng.random::<f64>() < beta * (-d / scale).exp() {
                graph
                    .add_edge(NodeId(u), NodeId(v), d.max(f64::MIN_POSITIVE))
                    .expect("fresh pair cannot collide");
            }
        }
    }
    augment_connectivity(&mut graph, &positions);
    Ok(GeneratedTopology { graph, positions })
}

/// Builds an `rows x cols` grid graph with uniform link cost `cost`
/// (nodes numbered row-major). Grids model structured metro/datacenter
/// fabrics and are handy for hand-checkable tests.
///
/// # Errors
///
/// [`GraphError::EmptySelection`] for an empty grid and
/// [`GraphError::InvalidWeight`] for a non-positive cost.
pub fn grid(rows: usize, cols: usize, cost: f64) -> Result<Graph, GraphError> {
    if rows == 0 || cols == 0 {
        return Err(GraphError::EmptySelection);
    }
    if !cost.is_finite() || cost <= 0.0 {
        return Err(GraphError::InvalidWeight { weight: cost });
    }
    let mut g = Graph::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let n = r * cols + c;
            if c + 1 < cols {
                g.add_edge(NodeId(n), NodeId(n + 1), cost)?;
            }
            if r + 1 < rows {
                g.add_edge(NodeId(n), NodeId(n + cols), cost)?;
            }
        }
    }
    Ok(g)
}

/// Builds a `k`-ary fat-tree datacenter fabric (k even): `(k/2)²` core
/// switches, `k` pods of `k/2` aggregation plus `k/2` edge switches, and
/// `(k/2)²·k` hosts hanging off the edge layer — the topology of the
/// datacenter-multicast systems the paper cites (Avalanche, §II). Link
/// costs: `core_cost` for core↔aggregation, `1.0` elsewhere.
///
/// Node numbering: cores first, then per pod (aggregation, edge), then
/// hosts.
///
/// # Errors
///
/// [`GraphError::EmptySelection`] if `k` is odd or zero, and
/// [`GraphError::InvalidWeight`] for a non-positive `core_cost`.
pub fn fat_tree(k: usize, core_cost: f64) -> Result<Graph, GraphError> {
    if k == 0 || !k.is_multiple_of(2) {
        return Err(GraphError::EmptySelection);
    }
    if !core_cost.is_finite() || core_cost <= 0.0 {
        return Err(GraphError::InvalidWeight { weight: core_cost });
    }
    let half = k / 2;
    let cores = half * half;
    let per_pod = k; // half aggregation + half edge
    let switches = cores + k * per_pod;
    let hosts = half * half * k;
    let mut g = Graph::new(switches + hosts);

    let core = |i: usize| NodeId(i);
    let agg = |pod: usize, i: usize| NodeId(cores + pod * per_pod + i);
    let edge = |pod: usize, i: usize| NodeId(cores + pod * per_pod + half + i);
    let host = |pod: usize, e: usize, h: usize| NodeId(switches + pod * half * half + e * half + h);

    for pod in 0..k {
        for a in 0..half {
            // Aggregation a connects to cores [a*half, (a+1)*half).
            for c in 0..half {
                g.add_edge(agg(pod, a), core(a * half + c), core_cost)?;
            }
            // Full bipartite aggregation-edge inside the pod.
            for e in 0..half {
                g.add_edge(agg(pod, a), edge(pod, e), 1.0)?;
            }
        }
        for e in 0..half {
            for h in 0..half {
                g.add_edge(edge(pod, e), host(pod, e, h), 1.0)?;
            }
        }
    }
    Ok(g)
}

/// Adds the Euclidean-shortest missing inter-component edge until the graph
/// is connected. Deterministic given the graph and placements.
fn augment_connectivity(graph: &mut Graph, positions: &[(f64, f64)]) {
    loop {
        let labels = graph.components();
        if labels.iter().all(|&l| l == 0) {
            return;
        }
        let n = graph.node_count();
        let mut best: Option<(f64, usize, usize)> = None;
        for u in 0..n {
            for v in (u + 1)..n {
                if labels[u] == labels[v] {
                    continue;
                }
                let d = euclid(positions[u], positions[v]);
                if best.is_none_or(|(bd, _, _)| d < bd) {
                    best = Some((d, u, v));
                }
            }
        }
        let (d, u, v) = best.expect("disconnected graph has an inter-component pair");
        graph
            .add_edge(NodeId(u), NodeId(v), d.max(f64::MIN_POSITIVE))
            .expect("inter-component edge cannot already exist");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn er_is_connected_and_euclidean() {
        let mut rng = StdRng::seed_from_u64(42);
        let t = euclidean_er(60, 0.08, 100.0, &mut rng).unwrap();
        assert!(t.graph.is_connected());
        assert_eq!(t.positions.len(), 60);
        for e in t.graph.edges() {
            let d = t.distance(e.u, e.v);
            assert!((e.weight - d).abs() < 1e-9, "weight must equal distance");
        }
    }

    #[test]
    fn er_is_deterministic_per_seed() {
        let a = euclidean_er(30, 0.1, 50.0, &mut StdRng::seed_from_u64(1)).unwrap();
        let b = euclidean_er(30, 0.1, 50.0, &mut StdRng::seed_from_u64(1)).unwrap();
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
        assert_eq!(a.positions, b.positions);
        let c = euclidean_er(30, 0.1, 50.0, &mut StdRng::seed_from_u64(2)).unwrap();
        assert_ne!(a.positions, c.positions);
    }

    #[test]
    fn sparse_er_gets_augmented_to_connected() {
        // p = 0 forces the augmentation to build the whole connectivity.
        let mut rng = StdRng::seed_from_u64(5);
        let t = euclidean_er(25, 0.0, 100.0, &mut rng).unwrap();
        assert!(t.graph.is_connected());
        assert!(t.graph.edge_count() >= 24);
    }

    #[test]
    fn dense_er_has_roughly_p_fraction_of_edges() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 80;
        let p = 0.3;
        let t = euclidean_er(n, p, 100.0, &mut rng).unwrap();
        let pairs = (n * (n - 1) / 2) as f64;
        let frac = t.graph.edge_count() as f64 / pairs;
        assert!((frac - p).abs() < 0.06, "edge fraction {frac} far from {p}");
    }

    #[test]
    fn geometric_respects_radius() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = random_geometric(40, 30.0, 100.0, &mut rng).unwrap();
        assert!(t.graph.is_connected());
        // Non-augmentation edges must be shorter than the radius; count how
        // many exceed it (those are augmentation bridges).
        let long = t.graph.edges().filter(|e| e.weight >= 30.0).count();
        let within = t.graph.edges().filter(|e| e.weight < 30.0).count();
        assert!(within > long, "most edges should respect the radius");
    }

    #[test]
    fn waxman_is_connected_euclidean_and_seed_deterministic() {
        let a = waxman(60, 0.15, 0.4, 100.0, &mut StdRng::seed_from_u64(11)).unwrap();
        assert!(a.graph.is_connected());
        assert_eq!(a.graph.node_count(), 60);
        for e in a.graph.edges() {
            let d = a.distance(e.u, e.v);
            assert!((e.weight - d).abs() < 1e-9, "weight must equal distance");
        }
        let b = waxman(60, 0.15, 0.4, 100.0, &mut StdRng::seed_from_u64(11)).unwrap();
        assert_eq!(a.positions, b.positions);
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
        let c = waxman(60, 0.15, 0.4, 100.0, &mut StdRng::seed_from_u64(12)).unwrap();
        assert_ne!(a.positions, c.positions);
    }

    #[test]
    fn waxman_locality_bias_favours_short_edges() {
        // With a small alpha, the mean realised edge length must sit well
        // below the mean pairwise distance (~52 for a unit square scaled
        // by 100).
        let t = waxman(120, 0.05, 0.9, 100.0, &mut StdRng::seed_from_u64(21)).unwrap();
        let (sum, cnt) = t
            .graph
            .edges()
            .fold((0.0, 0usize), |(s, c), e| (s + e.weight, c + 1));
        assert!(cnt > 0);
        let mean = sum / cnt as f64;
        assert!(mean < 35.0, "mean edge length {mean}");
    }

    #[test]
    fn waxman_beta_zero_leaves_only_augmentation_edges() {
        let t = waxman(20, 0.2, 0.0, 100.0, &mut StdRng::seed_from_u64(4)).unwrap();
        assert!(t.graph.is_connected());
        assert_eq!(t.graph.edge_count(), 19, "spanning augmentation only");
    }

    #[test]
    fn rejects_bad_parameters() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(euclidean_er(0, 0.5, 100.0, &mut rng).is_err());
        assert!(euclidean_er(5, -0.1, 100.0, &mut rng).is_err());
        assert!(euclidean_er(5, 1.5, 100.0, &mut rng).is_err());
        assert!(euclidean_er(5, 0.5, 0.0, &mut rng).is_err());
        assert!(random_geometric(0, 1.0, 100.0, &mut rng).is_err());
        assert!(random_geometric(5, 0.0, 100.0, &mut rng).is_err());
        assert!(random_geometric(5, 1.0, -3.0, &mut rng).is_err());
        assert!(waxman(0, 0.2, 0.4, 100.0, &mut rng).is_err());
        assert!(waxman(5, 0.0, 0.4, 100.0, &mut rng).is_err());
        assert!(waxman(5, 0.2, 1.5, 100.0, &mut rng).is_err());
        assert!(waxman(5, 0.2, -0.1, 100.0, &mut rng).is_err());
        assert!(waxman(5, 0.2, 0.4, f64::NAN, &mut rng).is_err());
    }

    #[test]
    fn grid_has_lattice_structure() {
        let g = grid(3, 4, 2.0).unwrap();
        assert_eq!(g.node_count(), 12);
        // Edges: 3 rows x 3 horizontal + 2 x 4 vertical = 9 + 8.
        assert_eq!(g.edge_count(), 17);
        assert!(g.is_connected());
        // Corner degree 2, inner degree 4.
        assert_eq!(g.degree(NodeId(0)), 2);
        assert_eq!(g.degree(NodeId(5)), 4);
        // Manhattan distance holds under uniform costs.
        let sp = g.dijkstra(NodeId(0));
        assert_eq!(sp.distance(NodeId(11)), Some(2.0 * 5.0));
        assert!(grid(0, 3, 1.0).is_err());
        assert!(grid(3, 3, 0.0).is_err());
    }

    #[test]
    fn fat_tree_k4_has_standard_shape() {
        let g = fat_tree(4, 1.0).unwrap();
        // k=4: 4 cores + 4 pods x 4 switches + 16 hosts = 36 nodes.
        assert_eq!(g.node_count(), 36);
        assert!(g.is_connected());
        // Cores connect to one aggregation per pod: degree k.
        for c in 0..4 {
            assert_eq!(g.degree(NodeId(c)), 4, "core {c}");
        }
        // Hosts are leaves.
        for h in 20..36 {
            assert_eq!(g.degree(NodeId(h)), 1, "host {h}");
        }
        // Any host reaches any other host (intra-pod via edge/agg,
        // inter-pod via core): diameter 6 hops at unit cost.
        let d = g.dijkstra(NodeId(20)).distance(NodeId(35)).unwrap();
        assert_eq!(d, 6.0, "inter-pod host distance");
        assert!(fat_tree(3, 1.0).is_err());
        assert!(fat_tree(4, -1.0).is_err());
    }

    #[test]
    fn single_node_topology_is_trivially_connected() {
        let mut rng = StdRng::seed_from_u64(8);
        let t = euclidean_er(1, 0.5, 100.0, &mut rng).unwrap();
        assert_eq!(t.graph.node_count(), 1);
        assert_eq!(t.graph.edge_count(), 0);
        assert!(t.graph.is_connected());
    }
}
