//! Single-source shortest paths (Dijkstra's algorithm).
//!
//! [`crate::Graph`]'s `dijkstra` methods run the core in this module over
//! the graph's adjacency lists; the distance engine ([`crate::provider`])
//! runs the same search over its CSR arrays. The paper uses Dijkstra
//! twice: over the expanded MOD network to find the optimal single-chain
//! embedding (Theorem 2; `sft-core` solves that layered DAG column by
//! column with this search's tie rule), and inside the
//! Kou–Markowsky–Berman Steiner construction.

use crate::{Graph, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of a single-source shortest-path computation.
///
/// Unreached nodes have no distance and no predecessor.
#[derive(Clone, Debug)]
pub struct ShortestPaths {
    source: NodeId,
    dist: Vec<f64>,
    pred: Vec<Option<NodeId>>,
}

impl ShortestPaths {
    /// The source node the search started from.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Distance from the source to `t`, or `None` if `t` was not reached.
    pub fn distance(&self, t: NodeId) -> Option<f64> {
        let d = *self.dist.get(t.0)?;
        d.is_finite().then_some(d)
    }

    /// Predecessor of `t` on the shortest path tree, if reached and not the
    /// source itself.
    pub fn predecessor(&self, t: NodeId) -> Option<NodeId> {
        *self.pred.get(t.0)?
    }

    /// The node sequence of a shortest path from the source to `t`, or
    /// `None` if `t` was not reached. The path includes both endpoints; the
    /// path from the source to itself is `[source]`.
    pub fn path_to(&self, t: NodeId) -> Option<Vec<NodeId>> {
        self.distance(t)?;
        let mut path = vec![t];
        let mut cur = t;
        while let Some(p) = self.pred[cur.0] {
            path.push(p);
            cur = p;
        }
        debug_assert_eq!(cur, self.source);
        path.reverse();
        Some(path)
    }

    /// Iterator over all reached nodes together with their distances.
    pub fn reached(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.dist
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_finite())
            .map(|(i, &d)| (NodeId(i), d))
    }
}

/// Total-order wrapper over `f64` distances for the binary heap.
#[derive(Copy, Clone, PartialEq)]
pub(crate) struct HeapKey(pub(crate) f64);

impl Eq for HeapKey {}

impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Shared Dijkstra implementation over an adjacency callback.
///
/// `expand(u, visit)` must call `visit(v, w)` for every arc `u -> v` of
/// weight `w >= 0`. When `target` is given the search stops as soon as the
/// target is settled.
pub(crate) fn dijkstra_core<F>(
    n: usize,
    source: NodeId,
    target: Option<NodeId>,
    mut expand: F,
) -> ShortestPaths
where
    F: FnMut(NodeId, &mut dyn FnMut(NodeId, f64)),
{
    assert!(source.0 < n, "dijkstra source {source:?} out of bounds");
    let mut dist = vec![f64::INFINITY; n];
    let mut pred = vec![None; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[source.0] = 0.0;
    heap.push(Reverse((HeapKey(0.0), source.0)));

    while let Some(Reverse((HeapKey(d), u))) = heap.pop() {
        if settled[u] {
            continue;
        }
        settled[u] = true;
        if target == Some(NodeId(u)) {
            break;
        }
        expand(NodeId(u), &mut |v: NodeId, w: f64| {
            debug_assert!(w >= 0.0, "negative arc weight in dijkstra");
            let nd = d + w;
            if nd < dist[v.0] {
                dist[v.0] = nd;
                pred[v.0] = Some(NodeId(u));
                heap.push(Reverse((HeapKey(nd), v.0)));
            }
        });
    }

    ShortestPaths { source, dist, pred }
}

impl Graph {
    /// Single-source shortest paths from `source` (Dijkstra).
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of bounds.
    ///
    /// ```
    /// use sft_graph::{Graph, NodeId};
    /// # fn main() -> Result<(), sft_graph::GraphError> {
    /// let mut g = Graph::new(3);
    /// g.add_edge(NodeId(0), NodeId(1), 2.0)?;
    /// g.add_edge(NodeId(1), NodeId(2), 2.0)?;
    /// g.add_edge(NodeId(0), NodeId(2), 5.0)?;
    /// assert_eq!(g.dijkstra(NodeId(0)).distance(NodeId(2)), Some(4.0));
    /// # Ok(())
    /// # }
    /// ```
    pub fn dijkstra(&self, source: NodeId) -> ShortestPaths {
        dijkstra_core(self.node_count(), source, None, |u, visit| {
            for (v, e) in self.neighbors(u) {
                visit(v, self.weight(e));
            }
        })
    }

    /// Shortest paths from `source`, stopping early once `target` settles.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of bounds.
    pub fn dijkstra_to(&self, source: NodeId, target: NodeId) -> ShortestPaths {
        dijkstra_core(self.node_count(), source, Some(target), |u, visit| {
            for (v, e) in self.neighbors(u) {
                visit(v, self.weight(e));
            }
        })
    }

    /// [`Graph::dijkstra`] under a caller-supplied per-edge weight (see
    /// [`Graph::dijkstra_to_with`]). Every node the early-stopped search
    /// would settle before `target` settles here in the same order with
    /// the same predecessor, so `path_to(target)` agrees with it.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of bounds.
    pub fn dijkstra_with<F>(&self, source: NodeId, weight: F) -> ShortestPaths
    where
        F: Fn(crate::EdgeId) -> f64,
    {
        dijkstra_core(self.node_count(), source, None, |u, visit| {
            for (v, e) in self.neighbors(u) {
                visit(v, weight(e));
            }
        })
    }

    /// [`Graph::dijkstra_to`] under a caller-supplied per-edge weight, such
    /// as the delay repair's `cost + λ·latency`. `weight` must return a
    /// finite, non-negative value for every edge. The repair itself runs
    /// on [`crate::LazyDistances::predecessors_with`]; this search is its
    /// oracle in tests.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of bounds.
    pub fn dijkstra_to_with<F>(&self, source: NodeId, target: NodeId, weight: F) -> ShortestPaths
    where
        F: Fn(crate::EdgeId) -> f64,
    {
        dijkstra_core(self.node_count(), source, Some(target), |u, visit| {
            for (v, e) in self.neighbors(u) {
                visit(v, weight(e));
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphError;

    fn sample() -> Graph {
        // Classic 5-node example with a tempting-but-wrong direct edge.
        let mut g = Graph::new(5);
        g.add_edge(NodeId(0), NodeId(1), 7.0).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 9.0).unwrap();
        g.add_edge(NodeId(0), NodeId(4), 14.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 10.0).unwrap();
        g.add_edge(NodeId(1), NodeId(3), 15.0).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 11.0).unwrap();
        g.add_edge(NodeId(2), NodeId(4), 2.0).unwrap();
        g.add_edge(NodeId(3), NodeId(4), 6.0).unwrap();
        g
    }

    #[test]
    fn distances_match_hand_computation() {
        let sp = sample().dijkstra(NodeId(0));
        assert_eq!(sp.distance(NodeId(0)), Some(0.0));
        assert_eq!(sp.distance(NodeId(1)), Some(7.0));
        assert_eq!(sp.distance(NodeId(2)), Some(9.0));
        assert_eq!(sp.distance(NodeId(3)), Some(17.0)); // 0-2-4-3 = 9+2+6, beats 0-2-3 = 20
        assert_eq!(sp.distance(NodeId(4)), Some(11.0));
    }

    #[test]
    fn path_reconstruction_is_consistent_with_distance() {
        let g = sample();
        let sp = g.dijkstra(NodeId(0));
        for t in g.nodes() {
            let path = sp.path_to(t).unwrap();
            assert_eq!(path.first(), Some(&NodeId(0)));
            assert_eq!(path.last(), Some(&t));
            let w = g.path_weight(&path).unwrap();
            assert!((w - sp.distance(t).unwrap()).abs() < 1e-12);
        }
    }

    #[test]
    fn unreachable_nodes_have_no_distance_or_path() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        let sp = g.dijkstra(NodeId(0));
        assert_eq!(sp.distance(NodeId(2)), None);
        assert!(sp.path_to(NodeId(2)).is_none());
        assert_eq!(sp.reached().count(), 2);
    }

    #[test]
    fn source_path_is_singleton() {
        let sp = sample().dijkstra(NodeId(3));
        assert_eq!(sp.path_to(NodeId(3)).unwrap(), vec![NodeId(3)]);
        assert_eq!(sp.predecessor(NodeId(3)), None);
        assert_eq!(sp.source(), NodeId(3));
    }

    #[test]
    fn zero_weight_edges_propagate() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 0.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.0).unwrap();
        let sp = g.dijkstra(NodeId(0));
        assert_eq!(sp.distance(NodeId(2)), Some(0.0));
        assert_eq!(sp.path_to(NodeId(2)).unwrap().len(), 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_source_panics() {
        sample().dijkstra(NodeId(99));
    }

    #[test]
    fn early_exit_matches_full_run() {
        let g = sample();
        let full = g.dijkstra(NodeId(0));
        let early = g.dijkstra_to(NodeId(0), NodeId(3));
        assert_eq!(early.distance(NodeId(3)), full.distance(NodeId(3)));
        assert_eq!(early.path_to(NodeId(3)), full.path_to(NodeId(3)));
    }

    #[test]
    fn a_full_tree_reads_every_early_stopped_path_ties_included() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..300 {
            // Small integer weights, zeros included, make equal-distance
            // paths common.
            let n = rng.random_range(2..=9usize);
            let mut g = Graph::new(n);
            for u in 0..n {
                for v in u + 1..n {
                    if rng.random_range(0..2u32) == 0 {
                        let w = f64::from(rng.random_range(0..=2u32));
                        g.add_edge(NodeId(u), NodeId(v), w).unwrap();
                    }
                }
            }
            let metric = |e: crate::EdgeId| g.weight(e) + 0.25 * g.effective_latency(e);
            for s in g.nodes() {
                let full = g.dijkstra_with(s, metric);
                for t in g.nodes() {
                    let early = g.dijkstra_to_with(s, t, metric);
                    assert_eq!(full.path_to(t), early.path_to(t), "{s:?} -> {t:?}");
                }
            }
        }
    }

    #[test]
    fn works_on_disconnected_then_bridged_graph() -> Result<(), GraphError> {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0)?;
        g.add_edge(NodeId(2), NodeId(3), 1.0)?;
        assert_eq!(g.dijkstra(NodeId(0)).distance(NodeId(3)), None);
        g.add_edge(NodeId(1), NodeId(2), 1.0)?;
        assert_eq!(g.dijkstra(NodeId(0)).distance(NodeId(3)), Some(3.0));
        Ok(())
    }

    #[test]
    fn heap_key_is_a_total_order_even_for_nan() {
        // The heap ordering must be total: a NaN that slipped past input
        // validation may sort arbitrarily but must not corrupt the heap's
        // internal invariants (which a partial-order comparator would).
        use std::cmp::Ordering;
        let nan = HeapKey(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert_eq!(HeapKey(1.0).cmp(&HeapKey(1.0)), Ordering::Equal);
        assert_eq!(HeapKey(1.0).cmp(&HeapKey(2.0)), Ordering::Less);
        // total_cmp sorts every NaN above every real number (positive NaN).
        assert_eq!(HeapKey(1.0).cmp(&nan), Ordering::Less);
        assert_eq!(nan.partial_cmp(&nan), Some(Ordering::Equal));
        let mut keys = [nan, HeapKey(2.0), HeapKey(-1.0), HeapKey(0.0)];
        keys.sort(); // would panic under a broken Ord in debug builds
        assert_eq!(keys[0].0, -1.0);
    }

    #[test]
    fn a_tripped_token_interrupts_and_a_live_one_changes_nothing() {
        // The cancellable form of this search is the distance engine's
        // kernel; a row fill is a full search from the source.
        use crate::{CancelToken, Cancelled, LazyDistances};
        let mut g = Graph::new(200);
        for i in 0..199 {
            g.add_edge(NodeId(i), NodeId(i + 1), 1.0).unwrap();
        }
        let lazy = LazyDistances::new(&g);
        let tripped = CancelToken::new();
        tripped.cancel();
        let r = lazy.try_distance(NodeId(0), NodeId(199), Some(&tripped));
        assert_eq!(r, Err(Cancelled));

        let live = CancelToken::new();
        let d = lazy
            .try_distance(NodeId(0), NodeId(199), Some(&live))
            .expect("a live token never interrupts");
        assert_eq!(d, Some(199.0));
    }

    #[test]
    fn nan_weights_never_reach_the_heap() {
        // First line of defense: construction rejects non-finite weights,
        // so dijkstra never sees a NaN distance.
        let mut g = Graph::new(2);
        assert!(g.add_edge(NodeId(0), NodeId(1), f64::NAN).is_err());
        assert!(g.add_edge(NodeId(0), NodeId(1), f64::INFINITY).is_err());
        assert!(g.add_edge(NodeId(0), NodeId(1), -1.0).is_err());
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.dijkstra(NodeId(0)).distance(NodeId(1)), None);
    }
}
