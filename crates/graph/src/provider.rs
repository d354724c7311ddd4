//! On-demand shortest-path distances: the workspace's one distance engine.
//!
//! The paper's algorithms are stated over a precomputed all-pairs matrix
//! (Theorem 5 charges Floyd's `O(|V|³)`), but a single embedding only
//! ever touches a handful of sources: the source, the servers and the
//! destinations. [`LazyDistances`] keeps a flat CSR copy of the adjacency
//! (built once per graph), runs per-source Dijkstra the first time a row
//! is asked for, and memoizes the row in a write-once slot so every later
//! query — from any thread — reads it without a lock.
//!
//! # Determinism
//!
//! A row is computed by the same Dijkstra core as [`Graph::dijkstra`],
//! expanding neighbors in the graph's adjacency insertion order, so
//! [`LazyDistances::distance`] equals `graph.dijkstra(u).distance(v)` bit
//! for bit and shortest-path tie-breaks never depend on which thread
//! computed a row or in what order rows were filled.
//!
//! # Aggregate semantics on disconnected graphs
//!
//! [`LazyDistances::average_distance`] averages over ordered pairs of
//! distinct, *mutually reachable* nodes — unreachable (infinite) pairs
//! are skipped, never poisoning the average — and
//! [`LazyDistances::diameter`] is the largest *finite* pairwise distance.
//! Both return 0.0 when no qualifying pair exists. They stream rows
//! (compute, fold, discard), so the aggregates stay O(n) resident.

use crate::cancel::{CancelToken, Cancelled};
use crate::dijkstra::dijkstra_core_cancellable;
use crate::{Graph, NodeId};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// One memoized Dijkstra row: distances from a fixed source plus the
/// first hop towards every reachable target.
#[derive(Debug)]
struct Row {
    dist: Vec<f64>,
    // next[t] = the node following the source on a shortest source->t path.
    next: Vec<Option<NodeId>>,
}

/// On-demand shortest paths over a flat CSR adjacency.
///
/// Built once per graph by [`LazyDistances::new`]. Rows are computed by
/// per-source Dijkstra on first use and kept for the engine's lifetime;
/// the engine is `Sync`, so clones of a network snapshot sharing it behind
/// an `Arc` reuse each other's rows. Out-of-bounds nodes panic.
pub struct LazyDistances {
    n: usize,
    // CSR: the neighbors of u are neighbors[offsets[u]..offsets[u+1]],
    // in the graph's adjacency insertion order (which fixes Dijkstra
    // tie-breaks — see the module docs).
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
    costs: Vec<f64>,
    // Effective latency per arc, aligned with `neighbors`; `None` when
    // the graph carries no explicit latency, so delay == cost everywhere.
    lats: Option<Vec<f64>>,
    // Write-once row slots: a hit is one acquire load. A miss computes
    // outside any lock and publishes with `set`; a racing miss computes
    // the same deterministic row and keeps whichever landed first.
    rows: Box<[OnceLock<Row>]>,
    misses: AtomicU64,
    resident: AtomicU64,
}

impl fmt::Debug for LazyDistances {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LazyDistances")
            .field("n", &self.n)
            .field("arcs", &self.neighbors.len())
            .field("rows_materialized", &self.rows_materialized())
            .finish()
    }
}

impl LazyDistances {
    /// Snapshots `graph` into the packed CSR arrays. O(|V| + |E|) time
    /// and memory; no shortest paths are computed yet.
    pub fn new(graph: &Graph) -> LazyDistances {
        let n = graph.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(2 * graph.edge_count());
        let mut costs = Vec::with_capacity(2 * graph.edge_count());
        let mut lats = graph
            .has_edge_latencies()
            .then(|| Vec::with_capacity(2 * graph.edge_count()));
        offsets.push(0);
        for u in 0..n {
            for (v, e) in graph.neighbors(NodeId(u)) {
                neighbors.push(v.0 as u32);
                costs.push(graph.weight(e));
                if let Some(lats) = &mut lats {
                    lats.push(graph.effective_latency(e));
                }
            }
            offsets.push(u32::try_from(neighbors.len()).expect("graph exceeds u32 arc capacity"));
        }
        LazyDistances {
            n,
            offsets,
            neighbors,
            costs,
            lats,
            rows: (0..n).map(|_| OnceLock::new()).collect(),
            misses: AtomicU64::new(0),
            resident: AtomicU64::new(0),
        }
    }

    /// Number of nodes the engine covers.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Runs Dijkstra from `s` over the CSR arrays and derives each
    /// target's first hop by walking predecessors back to the source.
    fn compute_row(&self, s: usize, cancel: Option<&CancelToken>) -> Result<Row, Cancelled> {
        let sp = dijkstra_core_cancellable(
            self.n,
            NodeId(s),
            None,
            |u, visit| {
                let lo = self.offsets[u.0] as usize;
                let hi = self.offsets[u.0 + 1] as usize;
                for i in lo..hi {
                    visit(NodeId(self.neighbors[i] as usize), self.costs[i]);
                }
            },
            cancel,
        )?;
        let mut dist = vec![f64::INFINITY; self.n];
        let mut next = vec![None; self.n];
        for (t, d) in sp.reached() {
            dist[t.0] = d;
            if t.0 == s {
                continue;
            }
            let mut cur = t;
            loop {
                match sp.predecessor(cur) {
                    Some(p) if p.0 == s => break,
                    Some(p) => cur = p,
                    None => break,
                }
            }
            next[t.0] = Some(cur);
        }
        Ok(Row { dist, next })
    }

    /// The memoized row for source `s`, computing and publishing it on a
    /// miss. A cancelled computation leaves the slot empty.
    #[inline]
    fn row(&self, s: usize, cancel: Option<&CancelToken>) -> Result<&Row, Cancelled> {
        match self.rows[s].get() {
            Some(row) => Ok(row),
            None => self.fill_row(s, cancel),
        }
    }

    /// The miss path of [`LazyDistances::row`], kept out of line so that
    /// callers in other crates inline only the hit.
    #[cold]
    fn fill_row(&self, s: usize, cancel: Option<&CancelToken>) -> Result<&Row, Cancelled> {
        self.misses.fetch_add(1, Ordering::Relaxed);
        let row = self.compute_row(s, cancel)?;
        let slot = &self.rows[s];
        if slot.set(row).is_ok() {
            self.resident.fetch_add(1, Ordering::Relaxed);
        }
        Ok(slot.get().expect("the slot was filled above"))
    }

    /// Shortest-path distance from `u` to `v`, or `None` if unreachable.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of bounds.
    #[inline]
    pub fn distance(&self, u: NodeId, v: NodeId) -> Option<f64> {
        match self.try_distance(u, v, None) {
            Ok(d) => d,
            Err(Cancelled) => unreachable!("no token was supplied"),
        }
    }

    /// The node sequence of a shortest path from `u` to `v` (both
    /// endpoints included; `[u]` for `u == v`), or `None` if unreachable.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of bounds.
    pub fn path(&self, u: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
        match self.try_path(u, v, None) {
            Ok(p) => p,
            Err(Cancelled) => unreachable!("no token was supplied"),
        }
    }

    /// [`LazyDistances::distance`] with a cancellation poll inside any
    /// row computation.
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when `cancel` trips mid-computation.
    #[inline]
    pub fn try_distance(
        &self,
        u: NodeId,
        v: NodeId,
        cancel: Option<&CancelToken>,
    ) -> Result<Option<f64>, Cancelled> {
        let d = self.row(u.0, cancel)?.dist[v.0];
        Ok(d.is_finite().then_some(d))
    }

    /// [`LazyDistances::path`] with a cancellation poll inside any row
    /// computation.
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when `cancel` trips mid-computation.
    pub fn try_path(
        &self,
        u: NodeId,
        v: NodeId,
        cancel: Option<&CancelToken>,
    ) -> Result<Option<Vec<NodeId>>, Cancelled> {
        if self.try_distance(u, v, cancel)?.is_none() {
            return Ok(None);
        }
        // Each step consults the *current* node's row, so the path is the
        // concatenation of first hops and every suffix is itself canonical.
        let mut path = vec![u];
        let mut cur = u;
        while cur != v {
            match self.row(cur.0, cancel)?.next[v.0] {
                Some(next) => {
                    path.push(next);
                    cur = next;
                }
                None => return Ok(None),
            }
        }
        Ok(Some(path))
    }

    /// The (cost, delay) pair of the canonical shortest `u`→`v` path: cost
    /// is [`LazyDistances::distance`], delay is the sum of effective edge
    /// latencies along exactly the node sequence [`LazyDistances::path`]
    /// returns. On a latency-free graph the delay *is* the cost (latencies
    /// default to weights), so the cost-only model is reproduced bit for
    /// bit. `None` when unreachable.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of bounds.
    pub fn distance_and_delay(&self, u: NodeId, v: NodeId) -> Option<(f64, f64)> {
        let cost = self.distance(u, v)?;
        let Some(lats) = &self.lats else {
            return Some((cost, cost));
        };
        let path = self.path(u, v)?;
        let mut delay = 0.0;
        for hop in path.windows(2) {
            let lo = self.offsets[hop[0].0] as usize;
            let hi = self.offsets[hop[0].0 + 1] as usize;
            let arc = (lo..hi)
                .find(|&i| self.neighbors[i] as usize == hop[1].0)
                .expect("canonical path only uses stored arcs");
            delay += lats[arc];
        }
        Some((cost, delay))
    }

    /// Streams every row through `fold` — memoized rows are reused,
    /// missing ones are computed and *discarded*, so aggregate queries
    /// never grow the resident-row count or the miss counter.
    fn scan_rows(&self, mut fold: impl FnMut(usize, &[f64])) {
        for s in 0..self.n {
            match self.rows[s].get() {
                Some(row) => fold(s, &row.dist),
                None => match self.compute_row(s, None) {
                    Ok(row) => fold(s, &row.dist),
                    Err(Cancelled) => unreachable!("no token was supplied"),
                },
            }
        }
    }

    /// Average distance over ordered pairs of distinct mutually reachable
    /// nodes — the paper's `l_G` normalizer for VNF deployment costs; 0.0
    /// when no such pair exists. See the module docs for the
    /// disconnected-graph contract.
    pub fn average_distance(&self) -> f64 {
        let mut total = 0.0;
        let mut count = 0u64;
        self.scan_rows(|s, dist| {
            for (t, &d) in dist.iter().enumerate() {
                if t != s && d.is_finite() {
                    total += d;
                    count += 1;
                }
            }
        });
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }

    /// Largest finite pairwise distance; 0.0 below two reachable nodes.
    pub fn diameter(&self) -> f64 {
        let mut max = 0.0f64;
        self.scan_rows(|_, dist| {
            for &d in dist {
                if d.is_finite() && d > max {
                    max = d;
                }
            }
        });
        max
    }

    /// Distance rows currently resident in memory.
    pub fn rows_materialized(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// High-water mark of resident rows. Rows are never dropped, so this
    /// is [`LazyDistances::rows_materialized`].
    pub fn peak_rows(&self) -> u64 {
        self.rows_materialized()
    }

    /// Always 0: hits are not counted, because a per-query counter costs
    /// more than the hit itself. Kept for callers that still report it.
    pub fn row_hits(&self) -> u64 {
        0
    }

    /// Row computations started: one per first query of a source, plus
    /// any that a concurrent miss or a cancellation made redundant.
    pub fn row_misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
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
    fn rows_are_bit_identical_to_graph_dijkstra() {
        let g = sample();
        let lazy = LazyDistances::new(&g);
        for s in g.nodes() {
            let sp = g.dijkstra(s);
            for t in g.nodes() {
                // Not approximate: Option<f64> equality.
                assert_eq!(lazy.distance(s, t), sp.distance(t), "distance {s:?}->{t:?}");
                let p = lazy.path(s, t).unwrap();
                assert_eq!((p[0], *p.last().unwrap()), (s, t));
                let w = g.path_weight(&p).unwrap();
                assert!(
                    (w - sp.distance(t).unwrap()).abs() < 1e-12,
                    "path {s:?}->{t:?}"
                );
            }
        }
        assert_eq!(lazy.rows_materialized(), 5);
        assert_eq!(lazy.peak_rows(), 5);
    }

    #[test]
    fn delay_equals_cost_on_a_latency_free_graph() {
        let g = sample();
        let lazy = LazyDistances::new(&g);
        for s in g.nodes() {
            for t in g.nodes() {
                let expect = lazy.distance(s, t).map(|d| (d, d));
                assert_eq!(lazy.distance_and_delay(s, t), expect, "{s:?}->{t:?}");
            }
        }
    }

    #[test]
    fn delay_sums_latencies_along_the_canonical_path() {
        // Give every edge a latency decoupled from its weight so the delay
        // component genuinely exercises the canonical-path walk.
        let mut g = sample();
        for (i, e) in g.edge_ids().collect::<Vec<_>>().into_iter().enumerate() {
            g.set_edge_latency(e, Some(0.5 + i as f64 * 0.25)).unwrap();
        }
        let lazy = LazyDistances::new(&g);
        let mut saw_divergence = false;
        for s in g.nodes() {
            for t in g.nodes() {
                let (cost, delay) = lazy.distance_and_delay(s, t).unwrap();
                let path = lazy.path(s, t).unwrap();
                let expect: f64 = path
                    .windows(2)
                    .map(|w| g.effective_latency(g.find_edge(w[0], w[1]).unwrap()))
                    .sum();
                assert_eq!(Some(cost), lazy.distance(s, t));
                assert_eq!(delay, expect, "pair {s:?}->{t:?}");
                if (cost - delay).abs() > 1e-9 {
                    saw_divergence = true;
                }
            }
        }
        assert!(saw_divergence, "latencies should decouple delay from cost");
    }

    #[test]
    fn telemetry_counts_misses_and_rows() {
        let g = sample();
        let lazy = LazyDistances::new(&g);
        assert_eq!(lazy.rows_materialized(), 0);
        lazy.distance(NodeId(0), NodeId(3));
        assert_eq!((lazy.row_hits(), lazy.row_misses()), (0, 1));
        lazy.distance(NodeId(0), NodeId(4));
        assert_eq!((lazy.row_hits(), lazy.row_misses()), (0, 1));
        assert_eq!(lazy.rows_materialized(), 1);
    }

    #[test]
    fn concurrent_cold_queries_match_a_sequential_engine() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let g = crate::generate::euclidean_er(40, 0.1, 100.0, &mut rng)
            .unwrap()
            .graph;
        let sequential = LazyDistances::new(&g);
        let shared = LazyDistances::new(&g);
        let barrier = std::sync::Barrier::new(4);
        let answers: Vec<Vec<_>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let mut out = Vec::new();
                        for s in g.nodes() {
                            for t in g.nodes() {
                                out.push((shared.distance(s, t), shared.path(s, t)));
                            }
                        }
                        out
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("query thread panicked"))
                .collect()
        });
        let expect: Vec<_> = g
            .nodes()
            .flat_map(|s| g.nodes().map(move |t| (s, t)))
            .map(|(s, t)| (sequential.distance(s, t), sequential.path(s, t)))
            .collect();
        for got in &answers {
            // Bit-for-bit: Option<f64> equality plus identical paths.
            assert_eq!(got, &expect);
        }
        assert_eq!(shared.rows_materialized(), g.node_count() as u64);
    }

    #[test]
    fn aggregates_skip_unreachable_pairs() {
        // Two components: unreachable pairs are skipped by the average
        // (3+3+4+4)/4 and the diameter is the largest finite distance.
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 3.0).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 4.0).unwrap();
        let lazy = LazyDistances::new(&g);
        assert!((lazy.average_distance() - 3.5).abs() < 1e-12);
        assert!((lazy.diameter() - 4.0).abs() < 1e-12);
        // Aggregates stream: nothing stays resident, counters untouched.
        assert_eq!((lazy.rows_materialized(), lazy.row_misses()), (0, 0));
        assert_eq!(lazy.distance(NodeId(0), NodeId(2)), None);
        assert!(lazy.path(NodeId(0), NodeId(3)).is_none());
    }

    #[test]
    fn empty_and_singleton_aggregates_are_zero() {
        let lazy = LazyDistances::new(&Graph::new(0));
        assert_eq!(lazy.average_distance(), 0.0);
        let one = LazyDistances::new(&Graph::new(1));
        assert_eq!(one.average_distance(), 0.0);
        assert_eq!(one.diameter(), 0.0);
        assert_eq!(one.distance(NodeId(0), NodeId(0)), Some(0.0));
        assert_eq!(one.path(NodeId(0), NodeId(0)).unwrap(), vec![NodeId(0)]);
    }

    #[test]
    fn a_tripped_token_interrupts_row_computation() {
        let g = sample();
        let lazy = LazyDistances::new(&g);
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            lazy.try_distance(NodeId(0), NodeId(3), Some(&token)),
            Err(Cancelled)
        );
        // The failed row was not cached; a live query still works.
        assert_eq!(lazy.rows_materialized(), 0);
        assert_eq!(lazy.distance(NodeId(0), NodeId(3)), Some(17.0));
    }

    #[test]
    fn out_of_bounds_nodes_panic() {
        let lazy = LazyDistances::new(&sample());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            lazy.distance(NodeId(0), NodeId(99))
        }));
        assert!(r.is_err());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            lazy.distance(NodeId(99), NodeId(0))
        }));
        assert!(r.is_err());
    }
}
