//! On-demand shortest-path distances: the workspace's one distance engine.
//!
//! The paper's algorithms are stated over a precomputed all-pairs matrix
//! (Theorem 5 charges Floyd's `O(|V|³)`). [`LazyDistances`] keeps a flat
//! CSR copy of the adjacency (built once per graph), runs per-source
//! Dijkstra the first time a row is asked for, and memoizes the row in a
//! write-once slot so every later query — from any thread — reads it
//! without a lock. A solve fills the rows of the source, the servers and
//! the destinations, plus one row per node of every path it reads: a
//! [`LazyDistances::path`] consults the row of each node it passes.
//!
//! # Row layout
//!
//! A row costs 12 bytes per node: an 8-byte distance and a 4-byte first
//! hop (`u32`, [`NO_NODE`] for the source and unreached targets). The
//! search writes distances straight into the row and `u32` predecessors
//! into its first-hop array, then one pass in settle order turns each
//! predecessor into a first hop, since a node's parent settles before it.
//!
//! # One search kernel
//!
//! Rows and [`LazyDistances::predecessors_with`] run the same Dijkstra
//! over the CSR arrays; the latter weighs each arc by a caller's
//! `metric(cost, latency)`, which is how the delay repair's λ-ladder
//! trees and searches run on this engine.
//!
//! # Determinism
//!
//! The kernel pops `(distance, node id)` in the order
//! [`Graph::dijkstra`] does, expands neighbors in the graph's adjacency
//! insertion order over the same f64 arc weights, and moves a
//! predecessor only on strict improvement. So
//! [`LazyDistances::distance`] equals `graph.dijkstra(u).distance(v)` bit
//! for bit, [`LazyDistances::predecessors_with`] equals
//! [`Graph::dijkstra_with`] under the same metric, and shortest-path
//! tie-breaks never depend on which thread computed a row or in what
//! order rows were filled.
//!
//! # Aggregate semantics on disconnected graphs
//!
//! [`LazyDistances::average_distance`] averages over ordered pairs of
//! distinct, *mutually reachable* nodes — unreachable (infinite) pairs
//! are skipped, never poisoning the average — and
//! [`LazyDistances::diameter`] is the largest *finite* pairwise distance.
//! Both return 0.0 when no qualifying pair exists. They stream rows
//! (compute, fold, discard), so the aggregates stay O(n) resident.

use crate::cancel::{CancelToken, Cancelled, CHECK_INTERVAL};
use crate::dijkstra::HeapKey;
use crate::{Graph, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// "No node" in a first-hop or predecessor array: the source itself and
/// every unreached node.
pub const NO_NODE: u32 = u32::MAX;

/// One memoized Dijkstra row: distances from a fixed source plus the
/// first hop towards every reachable target, 12 bytes per node.
#[derive(Debug)]
struct Row {
    dist: Box<[f64]>,
    // next[t] = the node following the source on a shortest source->t
    // path; NO_NODE for the source and unreached targets.
    next: Box<[u32]>,
}

/// What one kernel search leaves: tentative-or-final distances and
/// predecessors ([`NO_NODE`] where none), and the nodes in settle order.
struct Search {
    dist: Vec<f64>,
    pred: Vec<u32>,
    order: Vec<u32>,
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
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than `u32::MAX` nodes or arcs.
    pub fn new(graph: &Graph) -> LazyDistances {
        let n = graph.node_count();
        // Node ids are stored as u32, all below the NO_NODE sentinel.
        u32::try_from(n).expect("graph exceeds u32 node ids");
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

    /// Dijkstra from `s` over the CSR arrays, weighing arc `i` by
    /// `weight(i)`; stops once `target` settles. Pops `(distance, id)` in
    /// order and moves a predecessor only on strict improvement, exactly as
    /// [`Graph::dijkstra`] does.
    fn search(
        &self,
        s: usize,
        target: Option<usize>,
        weight: impl Fn(usize) -> f64,
        cancel: Option<&CancelToken>,
    ) -> Result<Search, Cancelled> {
        assert!(s < self.n, "dijkstra source {s} out of bounds");
        if let Some(token) = cancel {
            // Upfront poll: an already-tripped token interrupts even on
            // graphs smaller than one batch.
            token.check()?;
        }
        let mut dist = vec![f64::INFINITY; self.n];
        let mut pred = vec![NO_NODE; self.n];
        let mut order = Vec::with_capacity(self.n);
        let mut heap = BinaryHeap::new();
        dist[s] = 0.0;
        heap.push(Reverse((HeapKey(0.0), s as u32)));
        let mut pops: u32 = 0;
        while let Some(Reverse((HeapKey(d), u))) = heap.pop() {
            if let Some(token) = cancel {
                pops += 1;
                if pops >= CHECK_INTERVAL {
                    pops = 0;
                    token.check()?;
                }
            }
            let u = u as usize;
            // A node is pushed only on strict improvement, so exactly one
            // of its entries carries its distance; a larger key is stale.
            if d > dist[u] {
                continue;
            }
            order.push(u as u32);
            if target == Some(u) {
                break;
            }
            for i in self.offsets[u] as usize..self.offsets[u + 1] as usize {
                let w = weight(i);
                debug_assert!(w >= 0.0, "negative arc weight in dijkstra");
                let v = self.neighbors[i] as usize;
                let nd = d + w;
                if nd < dist[v] {
                    dist[v] = nd;
                    pred[v] = u as u32;
                    heap.push(Reverse((HeapKey(nd), v as u32)));
                }
            }
        }
        Ok(Search { dist, pred, order })
    }

    /// The cost row of `s`: the search's distances, and its predecessors
    /// turned into first hops in place. Walking the settle order visits
    /// every parent before its children, so each node copies its parent's
    /// first hop (or is one, when the parent is `s`) in O(n) overall.
    fn compute_row(&self, s: usize, cancel: Option<&CancelToken>) -> Result<Row, Cancelled> {
        let Search {
            dist,
            pred: mut next,
            order,
        } = self.search(s, None, |i| self.costs[i], cancel)?;
        // order[0] is the source, whose slot stays NO_NODE.
        for &t in &order[1..] {
            let parent = next[t as usize];
            next[t as usize] = if parent as usize == s {
                t
            } else {
                next[parent as usize]
            };
        }
        Ok(Row {
            dist: dist.into_boxed_slice(),
            next: next.into_boxed_slice(),
        })
    }

    /// Shortest-path predecessors from `source` when arc `u -> v` weighs
    /// `metric(cost, latency)` (latency is the cost on a latency-free
    /// graph); `metric` must be finite and non-negative. `pred[v]` is
    /// `v`'s parent, [`NO_NODE`] for the source and unreached nodes. With
    /// `target` the search stops once it settles, and only the walk back
    /// from `target` is final: it equals the full tree's path, because
    /// every node on it settled first. Neither fills nor counts a row.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of bounds.
    pub fn predecessors_with(
        &self,
        source: NodeId,
        target: Option<NodeId>,
        metric: impl Fn(f64, f64) -> f64,
    ) -> Box<[u32]> {
        let weight = |i: usize| {
            let cost = self.costs[i];
            metric(cost, self.lats.as_ref().map_or(cost, |lats| lats[i]))
        };
        match self.search(source.0, target.map(|t| t.0), weight, None) {
            Ok(search) => search.pred.into_boxed_slice(),
            Err(Cancelled) => unreachable!("no token was supplied"),
        }
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
                NO_NODE => return Ok(None),
                next => {
                    cur = NodeId(next as usize);
                    path.push(cur);
                }
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
                None => match self.search(s, None, |i| self.costs[i], None) {
                    Ok(search) => fold(s, &search.dist),
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

    /// Bytes held by resident rows: 12 per node per row (see the module
    /// docs).
    pub fn resident_row_bytes(&self) -> u64 {
        self.rows
            .iter()
            .filter_map(OnceLock::get)
            .map(|row| {
                (std::mem::size_of_val(&*row.dist) + std::mem::size_of_val(&*row.next)) as u64
            })
            .sum()
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

    /// The row derivation before rows went compact, kept as the oracle:
    /// `Graph::dijkstra`, then each target's first hop found by walking
    /// predecessors back from the target to the source.
    fn reference_row(g: &Graph, s: NodeId) -> (Vec<Option<f64>>, Vec<Option<NodeId>>) {
        let sp = g.dijkstra(s);
        let mut next = vec![None; g.node_count()];
        for (t, _) in sp.reached() {
            if t == s {
                continue;
            }
            let mut cur = t;
            while let Some(p) = sp.predecessor(cur) {
                if p == s {
                    break;
                }
                cur = p;
            }
            next[t.0] = Some(cur);
        }
        (g.nodes().map(|t| sp.distance(t)).collect(), next)
    }

    /// Small integer weights and latencies (zeros included) make equal
    /// distances common; a cut splits some graphs into unreachable parts,
    /// and latencies are absent, partial or on every link.
    fn tie_heavy_graph(rng: &mut rand::rngs::StdRng) -> Graph {
        use rand::RngExt;
        let n = rng.random_range(1..=12usize);
        let cut = rng.random_range(1..=n);
        let density = [2u32, 4, 7][rng.random_range(0..3usize)];
        let latencies = rng.random_range(0..3u32);
        let mut g = Graph::new(n);
        for u in 0..n {
            for v in u + 1..n {
                if (u < cut) != (v < cut) || rng.random_range(0..10u32) >= density {
                    continue;
                }
                let w = f64::from(rng.random_range(0..=2u32));
                let e = g.add_edge(NodeId(u), NodeId(v), w).unwrap();
                if latencies == 2 || (latencies == 1 && rng.random_range(0..2u32) == 0) {
                    let l = f64::from(rng.random_range(0..=3u32));
                    g.set_edge_latency(e, Some(l)).unwrap();
                }
            }
        }
        g
    }

    #[test]
    fn compact_rows_match_the_reference_derivation_on_tie_heavy_graphs() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let (mut unreachable, mut latency_graphs) = (0, 0);
        for _ in 0..400 {
            let g = tie_heavy_graph(&mut rng);
            latency_graphs += usize::from(g.has_edge_latencies());
            let lazy = LazyDistances::new(&g);
            let reference: Vec<_> = g.nodes().map(|s| reference_row(&g, s)).collect();
            let reference_path = |u: NodeId, v: NodeId| {
                reference[u.0].0[v.0]?;
                let mut path = vec![u];
                let mut cur = u;
                while cur != v {
                    cur = reference[cur.0].1[v.0]?;
                    path.push(cur);
                }
                Some(path)
            };
            for s in g.nodes() {
                let row = lazy.row(s.0, None).unwrap();
                let (dist, next) = &reference[s.0];
                for t in g.nodes() {
                    let want = dist[t.0].unwrap_or(f64::INFINITY);
                    assert_eq!(row.dist[t.0].to_bits(), want.to_bits(), "{s:?}->{t:?}");
                    let hop = next[t.0].map_or(NO_NODE, |h| h.0 as u32);
                    assert_eq!(row.next[t.0], hop, "first hop {s:?}->{t:?}");
                    let path = reference_path(s, t);
                    unreachable += usize::from(path.is_none());
                    let delay = path.as_ref().map(|p| {
                        let cost = dist[t.0].unwrap();
                        if !g.has_edge_latencies() {
                            return (cost, cost);
                        }
                        let delay = p.windows(2).fold(0.0, |acc, w| {
                            acc + g.effective_latency(g.find_edge(w[0], w[1]).unwrap())
                        });
                        (cost, delay)
                    });
                    assert_eq!(lazy.path(s, t), path, "path {s:?}->{t:?}");
                    let bits = |(c, d): (f64, f64)| (c.to_bits(), d.to_bits());
                    assert_eq!(
                        lazy.distance_and_delay(s, t).map(bits),
                        delay.map(bits),
                        "delay {s:?}->{t:?}"
                    );
                }
            }
        }
        assert!(unreachable > 0 && latency_graphs > 0);
    }

    #[test]
    fn a_resident_row_costs_twelve_bytes_per_node() {
        let n = 100;
        let mut g = Graph::new(n);
        for i in 1..n {
            g.add_edge(NodeId(i - 1), NodeId(i), 1.0).unwrap();
        }
        let lazy = LazyDistances::new(&g);
        assert_eq!(lazy.resident_row_bytes(), 0);
        lazy.distance(NodeId(0), NodeId(7));
        assert_eq!(lazy.resident_row_bytes(), 12 * n as u64);
        // A path reads the row of every node it passes.
        lazy.path(NodeId(40), NodeId(49)).unwrap();
        assert_eq!(lazy.rows_materialized(), 10);
        assert_eq!(lazy.resident_row_bytes(), 12 * n as u64 * 10);
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
