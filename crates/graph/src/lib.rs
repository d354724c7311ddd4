//! Graph substrate for the SFT-embedding reproduction.
//!
//! This crate provides every graph primitive the paper's algorithms rely on,
//! implemented from scratch:
//!
//! * [`Graph`] — an undirected, non-negatively weighted graph with an
//!   adjacency-list representation ([`graph`]).
//! * Single-source shortest paths (Dijkstra, [`dijkstra`]).
//! * Minimum spanning trees (Kruskal and Prim, [`mst`]) on top of a
//!   union-find structure ([`union_find`]).
//! * Steiner-tree constructions ([`steiner`]): the Kou–Markowsky–Berman
//!   2-approximation the paper cites for its stage-1 algorithm, the
//!   Takahashi–Matsuyama path heuristic as an ablation, and an exact
//!   brute-force solver used as a test oracle.
//! * Tree utilities ([`tree`]): rooted views, root-to-leaf decomposition.
//! * A persistent, shareable Steiner-tree cache ([`cache`]) for
//!   long-running services that solve many requests over one graph, and
//!   the workspace-wide numeric tolerances ([`numeric`]).
//! * Random topology generators ([`generate`]): Erdős–Rényi graphs over
//!   Euclidean point placements, random geometric graphs, and Waxman
//!   locality-biased graphs, with connectivity augmentation.
//! * The distance engine ([`provider`]): [`LazyDistances`] answers
//!   all-pairs shortest-path queries from a CSR adjacency, computing a
//!   per-source Dijkstra row on first use and memoizing it in a lock-free
//!   write-once slot — so a solve pays only for the rows it touches, from
//!   backbones to 50k-node substrates.
//! * Cooperative cancellation ([`cancel`]): [`CancelToken`] threads
//!   deadline/drain interruption through the long-running solvers.
//!
//! # Example
//!
//! ```
//! use sft_graph::{Graph, NodeId};
//!
//! # fn main() -> Result<(), sft_graph::GraphError> {
//! let mut g = Graph::new(4);
//! g.add_edge(NodeId(0), NodeId(1), 1.0)?;
//! g.add_edge(NodeId(1), NodeId(2), 2.0)?;
//! g.add_edge(NodeId(0), NodeId(3), 10.0)?;
//! g.add_edge(NodeId(3), NodeId(2), 1.0)?;
//!
//! let sp = g.dijkstra(NodeId(0));
//! assert_eq!(sp.distance(NodeId(2)), Some(3.0));
//! assert_eq!(sp.path_to(NodeId(2)).unwrap(), vec![NodeId(0), NodeId(1), NodeId(2)]);
//! # Ok(())
//! # }
//! ```

pub mod cache;
pub mod cancel;
pub mod dijkstra;
mod error;
pub mod generate;
pub mod graph;
pub mod mst;
pub mod numeric;
pub mod parallel;
pub mod provider;
pub mod steiner;
pub mod tree;
pub mod union_find;

pub use cache::{CacheStats, SteinerCache};
pub use cancel::{CancelToken, Cancelled};
pub use dijkstra::ShortestPaths;
pub use error::GraphError;
pub use graph::{EdgeId, Graph, NodeId};
pub use numeric::{approx_eq, approx_le, EPS};
pub use parallel::Parallelism;
pub use provider::LazyDistances;
pub use steiner::{KmbSweep, SteinerTree};
pub use tree::RootedTree;
pub use union_find::UnionFind;
