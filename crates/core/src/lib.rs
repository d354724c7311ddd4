//! Service Function Tree embedding for NFV-enabled multicast.
//!
//! A from-scratch reproduction of *"Optimal Service Function Tree Embedding
//! for NFV Enabled Multicast"* (Ren, Guo, Tang, Lin, Qin — IEEE ICDCS
//! 2018): given a network with server nodes, link-connection costs, VNF
//! setup costs and optionally pre-deployed instances, embed a multicast
//! task `δ = (S, D, ℓ)` so that every destination's flow traverses the
//! service function chain `ℓ` in order, at minimum traffic-delivery cost.
//!
//! # Modules
//!
//! * Domain model: [`network`], [`vnf`], [`task`], [`embedding`] with the
//!   canonical cost model ([`cost`]) and feasibility validator
//!   ([`validate`]).
//! * The paper's two-stage algorithm: the multilevel overlay directed
//!   network ([`mod_network`], Algorithm 1), MSA stage 1 ([`msa`],
//!   Algorithm 2) and OPA stage 2 ([`opa`], Algorithm 3), with the
//!   capacity-repair step shared through [`chain`].
//! * Baselines: set-cover ([`sca`]) and random ([`rsa`]) stage 1.
//! * The exact ILP formulation (1a)–(1f) and its solver bridge ([`ilp`]),
//!   plus brute-force oracles for testing ([`brute`]).
//!
//! # Quickstart
//!
//! ```
//! use sft_core::{solve, SolveOptions};
//! use sft_core::{MulticastTask, Network, Sfc, VnfCatalog, VnfId};
//! use sft_graph::{Graph, NodeId};
//!
//! # fn main() -> Result<(), sft_core::CoreError> {
//! // A 5-node ring, every node a server with room for 2 VNFs.
//! let mut g = Graph::new(5);
//! for i in 0..5 {
//!     g.add_edge(NodeId(i), NodeId((i + 1) % 5), 1.0).unwrap();
//! }
//! let network = Network::builder(g, VnfCatalog::uniform(3))
//!     .all_servers(2.0)?
//!     .build()?;
//!
//! // Deliver from node 0 to nodes 2 and 3 through (f0 -> f1).
//! let task = MulticastTask::new(
//!     NodeId(0),
//!     vec![NodeId(2), NodeId(3)],
//!     Sfc::new(vec![VnfId(0), VnfId(1)])?,
//! )?;
//!
//! // MSA stage 1, then OPA: the paper's two-stage pipeline.
//! let result = solve(&network, &task, &SolveOptions::default())?;
//! assert!(sft_core::validate::is_valid(&network, &task, &result.embedding));
//! println!("delivery cost: {}", result.cost.total());
//! # Ok(())
//! # }
//! ```

pub mod api;
pub mod brute;
pub mod chain;
pub mod cost;
pub mod embedding;
mod error;
pub mod ilp;
pub mod mod_network;
pub mod msa;
pub mod network;
pub mod opa;
pub mod rsa;
pub mod sca;
pub mod sequential;
pub mod sft_tree;
pub mod stats;
pub mod task;
pub mod validate;
pub mod viz;
pub mod vnf;

pub use api::{solve, SolveOptions, SolveResult, StageTwo, Strategy};
pub use chain::ChainSolution;
pub use cost::{delivery_cost, CostBreakdown};
pub use embedding::{DestinationRoute, Embedding};
pub use error::CoreError;
pub use network::{CommitDelta, Network, NetworkBuilder};
pub use sequential::SequentialEmbedder;
pub use sft_graph::{CancelToken, EdgeId, LazyDistances, Parallelism, SteinerCache};
pub use sft_tree::{SftNode, SftTree};
pub use stats::EmbeddingStats;
pub use task::MulticastTask;
pub use vnf::{Sfc, VnfCatalog, VnfId};
