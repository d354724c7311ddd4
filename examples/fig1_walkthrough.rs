//! A walkthrough of the paper's Fig. 1: three ways to embed the same
//! multicast task, from naive chain to optimal service function tree.
//!
//! The paper's figure shows a network where (S-1) deploying the whole
//! chain fresh costs 26, (S-2) reusing deployed instances costs 22, and
//! (S-3/OPT) a *tree* of instances costs 19. The exact edge costs of
//! Fig. 1(a) are not fully recoverable from the paper text, so this
//! example rebuilds the same three-way comparison on an equivalent
//! topology with its own numbers: chain-from-scratch > chain-with-reuse >
//! SFT (found by MSA + OPA).
//!
//! Run with: `cargo run --example fig1_walkthrough`

use sft::core::{delivery_cost, ChainSolution, MulticastTask, Network, Sfc, VnfCatalog, VnfId};
use sft::core::{solve, SolveOptions};
use sft::graph::{Graph, NodeId};

const S: usize = 0;
const A: usize = 1;
const B: usize = 2;
const C: usize = 3;
const D: usize = 4;
const E: usize = 5;
const D1: usize = 6;
const D2: usize = 7;

fn network() -> Result<Network, Box<dyn std::error::Error>> {
    // Eight nodes as in Fig. 1: source S, servers A..E, destinations d1 d2.
    let mut g = Graph::new(8);
    for (u, v, c) in [
        (S, A, 2.0),
        (A, B, 2.0),
        (B, D, 3.0),
        (A, C, 3.0),
        (C, E, 2.0),
        (D, D2, 3.0),  // cheap tail towards d2
        (E, D1, 2.0),  // cheap tail towards d1
        (D, D1, 12.0), // expensive direct links the SFT avoids
        (D1, D2, 12.0),
    ] {
        g.add_edge(NodeId(u), NodeId(v), c)?;
    }
    // Only A..E are server nodes (as in Fig. 1(a), "five server nodes");
    // f2 and f3 are already deployed on B and D; the VNF setup cost is
    // one everywhere.
    let mut b = Network::builder(g, VnfCatalog::uniform(3));
    for server in [A, B, C, D, E] {
        b = b.server(NodeId(server), 1.0)?;
    }
    Ok(b.uniform_setup_cost(1.0)?
        .deploy(VnfId(1), NodeId(B))?
        .deploy(VnfId(2), NodeId(D))?
        .build()?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let network = network()?;
    let task = MulticastTask::new(
        NodeId(S),
        vec![NodeId(D1), NodeId(D2)],
        Sfc::new(vec![VnfId(0), VnfId(1), VnfId(2)])?, // f1 -> f2 -> f3
    )?;

    // Strategy 1 (paper Fig. 1(b)): deploy everything fresh along A-C-E,
    // ignore the deployed instances, deliver from E.
    let s1 = ChainSolution {
        placement: vec![NodeId(A), NodeId(C), NodeId(E)],
        steiner_edges: vec![
            network.graph().find_edge(NodeId(E), NodeId(D1)).unwrap(),
            network.graph().find_edge(NodeId(D1), NodeId(D2)).unwrap(),
        ],
    };
    let c1 = delivery_cost(&network, &task, &s1.to_embedding(&network, &task)?)?;

    // Strategy 2 (paper Fig. 1(c)): reuse f2@B and f3@D, deliver from D.
    let s2 = ChainSolution {
        placement: vec![NodeId(A), NodeId(B), NodeId(D)],
        steiner_edges: vec![
            network.graph().find_edge(NodeId(D), NodeId(D1)).unwrap(),
            network.graph().find_edge(NodeId(D), NodeId(D2)).unwrap(),
        ],
    };
    let c2 = delivery_cost(&network, &task, &s2.to_embedding(&network, &task)?)?;

    // Strategy 3 (paper Fig. 1(d)): let the two-stage algorithm build the
    // service function tree.
    let sft = solve(&network, &task, &SolveOptions::default())?;

    println!("S-1  chain, all new instances : {:.0}", c1.total());
    println!("S-2  chain, reusing f2/f3     : {:.0}", c2.total());
    println!("S-3  service function tree    : {:.0}", sft.cost.total());
    println!();
    println!(
        "the SFT saves {:.1}% over the naive chain",
        100.0 * (c1.total() - sft.cost.total()) / c1.total()
    );
    println!("instances used by the SFT:");
    for (stage, node) in sft.embedding.instances() {
        let f = task.sfc().stage(stage);
        let status = if network.is_deployed(f, node) {
            "reused"
        } else {
            "new"
        };
        println!("  stage {stage} ({f}) on node {node} [{status}]");
    }

    assert!(c2.total() < c1.total(), "reuse must beat from-scratch");
    assert!(sft.cost.total() <= c2.total(), "the SFT must win overall");
    Ok(())
}
