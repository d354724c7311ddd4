//! Quickstart: embed a service function tree for one multicast task.
//!
//! Builds a small network by hand, asks for a two-VNF chain from one
//! source to two destinations, runs the paper's two-stage algorithm, and
//! prints the resulting routes and cost breakdown.
//!
//! Run with: `cargo run --example quickstart`

use sft::core::{solve, SolveOptions};
use sft::core::{MulticastTask, Network, Sfc, VnfCatalog, VnfId};
use sft::graph::{Graph, NodeId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 6-node metro ring with one chord. Link costs are kilometres.
    let mut g = Graph::new(6);
    for (u, v, km) in [
        (0, 1, 10.0),
        (1, 2, 12.0),
        (2, 3, 8.0),
        (3, 4, 11.0),
        (4, 5, 9.0),
        (5, 0, 14.0),
        (1, 4, 7.0), // chord
    ] {
        g.add_edge(NodeId(u), NodeId(v), km)?;
    }

    // Catalog of three VNF types; every node is a server with room for
    // two instances; new instances cost 5 anywhere; a firewall (f0) is
    // already running on node 4.
    let network = Network::builder(g, VnfCatalog::uniform(3))
        .all_servers(2.0)?
        .uniform_setup_cost(5.0)?
        .deploy(VnfId(0), NodeId(4))?
        .build()?;

    // Deliver from node 0 to nodes 2 and 5, through firewall then NAT.
    let task = MulticastTask::new(
        NodeId(0),
        vec![NodeId(2), NodeId(5)],
        Sfc::new(vec![VnfId(0), VnfId(1)])?,
    )?;

    let result = solve(&network, &task, &SolveOptions::default())?;

    println!("stage-1 (chain) cost : {:.2}", result.stage1_cost);
    println!("final SFT cost       : {:.2}", result.cost.total());
    println!("  setup portion      : {:.2}", result.cost.setup);
    println!("  link portion       : {:.2}", result.cost.link);
    println!("chain placement      : {:?}", result.chain.placement);
    if result.added_instances.is_empty() {
        println!("OPA added no branch instances (the chain was already good)");
    } else {
        println!("OPA added instances  : {:?}", result.added_instances);
    }

    for (d, route) in task.destinations().iter().zip(result.embedding.routes()) {
        println!("route to {d}:");
        for (j, seg) in route.segments().iter().enumerate() {
            let hop: Vec<String> = seg.iter().map(|n| n.to_string()).collect();
            println!("  segment {j}: {}", hop.join(" -> "));
        }
    }

    // The validator double-checks feasibility (always empty here).
    let issues = sft::core::validate::validate(&network, &task, &result.embedding);
    assert!(issues.is_empty(), "unexpected issues: {issues:?}");
    println!("validator: OK");
    Ok(())
}
