//! NFV multicast inside a datacenter fat-tree.
//!
//! The paper's related work includes datacenter multicast (Avalanche,
//! §II); this example embeds a (load-balancer → cache) chain from one
//! rack host to receivers spread across pods of a k=4 fat-tree, and
//! writes DOT renderings of the network, the physical embedding, and the
//! logical SFT into `results/`.
//!
//! Run with: `cargo run --release --example datacenter_multicast`

use sft::core::viz;
use sft::core::{solve, SftTree, SolveOptions};
use sft::core::{MulticastTask, Network, Sfc, VnfCatalog};
use sft::graph::generate::fat_tree;
use sft::graph::NodeId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // k=4 fat-tree: nodes 0..3 cores, 4..19 pod switches, 20..35 hosts.
    // Core links are pricier (they are the scarce resource).
    let g = fat_tree(4, 4.0)?;

    let mut catalog = VnfCatalog::new();
    let lb = catalog.add("load-balancer", 1.0)?;
    let cache = catalog.add("cache", 2.0)?;

    // Only switches run VNFs (hosts are endpoints); edge/aggregation
    // switches have room for 2 units, cores for 4.
    let mut builder = Network::builder(g, catalog);
    for core in 0..4 {
        builder = builder.server(NodeId(core), 4.0)?;
    }
    for sw in 4..20 {
        builder = builder.server(NodeId(sw), 2.0)?;
    }
    let network = builder.uniform_setup_cost(3.0)?.build()?;

    // Source: host 20 (pod 0); receivers in three other pods.
    let task = MulticastTask::new(
        NodeId(20),
        vec![NodeId(25), NodeId(28), NodeId(31), NodeId(34)],
        Sfc::new(vec![lb, cache])?,
    )?;

    let result = solve(&network, &task, &SolveOptions::default())?;
    println!(
        "delivery cost {:.1} (setup {:.1} + links {:.1})",
        result.cost.total(),
        result.cost.setup,
        result.cost.link
    );
    for (stage, node) in result.embedding.instances() {
        let layer = match node.index() {
            0..=3 => "core",
            4..=19 => "pod switch",
            _ => "host",
        };
        println!("  stage {stage} on node {node} ({layer})");
    }

    let tree = SftTree::extract(&task, &result.embedding)?;
    println!(
        "logical SFT: {} edges, theorem-4 holds: {}",
        tree.edges().len(),
        tree.satisfies_theorem4()
    );

    std::fs::create_dir_all("results")?;
    std::fs::write("results/dc_network.dot", viz::network_dot(&network))?;
    std::fs::write(
        "results/dc_embedding.dot",
        viz::embedding_dot(&network, &task, &result.embedding)?,
    )?;
    std::fs::write("results/dc_sft.dot", viz::sft_dot(&tree))?;
    println!("wrote results/dc_network.dot, dc_embedding.dot, dc_sft.dot");
    println!("render with: dot -Tsvg results/dc_sft.dot -o sft.svg");

    assert!(sft::core::validate::is_valid(
        &network,
        &task,
        &result.embedding
    ));
    Ok(())
}
