//! Video-streaming CDN scenario on the Palmetto backbone.
//!
//! The paper's motivation (§I): "in the video streaming service, ISPs
//! strategically deploy network functions (e.g., intrusion detection, load
//! balance and format transcoding) among the network nodes". This example
//! plays an ISP operating the 45-node Palmetto backbone:
//!
//! 1. A live stream originates in Columbia and must reach viewers in six
//!    cities through (intrusion detection → load balancer → transcoder).
//! 2. The two-stage algorithm embeds the service function tree; we commit
//!    its instances to the network.
//! 3. A second stream (different viewers) arrives; thanks to the
//!    committed instances its embedding is cheaper — the paper's
//!    "network with deployed VNFs" scenario (§IV-D) in action.
//!
//! Run with: `cargo run --release --example video_streaming`

use sft::core::{solve, SolveOptions};
use sft::core::{MulticastTask, Network, Sfc, VnfCatalog};
use sft::topology::palmetto;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The VNF catalog of this ISP.
    let mut catalog = VnfCatalog::new();
    let ids = catalog.add("intrusion-detection", 1.0)?;
    let lb = catalog.add("load-balancer", 1.0)?;
    let transcoder = catalog.add("transcoder", 2.0)?; // transcoding is heavy

    // Every city hosts a small edge PoP able to run 3 units of VNFs; a
    // new instance costs 40 (roughly one backbone hop) anywhere.
    let network = Network::builder(palmetto::graph(), catalog)
        .all_servers(3.0)?
        .uniform_setup_cost(40.0)?
        .build()?;
    let mut network = network;

    let by_name = |n: &str| palmetto::node_by_name(n).expect("known city");
    let sfc = Sfc::new(vec![ids, lb, transcoder])?;

    // --- Stream 1: evening sports feed. ---
    let viewers1 = [
        "Charleston",
        "Myrtle Beach",
        "Greenville",
        "Rock Hill",
        "Florence",
        "Beaufort",
    ];
    let task1 = MulticastTask::new(
        by_name("Columbia"),
        viewers1.iter().map(|c| by_name(c)).collect::<Vec<_>>(),
        sfc.clone(),
    )?;
    let r1 = solve(&network, &task1, &SolveOptions::default())?;
    println!("stream 1 ({} viewers):", viewers1.len());
    println!(
        "  delivery cost {:.1} (setup {:.1} + links {:.1})",
        r1.cost.total(),
        r1.cost.setup,
        r1.cost.link
    );
    println!("  chain placement: {}", cities(&r1.chain.placement));
    if !r1.added_instances.is_empty() {
        println!(
            "  OPA branched {} extra instance(s)",
            r1.added_instances.len()
        );
    }

    // Commit stream 1's instances: they keep running.
    network.commit_embedding(&task1, &r1.embedding)?;

    // --- Stream 2: late-night news to a different footprint. ---
    let viewers2 = ["Spartanburg", "Aiken", "Hilton Head", "Conway", "Camden"];
    let task2 = MulticastTask::new(
        by_name("Columbia"),
        viewers2.iter().map(|c| by_name(c)).collect::<Vec<_>>(),
        sfc.clone(),
    )?;
    let r2 = solve(&network, &task2, &SolveOptions::default())?;
    println!(
        "stream 2 ({} viewers), reusing committed instances:",
        viewers2.len()
    );
    println!(
        "  delivery cost {:.1} (setup {:.1} + links {:.1})",
        r2.cost.total(),
        r2.cost.setup,
        r2.cost.link
    );
    println!("  chain placement: {}", cities(&r2.chain.placement));

    // Counterfactual: the same stream 2 on a pristine network.
    let pristine = Network::builder(palmetto::graph(), {
        let mut c = VnfCatalog::new();
        c.add("intrusion-detection", 1.0)?;
        c.add("load-balancer", 1.0)?;
        c.add("transcoder", 2.0)?;
        c
    })
    .all_servers(3.0)?
    .uniform_setup_cost(40.0)?
    .build()?;
    let cold = solve(&pristine, &task2, &SolveOptions::default())?;
    println!(
        "  (a cold start would have cost {:.1}; reuse saved {:.1}%)",
        cold.cost.total(),
        100.0 * (cold.cost.total() - r2.cost.total()) / cold.cost.total()
    );
    assert!(
        r2.cost.total() <= cold.cost.total() + 1e-9,
        "reuse must never cost more than a cold start"
    );
    Ok(())
}

/// Renders a placement as city names.
fn cities(nodes: &[sft::graph::NodeId]) -> String {
    nodes
        .iter()
        .map(|n| palmetto::NAMES[n.index()])
        .collect::<Vec<_>>()
        .join(" -> ")
}
