//! Sequential-arrival experiment (§IV-D at scale): a stream of multicast
//! tasks embeds against an evolving network whose instances accrete, and
//! the per-task setup cost and reuse ratio are tracked over time.
//!
//! Pass `--quick` for a shorter stream.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sft_core::{MulticastTask, SequentialEmbedder, Sfc, Strategy, VnfId};
use sft_experiments::Effort;
use sft_graph::NodeId;
use sft_topology::{generate, ScenarioConfig};

fn main() {
    let effort = Effort::from_args();
    let tasks = match effort {
        Effort::Quick => 10,
        Effort::Paper => 40,
    };
    // A fresh 80-node network with NO pre-deployments: all reuse observed
    // below is created by the task stream itself.
    let config = ScenarioConfig {
        network_size: 80,
        deployed_density: 0.0,
        catalog_size: 8,
        dest_ratio: 0.1,
        sfc_len: 4,
        ..ScenarioConfig::default()
    };
    let scenario = generate(&config, 12).expect("scenario generation");
    let n = scenario.network.node_count();
    let mut embedder = SequentialEmbedder::new(scenario.network, Strategy::Msa);
    let mut rng = StdRng::seed_from_u64(99);

    println!(
        "{:>5}{:>12}{:>10}{:>8}{:>8}{:>10}",
        "task", "cost", "setup", "new", "reuse", "reuse%"
    );
    for t in 0..tasks {
        // Random task over the shared 8-type catalog: random source, 4-8
        // destinations, a random 4-chain.
        let source = NodeId(rng.random_range(0..n));
        let mut dests = Vec::new();
        let want = 4 + rng.random_range(0..5usize);
        while dests.len() < want {
            let d = NodeId(rng.random_range(0..n));
            if d != source && !dests.contains(&d) {
                dests.push(d);
            }
        }
        let mut types: Vec<VnfId> = (0..8).map(VnfId).collect();
        for i in 0..4 {
            let j = rng.random_range(i..8);
            types.swap(i, j);
        }
        let task = MulticastTask::new(source, dests, Sfc::new(types[..4].to_vec()).unwrap())
            .expect("valid task");
        match embedder.embed(&task) {
            Ok(_) => {
                let rec = embedder.history().last().unwrap();
                println!(
                    "{t:>5}{:>12.1}{:>10.1}{:>8}{:>8}{:>10.1}",
                    rec.cost,
                    rec.setup,
                    rec.new_instances,
                    rec.reused_instances,
                    100.0 * embedder.reuse_ratio()
                );
            }
            Err(e) => println!("{t:>5}  infeasible: {e}"),
        }
    }
    let history = embedder.history();
    let first_half: f64 = history[..history.len() / 2].iter().map(|r| r.setup).sum();
    let second_half: f64 = history[history.len() / 2..].iter().map(|r| r.setup).sum();
    println!(
        "\nsetup cost, first half vs second half of the stream: {first_half:.1} vs {second_half:.1}"
    );
    println!("final reuse ratio: {:.1}%", 100.0 * embedder.reuse_ratio());
}
