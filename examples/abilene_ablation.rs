//! Stage-1 design ablation on the Abilene backbone.
//!
//! Runs the two-stage algorithm with both Steiner constructions (KMB, the
//! paper's choice, and Takahashi–Matsuyama) and with stage 2 on/off, over
//! several coast-to-coast multicast tasks on the classic 11-node
//! Abilene/Internet2 topology, printing a compact comparison plus
//! embedding statistics.
//!
//! Run with: `cargo run --release --example abilene_ablation`

use sft::core::msa::SteinerMethod;
use sft::core::{
    solve, EmbeddingStats, MulticastTask, Network, Sfc, SolveOptions, StageTwo, VnfCatalog, VnfId,
};
use sft::topology::abilene;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let network = Network::builder(abilene::graph(), VnfCatalog::uniform(3))
        .all_servers(2.0)?
        .uniform_setup_cost(60.0)? // roughly one regional hop
        .deploy(VnfId(0), abilene::node_by_name("Denver").unwrap())?
        .deploy(VnfId(1), abilene::node_by_name("Kansas City").unwrap())?
        .build()?;

    let by = |n: &str| abilene::node_by_name(n).expect("known PoP");
    let tasks = [
        (
            "west-to-east",
            "Sunnyvale",
            vec!["New York", "Washington DC", "Atlanta"],
        ),
        (
            "hub-fanout",
            "Kansas City",
            vec!["Seattle", "Los Angeles", "New York", "Houston"],
        ),
        ("coastal", "Seattle", vec!["Los Angeles", "New York"]),
    ];

    println!(
        "{:<14}{:>12}{:>12}{:>12}{:>10}",
        "task", "KMB+OPA", "TM+OPA", "KMB only", "branches"
    );
    for (name, src, dests) in tasks {
        let task = MulticastTask::new(
            by(src),
            dests.iter().map(|d| by(d)).collect::<Vec<_>>(),
            Sfc::new(vec![VnfId(0), VnfId(1), VnfId(2)])?,
        )?;

        let run = |steiner, stage_two| {
            let options = SolveOptions {
                stage_two,
                steiner,
                ..SolveOptions::default()
            };
            solve(&network, &task, &options)
        };
        let kmb_full = run(SteinerMethod::Kmb, StageTwo::Opa)?;
        let tm_full = run(SteinerMethod::Takahashi, StageTwo::Opa)?;
        let kmb_only = run(SteinerMethod::Kmb, StageTwo::Skip)?;

        let stats = EmbeddingStats::collect(&network, &task, &kmb_full.embedding)?;
        println!(
            "{name:<14}{:>12.1}{:>12.1}{:>12.1}{:>10}",
            kmb_full.cost.total(),
            tm_full.cost.total(),
            kmb_only.cost.total(),
            if stats.is_branching { "yes" } else { "no" }
        );
        assert!(sft::core::validate::is_valid(
            &network,
            &task,
            &kmb_full.embedding
        ));
        assert!(sft::core::validate::is_valid(
            &network,
            &task,
            &tm_full.embedding
        ));
        assert!(
            kmb_full.cost.total() <= kmb_only.cost.total() + 1e-9,
            "OPA never hurts"
        );
    }
    println!("\n(KMB and TM are both 2-approximate Steiner constructions; the");
    println!(" paper uses KMB. `branches` marks logical SFTs vs plain chains.)");
    Ok(())
}
