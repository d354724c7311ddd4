//! NFV-enabled e-mail service on a synthetic operator network.
//!
//! The paper's introductory SFC example: "in the NFV enabled email
//! service, the data flow will go through an SFC of virus detection, spam
//! identification and phishing detection". This example generates a
//! Table-I style 80-node operator network, embeds that chain towards a
//! set of regional mail gateways, and compares all three stage-1
//! strategies (MSA / SCA / RSA) plus the effect of skipping stage 2.
//!
//! Run with: `cargo run --release --example email_security`

use sft::core::{delivery_cost, solve, SolveOptions, StageTwo, Strategy};
use sft::topology::{generate, ScenarioConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An 80-node operator network with pre-deployed security functions
    // scattered around (the operator already runs some scrubbing).
    let config = ScenarioConfig {
        network_size: 80,
        dest_ratio: 0.15, // 12 regional mail gateways
        sfc_len: 3,       // virus detection -> spam id -> phishing detection
        deployed_density: 0.4,
        ..ScenarioConfig::default()
    };
    let scenario = generate(&config, 2026)?;
    let (network, task) = (&scenario.network, &scenario.task);
    println!(
        "network: {} nodes / {} links, avg path cost {:.1}",
        network.node_count(),
        network.graph().edge_count(),
        network.average_path_cost()
    );
    println!(
        "task: source {} -> {} gateways through a {}-stage chain",
        task.source(),
        task.destination_count(),
        task.sfc().len()
    );

    println!(
        "\n{:<28}{:>12}{:>10}{:>10}",
        "strategy", "cost", "setup", "links"
    );
    let mut best = f64::INFINITY;
    for (label, strategy, stage2) in [
        ("MSA + OPA (the paper)", Strategy::Msa, StageTwo::Opa),
        ("MSA only (no stage 2)", Strategy::Msa, StageTwo::Skip),
        ("SCA + OPA", Strategy::Sca, StageTwo::Opa),
        ("RSA + OPA", Strategy::Rsa, StageTwo::Opa),
    ] {
        let options = SolveOptions {
            strategy,
            stage_two: stage2,
            seed: 7,
            ..SolveOptions::default()
        };
        let r = solve(network, task, &options)?;
        println!(
            "{label:<28}{:>12.1}{:>10.1}{:>10.1}",
            r.cost.total(),
            r.cost.setup,
            r.cost.link
        );
        // Sanity: every strategy's output passes the validator and its
        // cost recomputes identically from the canonical embedding.
        assert!(sft::core::validate::is_valid(network, task, &r.embedding));
        let again = delivery_cost(network, task, &r.embedding)?;
        assert!((again.total() - r.cost.total()).abs() < 1e-9);
        best = best.min(r.cost.total());
    }
    println!("\nbest delivery cost: {best:.1}");
    Ok(())
}
