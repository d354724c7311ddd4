//! Exact optimum vs the two-stage heuristic on a reduced Palmetto
//! instance (the Fig.-13 OPT comparison at example scale).
//!
//! Builds the ILP formulation (1a)–(1f) for a 10-city slice of the
//! Palmetto backbone, solves it exactly with the branch-and-bound solver
//! (warm-started from the heuristic solution), and reports the empirical
//! approximation ratio — which should sit comfortably below the
//! theoretical `1 + ρ` bound.
//!
//! Run with: `cargo run --release --example palmetto_optimal`

use sft::core::ilp::IlpModel;
use sft::core::{solve, SolveOptions};
use sft::lp::{MipConfig, MipStatus};
use sft::topology::{palmetto, workload, ScenarioConfig};
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = ScenarioConfig {
        dest_ratio: 0.3, // 3 destinations among 10 cities
        sfc_len: 2,
        deployment_cost_mu: 2.0,
        ..ScenarioConfig::default()
    };
    let scenario = workload::on_graph(palmetto::reduced_graph(10), &config, 404)?;
    let (network, task) = (&scenario.network, &scenario.task);
    println!(
        "reduced Palmetto: {} cities, {} links; |D| = {}, k = {}",
        network.node_count(),
        network.graph().edge_count(),
        task.destination_count(),
        task.sfc().len()
    );

    // Heuristic first — it doubles as the ILP warm start.
    let t0 = Instant::now();
    let heuristic = solve(network, task, &SolveOptions::default())?;
    let heuristic_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "two-stage heuristic: cost {:.2} in {heuristic_ms:.2} ms",
        heuristic.cost.total()
    );

    let model = IlpModel::build(network, task)?;
    println!(
        "ILP: {} variables, {} constraints",
        model.problem().var_count(),
        model.problem().constraint_count()
    );
    let mip = MipConfig {
        max_nodes: 4000,
        time_limit: Some(Duration::from_secs(120)),
        warm_start: model.warm_start(network, task, &heuristic.embedding),
        ..MipConfig::default()
    };
    let t1 = Instant::now();
    let out = model.solve(network, task, &mip)?;
    let opt_ms = t1.elapsed().as_secs_f64() * 1e3;

    match (out.status, out.objective) {
        (MipStatus::Optimal, Some(obj)) => {
            println!(
                "exact optimum: cost {obj:.2} in {opt_ms:.2} ms ({} B&B nodes)",
                out.nodes
            );
            let ratio = heuristic.cost.total() / obj;
            println!("empirical approximation ratio: {ratio:.3} (theory: <= 3 with the KMB Steiner step)");
            println!(
                "OPT took {:.0}x the heuristic's time",
                opt_ms / heuristic_ms.max(1e-3)
            );
            assert!(heuristic.cost.total() >= obj - 1e-6);
            assert!(ratio <= 3.0 + 1e-6);
            if let Some(emb) = &out.embedding {
                assert!(sft::core::validate::is_valid(network, task, emb));
                println!("decoded OPT embedding validates: OK");
            }
        }
        (status, obj) => {
            println!(
                "solver hit its budget: status {status:?}, incumbent {obj:?}, bound {:.2}",
                out.bound
            );
        }
    }
    Ok(())
}
