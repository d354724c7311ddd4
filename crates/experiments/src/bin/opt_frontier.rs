//! The exact-OPT frontier: the largest Palmetto instance each LP backend
//! certifies (or bounds) within a fixed branch-and-bound budget.
//!
//! The paper's Fig. 13 OPT curve comes from CPLEX on the full 45-city
//! PalmettoNet; the from-scratch dense tableau only reached 10-city
//! reductions. This driver sweeps reduced instances up to the full
//! network with the revised-simplex backend and reports, per size, the
//! MIP status, incumbent, bound, and accumulated LP work. Every incumbent
//! is decoded into an embedding and re-checked by the independent
//! validator before being reported.
//!
//! Pass `--quick` for the small sizes only.

use sft_core::ilp::IlpModel;
use sft_core::SolveOptions;
use sft_experiments::Effort;
use sft_lp::{BackendChoice, MipConfig, MipStatus};
use sft_topology::{palmetto, workload, ScenarioConfig};
use std::time::{Duration, Instant};

fn main() {
    let effort = Effort::from_args();
    let sizes: &[usize] = match effort {
        Effort::Quick => &[10, 14],
        Effort::Paper => &[10, 14, 20, 30, 45],
    };
    let (max_nodes, limit) = match effort {
        Effort::Quick => (500, Duration::from_secs(30)),
        Effort::Paper => (20_000, Duration::from_secs(600)),
    };

    println!("exact-OPT frontier on reduced PalmettoNet (k = 2, |D| = 2, seed 7)");
    println!(
        "budget: {max_nodes} B&B nodes / {}s per instance, revised LP backend\n",
        limit.as_secs()
    );
    for &nodes in sizes {
        let config = ScenarioConfig {
            dest_ratio: 2.0 / nodes as f64,
            deployment_cost_mu: 2.0,
            sfc_len: 2,
            ..ScenarioConfig::default()
        };
        let scenario = match workload::on_graph(palmetto::reduced_graph(nodes), &config, 7) {
            Ok(s) => s,
            Err(e) => {
                println!("|V| = {nodes}: scenario failed: {e}");
                continue;
            }
        };
        let heuristic =
            sft_core::solve(&scenario.network, &scenario.task, &SolveOptions::default())
                .expect("MSA solves every connected instance");
        let model = IlpModel::build(&scenario.network, &scenario.task).expect("model builds");
        let mip = MipConfig {
            backend: BackendChoice::Revised,
            max_nodes,
            time_limit: Some(limit),
            warm_start: model.warm_start(&scenario.network, &scenario.task, &heuristic.embedding),
            ..MipConfig::default()
        };
        let start = Instant::now();
        let out = model
            .solve(&scenario.network, &scenario.task, &mip)
            .expect("solver errors are bugs");
        let secs = start.elapsed().as_secs_f64();

        let validated = out.embedding.as_ref().map(|emb| {
            sft_core::validate::validate(&scenario.network, &scenario.task, emb).is_empty()
        });
        println!(
            "|V| = {nodes:>2} (size product {:>3}): {:?} in {secs:>7.1}s, {} B&B nodes",
            nodes * config.sfc_len,
            out.status,
            out.nodes
        );
        println!(
            "    ILP: {} vars, {} rows; lp work: {}",
            model.problem().var_count(),
            model.problem().constraint_count(),
            out.lp_stats
        );
        match out.objective {
            Some(obj) => println!(
                "    incumbent {obj:.2} (bound {:.2}, heuristic {:.2}, validator {})",
                out.bound,
                heuristic.cost.total(),
                match validated {
                    Some(true) => "OK",
                    Some(false) => "FAILED",
                    None => "n/a",
                }
            ),
            None => println!("    no incumbent (bound {:.2})", out.bound),
        }
        if validated == Some(false) {
            println!("    ERROR: incumbent failed independent validation");
            std::process::exit(1);
        }
        if out.status == MipStatus::Optimal && validated != Some(true) {
            println!("    ERROR: optimal status without a validated embedding");
            std::process::exit(1);
        }
    }
}
