//! Approximation-ratio distribution: many small random instances solved
//! both heuristically (MSA + OPA) and exactly (ILP), reporting the
//! distribution of `heuristic / optimum` — the statistical version of the
//! single average the paper quotes for Fig. 13 (≈ 1.51).
//!
//! Pass `--quick` for fewer instances.

use sft_core::ilp::IlpModel;
use sft_core::SolveOptions;
use sft_experiments::Effort;
use sft_lp::{MipConfig, MipStatus};
use sft_topology::{generate, ScenarioConfig};
use std::time::Duration;

fn main() {
    let effort = Effort::from_args();
    let instances = match effort {
        Effort::Quick => 6,
        Effort::Paper => 25,
    };
    let config = ScenarioConfig {
        network_size: 9,
        dest_ratio: 0.25, // 2 destinations
        sfc_len: 2,
        catalog_size: 4,
        er_probability: Some(0.35),
        ..ScenarioConfig::default()
    };

    let mut ratios: Vec<f64> = Vec::new();
    let mut skipped = 0;
    for seed in 0..instances {
        let Ok(s) = generate(&config, seed) else {
            skipped += 1;
            continue;
        };
        let Ok(heuristic) = sft_core::solve(&s.network, &s.task, &SolveOptions::default()) else {
            skipped += 1;
            continue;
        };
        let Ok(model) = IlpModel::build(&s.network, &s.task) else {
            skipped += 1;
            continue;
        };
        let mip = MipConfig {
            max_nodes: 20_000,
            time_limit: Some(Duration::from_secs(60)),
            warm_start: model.warm_start(&s.network, &s.task, &heuristic.embedding),
            ..MipConfig::default()
        };
        match model.solve(&s.network, &s.task, &mip) {
            Ok(out) if out.status == MipStatus::Optimal => {
                let opt = out.objective.expect("optimal has an objective");
                // Clamp float noise: the assertion below guarantees the
                // true ratio is >= 1.
                let ratio = (heuristic.cost.total() / opt.max(1e-12)).max(1.0);
                println!(
                    "seed {seed:>3}: heuristic {:>8.2}  OPT {:>8.2}  ratio {ratio:.4}",
                    heuristic.cost.total(),
                    opt
                );
                assert!(ratio >= 1.0 - 1e-6, "heuristic must not beat OPT");
                ratios.push(ratio);
            }
            _ => {
                println!("seed {seed:>3}: ILP budget exhausted, skipped");
                skipped += 1;
            }
        }
    }

    if ratios.is_empty() {
        println!("no instances certified");
        return;
    }
    ratios.sort_by(f64::total_cmp);
    let n = ratios.len();
    let mean = ratios.iter().sum::<f64>() / n as f64;
    let exact = ratios.iter().filter(|&&r| r < 1.0 + 1e-6).count();
    println!("\ncertified {n} instances ({skipped} skipped)");
    println!(
        "ratio: mean {mean:.4}  median {:.4}  max {:.4}",
        ratios[n / 2],
        ratios[n - 1]
    );
    println!(
        "heuristic found the exact optimum on {exact}/{n} instances ({:.0}%)",
        100.0 * exact as f64 / n as f64
    );
    println!("theoretical bound with KMB: 1 + rho = 3");
    // Histogram in 0.1-wide buckets.
    println!("\nhistogram:");
    let mut bucket = 1.0;
    while bucket <= ratios[n - 1] + 0.1 {
        let count = ratios
            .iter()
            .filter(|&&r| r >= bucket && r < bucket + 0.1)
            .count();
        println!(
            "  [{:.1}, {:.1}): {}",
            bucket,
            bucket + 0.1,
            "#".repeat(count)
        );
        bucket += 0.1;
    }
}
