//! One builder per paper figure (Figs. 8–14 of §V).
//!
//! Every builder sweeps exactly the parameter its figure sweeps, at the
//! paper's settings, and reports mean delivery cost and mean runtime per
//! algorithm. The OPT curve of Fig. 13 is reproduced on reduced Palmetto
//! instances where the from-scratch branch-and-bound is exact (DESIGN.md
//! §5, substitution 1).

use crate::record::{FigureData, SolverTelemetry};
use crate::runner::{run_heuristics, HeuristicRun};
use crate::{Effort, ExperimentError};
use sft_core::ilp::IlpModel;
use sft_core::{CoreError, SolveOptions};
use sft_graph::parallel::{run_partitioned, Parallelism};
use sft_lp::{MipConfig, MipStatus};
use sft_topology::{generate, palmetto, workload, Scenario, ScenarioConfig};
use std::time::{Duration, Instant};

/// Network sizes swept by Figs. 8–11.
fn sizes(effort: Effort) -> Vec<usize> {
    match effort {
        Effort::Quick => vec![50, 100],
        Effort::Paper => vec![50, 100, 150, 200, 250],
    }
}

/// SFC lengths swept by Figs. 12 and 14.
fn sfc_lengths(effort: Effort) -> Vec<usize> {
    match effort {
        Effort::Quick => vec![5, 10],
        Effort::Paper => vec![5, 10, 15, 20, 25],
    }
}

/// Runs the heuristics over `reps` seeds of each `(x, config)` point.
///
/// The seeds of one point are independent, so they run on worker threads
/// (one per available core); results are recorded in seed order, so the
/// figure data is identical to the serial sweep's.
fn sweep(
    fig: &mut FigureData,
    points: &[(f64, ScenarioConfig)],
    effort: Effort,
    make: impl Fn(&ScenarioConfig, u64) -> Result<Scenario, CoreError> + Sync,
) -> Result<(), ExperimentError> {
    for (pi, (x, config)) in points.iter().enumerate() {
        let row = fig.push_x(*x);
        let per_seed: Vec<Result<Vec<HeuristicRun>, CoreError>> =
            run_partitioned(Parallelism::auto(), effort.reps(), |range| {
                range
                    .map(|rep| {
                        let seed = 1000 * (pi as u64 + 1) + rep as u64;
                        run_heuristics(&make(config, seed)?)
                    })
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        for runs in per_seed {
            for run in runs? {
                fig.record(row, run.algo, run.cost, run.ms)?;
            }
        }
    }
    if let Some((avg, max)) = fig.saving_vs("MSA", "RSA") {
        fig.notes.push(format!(
            "MSA saves {:.2}% on average (max {:.2}%) vs RSA",
            avg * 100.0,
            max * 100.0
        ));
    }
    Ok(())
}

fn size_sweep_figure(
    id: &str,
    title: &str,
    effort: Effort,
    dest_ratio: f64,
    mu: f64,
) -> Result<FigureData, ExperimentError> {
    let mut fig = FigureData::new(id, title, "|V|", &crate::runner::HEURISTICS);
    let points: Vec<(f64, ScenarioConfig)> = sizes(effort)
        .into_iter()
        .map(|n| {
            (
                n as f64,
                ScenarioConfig {
                    network_size: n,
                    dest_ratio,
                    deployment_cost_mu: mu,
                    sfc_len: 5,
                    ..ScenarioConfig::default()
                },
            )
        })
        .collect();
    sweep(&mut fig, &points, effort, generate)?;
    Ok(fig)
}

/// Fig. 8: cost & runtime vs network size at `|D|/|V| = 0.1`.
pub fn fig08(effort: Effort) -> Result<FigureData, ExperimentError> {
    size_sweep_figure(
        "fig08",
        "traffic delivery cost and running time vs network size, |D|/|V| = 0.1 (k = 5, mu = 2)",
        effort,
        0.1,
        2.0,
    )
}

/// Fig. 9: cost & runtime vs network size at `|D|/|V| = 0.3`.
pub fn fig09(effort: Effort) -> Result<FigureData, ExperimentError> {
    size_sweep_figure(
        "fig09",
        "traffic delivery cost and running time vs network size, |D|/|V| = 0.3 (k = 5, mu = 2)",
        effort,
        0.3,
        2.0,
    )
}

/// Fig. 10: cost & runtime vs network size with setup cost `1 × l_G`.
pub fn fig10(effort: Effort) -> Result<FigureData, ExperimentError> {
    size_sweep_figure(
        "fig10",
        "traffic delivery cost and running time vs network size, setup cost 1 x l_G (ratio 0.2)",
        effort,
        0.2,
        1.0,
    )
}

/// Fig. 11: cost & runtime vs network size with setup cost `3 × l_G`.
pub fn fig11(effort: Effort) -> Result<FigureData, ExperimentError> {
    size_sweep_figure(
        "fig11",
        "traffic delivery cost and running time vs network size, setup cost 3 x l_G (ratio 0.2)",
        effort,
        0.2,
        3.0,
    )
}

/// Fig. 12: cost & runtime vs SFC length on 200-node networks.
pub fn fig12(effort: Effort) -> Result<FigureData, ExperimentError> {
    let network_size = match effort {
        Effort::Quick => 60,
        Effort::Paper => 200,
    };
    let mut fig = FigureData::new(
        "fig12",
        format!(
            "traffic delivery cost and running time vs SFC length (|V| = {network_size}, ratio 0.2, mu = 3)"
        ),
        "SFC length",
        &crate::runner::HEURISTICS,
    );
    let points: Vec<(f64, ScenarioConfig)> = sfc_lengths(effort)
        .into_iter()
        .map(|k| {
            (
                k as f64,
                ScenarioConfig {
                    network_size,
                    dest_ratio: 0.2,
                    deployment_cost_mu: 3.0,
                    sfc_len: k,
                    ..ScenarioConfig::default()
                },
            )
        })
        .collect();
    sweep(&mut fig, &points, effort, generate)?;
    Ok(fig)
}

/// Fig. 13 (heuristic panel): Palmetto network, cost & runtime vs `|D|`.
pub fn fig13_heuristics(effort: Effort) -> Result<FigureData, ExperimentError> {
    let mut fig = FigureData::new(
        "fig13",
        "PalmettoNet: traffic delivery cost and running time vs |D| (k = 10, mu = 2)",
        "|D|",
        &crate::runner::HEURISTICS,
    );
    let dests = match effort {
        Effort::Quick => vec![5, 15],
        Effort::Paper => vec![5, 10, 15, 20, 25],
    };
    let n = palmetto::NODE_COUNT as f64;
    let points: Vec<(f64, ScenarioConfig)> = dests
        .into_iter()
        .map(|d| {
            (
                d as f64,
                ScenarioConfig {
                    dest_ratio: d as f64 / n,
                    deployment_cost_mu: 2.0,
                    sfc_len: 10,
                    ..ScenarioConfig::default()
                },
            )
        })
        .collect();
    sweep(&mut fig, &points, effort, |c, s| {
        workload::on_graph(palmetto::graph(), c, s)
    })?;
    Ok(fig)
}

/// Fig. 13 (OPT panel): exact ILP vs the heuristics on reduced Palmetto
/// instances (first 10 cities, k = 2) where branch-and-bound is
/// tractable — the paper used CPLEX on the full network; see DESIGN.md §5.
pub fn fig13_opt(effort: Effort) -> Result<FigureData, ExperimentError> {
    let mut fig = FigureData::new(
        "fig13_opt",
        "reduced PalmettoNet (10 cities, k = 2): exact ILP optimum vs the heuristics",
        "|D|",
        &["MSA", "SCA", "RSA", "OPT"],
    );
    let dests = match effort {
        Effort::Quick => vec![2, 3],
        Effort::Paper => vec![2, 3, 4],
    };
    let reps = match effort {
        Effort::Quick => 1,
        Effort::Paper => 3,
    };
    let nodes = 10;
    let mut ratios = Vec::new();
    for (pi, d) in dests.iter().enumerate() {
        let row = fig.push_x(*d as f64);
        let config = ScenarioConfig {
            dest_ratio: *d as f64 / nodes as f64,
            deployment_cost_mu: 2.0,
            sfc_len: 2,
            ..ScenarioConfig::default()
        };
        for rep in 0..reps {
            let seed = 500 * (pi as u64 + 1) + rep as u64;
            let scenario = workload::on_graph(palmetto::reduced_graph(nodes), &config, seed)?;
            let runs = run_heuristics(&scenario)?;
            let msa_cost = runs
                .iter()
                .find(|r| r.algo == "MSA")
                .map(|r| r.cost)
                .expect("MSA always runs");
            for run in &runs {
                fig.record(row, run.algo, run.cost, run.ms)?;
            }

            // Exact solve, warm-started from the MSA solution.
            let model = IlpModel::build(&scenario.network, &scenario.task)?;
            let warm = sft_core::solve(&scenario.network, &scenario.task, &SolveOptions::default())
                .ok()
                .and_then(|r| model.warm_start(&scenario.network, &scenario.task, &r.embedding));
            let mip = MipConfig {
                max_nodes: match effort {
                    Effort::Quick => 200,
                    Effort::Paper => 4000,
                },
                time_limit: Some(match effort {
                    Effort::Quick => Duration::from_secs(20),
                    Effort::Paper => Duration::from_secs(120),
                }),
                warm_start: warm,
                ..MipConfig::default()
            };
            let start = Instant::now();
            let out = model.solve(&scenario.network, &scenario.task, &mip)?;
            let ms = start.elapsed().as_secs_f64() * 1e3;
            fig.telemetry.push(SolverTelemetry {
                row,
                backend: mip.backend.resolve(model.problem()).name().to_string(),
                bb_nodes: out.nodes as u64,
                lp_stats: out.lp_stats,
            });
            if let Some(obj) = out.objective {
                fig.record(row, "OPT", obj, ms)?;
                if obj > 0.0 {
                    ratios.push(msa_cost / obj);
                }
                if out.status != MipStatus::Optimal {
                    fig.notes.push(format!(
                        "|D|={d} seed {seed}: ILP hit its budget (status {:?}); OPT value is an incumbent",
                        out.status
                    ));
                }
            }
        }
    }
    if !ratios.is_empty() {
        let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
        let max = ratios.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        fig.notes.push(format!(
            "empirical MSA/OPT approximation ratio: avg {avg:.3}, max {max:.3} (theoretical bound 1 + rho = 3 with KMB)"
        ));
    }
    if let Some((avg, _)) = fig.saving_vs("OPT", "MSA") {
        fig.notes.push(format!(
            "OPT undercuts MSA by {:.2}% on average",
            avg * 100.0
        ));
    }
    Ok(fig)
}

/// Fig. 14: Palmetto network, cost & runtime vs SFC length at `|D| = 15`.
pub fn fig14(effort: Effort) -> Result<FigureData, ExperimentError> {
    let mut fig = FigureData::new(
        "fig14",
        "PalmettoNet: traffic delivery cost and running time vs SFC length (|D| = 15, mu = 2)",
        "SFC length",
        &crate::runner::HEURISTICS,
    );
    let n = palmetto::NODE_COUNT as f64;
    let points: Vec<(f64, ScenarioConfig)> = sfc_lengths(effort)
        .into_iter()
        .map(|k| {
            (
                k as f64,
                ScenarioConfig {
                    dest_ratio: 15.0 / n,
                    deployment_cost_mu: 2.0,
                    sfc_len: k,
                    ..ScenarioConfig::default()
                },
            )
        })
        .collect();
    sweep(&mut fig, &points, effort, |c, s| {
        workload::on_graph(palmetto::graph(), c, s)
    })?;
    Ok(fig)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fig08_has_expected_shape() {
        let fig = fig08(Effort::Quick).unwrap();
        assert_eq!(fig.xs, vec![50.0, 100.0]);
        assert_eq!(fig.algos.len(), 3);
        for row in 0..fig.xs.len() {
            for algo in ["MSA", "SCA", "RSA"] {
                assert!(fig.mean_cost(row, algo).unwrap() > 0.0);
            }
        }
        // Cost grows with network size (paper's qualitative claim).
        assert!(fig.mean_cost(1, "MSA").unwrap() > fig.mean_cost(0, "MSA").unwrap());
    }

    #[test]
    fn quick_fig13_runs_on_palmetto() {
        let fig = fig13_heuristics(Effort::Quick).unwrap();
        assert_eq!(fig.xs, vec![5.0, 15.0]);
        assert!(fig.mean_cost(1, "RSA").unwrap() >= fig.mean_cost(1, "MSA").unwrap() * 0.8);
    }
}
