//! Ablation studies of the design choices DESIGN.md calls out.
//!
//! * [`opa_gain`] — **SFT vs SFC**: the same stage-1 chains with and
//!   without the stage-2 tree transformation. This quantifies the paper's
//!   central claim that "embedding an SFT for the multicast task can
//!   outperform embedding an SFC" (§IV-C).
//! * [`steiner_choice`] — stage 1 with KMB (the paper's choice) vs the
//!   Takahashi–Matsuyama heuristic.
//! * [`warm_start_effect`] — branch-and-bound effort with and without the
//!   heuristic warm start when solving the exact ILP.

use crate::record::FigureData;
use crate::{Effort, ExperimentError};
use sft_core::ilp::IlpModel;
use sft_core::msa::{self, SteinerMethod};
use sft_core::{opa, CoreError, SolveOptions};
use sft_lp::MipConfig;
use sft_topology::{generate, palmetto, workload, ScenarioConfig};
use std::time::{Duration, Instant};

/// SFT vs SFC: MSA stage 1 followed by OPA, against the same stage-1
/// output frozen as a chain.
///
/// Runs on two workload families: the paper's Table-I random scenarios
/// (where — a reproduction finding, see EXPERIMENTS.md — OPA essentially
/// never fires, because metric costs plus MSA's exhaustive last-node sweep
/// leave no replication slack) and the `clustered` Fig.-6-style family
/// built to contain genuine branching opportunities.
pub fn opa_gain(effort: Effort) -> Result<FigureData, ExperimentError> {
    let mut fig = FigureData::new(
        "ablation_opa",
        "SFT vs SFC: the stage-2 (OPA) gain over the same stage-1 chains, per workload family",
        "family",
        &["SFC (stage1)", "SFT (stage1+OPA)"],
    );
    let reps = match effort {
        Effort::Quick => 4,
        Effort::Paper => 20,
    };

    let run_family = |fig: &mut FigureData,
                      row: usize,
                      label: &str,
                      make: &dyn Fn(u64) -> Result<sft_topology::Scenario, CoreError>|
     -> Result<(usize, usize), ExperimentError> {
        let mut improved = 0;
        for seed in 0..reps as u64 {
            let s = make(seed)?;
            let t0 = Instant::now();
            let chain = msa::stage_one(&s.network, &s.task)?;
            let stage1_ms = t0.elapsed().as_secs_f64() * 1e3;
            let sfc = chain.to_embedding(&s.network, &s.task)?;
            let sfc_cost = sft_core::delivery_cost(&s.network, &s.task, &sfc)?.total();
            let t1 = Instant::now();
            let out = opa::optimize(&s.network, &s.task, &chain)?;
            let opa_ms = t1.elapsed().as_secs_f64() * 1e3;
            fig.record(row, "SFC (stage1)", sfc_cost, stage1_ms)?;
            fig.record(
                row,
                "SFT (stage1+OPA)",
                out.cost.total(),
                stage1_ms + opa_ms,
            )?;
            if out.cost.total() < sfc_cost - 1e-9 {
                improved += 1;
            }
        }
        fig.notes.push(format!("x={}: {label}", fig.xs[row]));
        Ok((improved, reps))
    };

    // Family 1: Table-I random scenarios.
    let table1 = ScenarioConfig {
        network_size: 80,
        dest_ratio: 0.3,
        sfc_len: 5,
        ..ScenarioConfig::default()
    };
    let row = fig.push_x(1.0);
    let (imp1, tot1) = run_family(
        &mut fig,
        row,
        "Table-I ER workloads (paper's evaluation setup)",
        &|seed| generate(&table1, seed),
    )?;

    // Family 2: the clustered Fig.-6 geometry.
    let fam2 = sft_topology::workload::ClusteredConfig::default();
    let row = fig.push_x(2.0);
    let (imp2, tot2) = run_family(
        &mut fig,
        row,
        "clustered Fig.-6 geometry (pinned chain + side clusters)",
        &|seed| sft_topology::workload::clustered(&fam2, seed),
    )?;

    fig.notes.push(format!(
        "OPA strictly improved {imp1}/{tot1} Table-I instances and {imp2}/{tot2} clustered instances"
    ));
    if let Some((avg, max)) = fig.saving_vs("SFT (stage1+OPA)", "SFC (stage1)") {
        fig.notes.push(format!(
            "overall stage-2 saving: avg {:.2}% (max {:.2}%)",
            avg * 100.0,
            max * 100.0
        ));
    }
    Ok(fig)
}

/// KMB vs Takahashi–Matsuyama as the stage-1 Steiner construction.
pub fn steiner_choice(effort: Effort) -> Result<FigureData, ExperimentError> {
    let mut fig = FigureData::new(
        "ablation_steiner",
        "stage-1 Steiner construction: KMB (paper) vs Takahashi-Matsuyama, vs network size",
        "|V|",
        &["MSA+KMB", "MSA+TM"],
    );
    let sizes = match effort {
        Effort::Quick => vec![50, 100],
        Effort::Paper => vec![50, 100, 150, 200],
    };
    for (pi, n) in sizes.iter().enumerate() {
        let row = fig.push_x(*n as f64);
        let config = ScenarioConfig {
            network_size: *n,
            dest_ratio: 0.2,
            sfc_len: 5,
            ..ScenarioConfig::default()
        };
        for rep in 0..effort.reps() {
            let seed = 700 * (pi as u64 + 1) + rep as u64;
            let s = generate(&config, seed)?;
            for (label, method) in [
                ("MSA+KMB", SteinerMethod::Kmb),
                ("MSA+TM", SteinerMethod::Takahashi),
            ] {
                let t = Instant::now();
                let options = SolveOptions {
                    steiner: method,
                    ..SolveOptions::default()
                };
                let r = sft_core::solve(&s.network, &s.task, &options)?;
                let ms = t.elapsed().as_secs_f64() * 1e3;
                fig.record(row, label, r.cost.total(), ms)?;
            }
        }
    }
    if let Some((avg, _)) = fig.saving_vs("MSA+KMB", "MSA+TM") {
        fig.notes.push(format!(
            "KMB vs TM final-cost delta: {:.2}% (positive = KMB cheaper)",
            avg * 100.0
        ));
    }
    Ok(fig)
}

/// The dependent-path exclusion rule (§IV-C): the paper's OPA skips tree
/// paths that share any edge with the embedded chain. Our reproduction
/// found this blocks a share of genuine improvements; this ablation runs
/// OPA with and without the rule on the clustered (Fig.-6) family, where
/// the canonical-cost acceptance check keeps the permissive variant safe.
pub fn dependence_rule(effort: Effort) -> Result<FigureData, ExperimentError> {
    use sft_core::opa::OpaConfig;
    let mut fig = FigureData::new(
        "ablation_dependence",
        "OPA with the paper's dependent-path exclusion vs without it (clustered family)",
        "seed block",
        &["OPA (paper)", "OPA (incl. dependent)"],
    );
    let reps = match effort {
        Effort::Quick => 5,
        Effort::Paper => 20,
    };
    let config = sft_topology::workload::ClusteredConfig::default();
    let row = fig.push_x(1.0);
    let (mut fired_strict, mut fired_perm) = (0, 0);
    for seed in 0..reps as u64 {
        let s = sft_topology::workload::clustered(&config, seed)?;
        let chain = msa::stage_one(&s.network, &s.task)?;
        let t0 = Instant::now();
        let strict = opa::optimize(&s.network, &s.task, &chain)?;
        let strict_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let perm = opa::optimize_with(
            &s.network,
            &s.task,
            &chain,
            &OpaConfig {
                include_dependent: true,
            },
        )?;
        let perm_ms = t1.elapsed().as_secs_f64() * 1e3;
        fig.record(row, "OPA (paper)", strict.cost.total(), strict_ms)?;
        fig.record(row, "OPA (incl. dependent)", perm.cost.total(), perm_ms)?;
        if strict.cost.total() < strict.initial_cost - 1e-9 {
            fired_strict += 1;
        }
        if perm.cost.total() < perm.initial_cost - 1e-9 {
            fired_perm += 1;
        }
    }
    fig.notes.push(format!(
        "stage 2 fired on {fired_strict}/{reps} instances with the exclusion, {fired_perm}/{reps} without it"
    ));
    if let Some((avg, max)) = fig.saving_vs("OPA (incl. dependent)", "OPA (paper)") {
        fig.notes.push(format!(
            "dropping the exclusion saves a further {:.2}% on average (max {:.2}%)",
            avg * 100.0,
            max * 100.0
        ));
    }
    Ok(fig)
}

/// Branch-and-bound effort with vs without the heuristic warm start.
pub fn warm_start_effect(effort: Effort) -> Result<FigureData, ExperimentError> {
    let mut fig = FigureData::new(
        "ablation_warmstart",
        "exact ILP solve effort with vs without the heuristic warm start (reduced Palmetto)",
        "|D|",
        &["cold B&B", "warm B&B"],
    );
    let dests = match effort {
        Effort::Quick => vec![2],
        Effort::Paper => vec![2, 3],
    };
    let reps = match effort {
        Effort::Quick => 1,
        Effort::Paper => 2,
    };
    let mut node_note = Vec::new();
    for (pi, d) in dests.iter().enumerate() {
        let row = fig.push_x(*d as f64);
        let config = ScenarioConfig {
            dest_ratio: *d as f64 / 10.0,
            sfc_len: 2,
            ..ScenarioConfig::default()
        };
        for rep in 0..reps {
            let seed = 900 * (pi as u64 + 1) + rep as u64;
            let s = workload::on_graph(palmetto::reduced_graph(10), &config, seed)?;
            let model = IlpModel::build(&s.network, &s.task)?;
            let heuristic = sft_core::solve(&s.network, &s.task, &SolveOptions::default())?;
            for (label, warm) in [
                ("cold B&B", None),
                (
                    "warm B&B",
                    model.warm_start(&s.network, &s.task, &heuristic.embedding),
                ),
            ] {
                let mip = MipConfig {
                    max_nodes: 4000,
                    time_limit: Some(Duration::from_secs(180)),
                    warm_start: warm,
                    ..MipConfig::default()
                };
                let t = Instant::now();
                let out = model.solve(&s.network, &s.task, &mip)?;
                let ms = t.elapsed().as_secs_f64() * 1e3;
                if let Some(obj) = out.objective {
                    fig.record(row, label, obj, ms)?;
                }
                node_note.push(format!("{label} |D|={d} seed {seed}: {} nodes", out.nodes));
            }
        }
    }
    fig.notes.extend(node_note);
    Ok(fig)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opa_gain_reports_both_columns() {
        let fig = opa_gain(Effort::Quick).unwrap();
        assert_eq!(fig.algos.len(), 2);
        for row in 0..fig.xs.len() {
            let sfc = fig.mean_cost(row, "SFC (stage1)").unwrap();
            let sft = fig.mean_cost(row, "SFT (stage1+OPA)").unwrap();
            assert!(sft <= sfc + 1e-9, "OPA must not worsen");
        }
    }

    #[test]
    fn steiner_ablation_runs() {
        let fig = steiner_choice(Effort::Quick).unwrap();
        assert_eq!(fig.xs.len(), 2);
        assert!(fig.mean_cost(0, "MSA+KMB").is_some());
        assert!(fig.mean_cost(0, "MSA+TM").is_some());
    }
}
