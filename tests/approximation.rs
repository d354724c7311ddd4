//! Approximation-quality integration tests: the heuristics against the
//! exact ILP and the brute-force oracles (paper Theorems 2 and 6).

use sft::core::brute;
use sft::core::ilp::IlpModel;
use sft::core::{solve, SolveOptions};
use sft::lp::{solve_lp, LpOutcome, MipConfig, MipStatus};
use sft::topology::{generate, palmetto, workload, ScenarioConfig};

fn tiny_configs() -> Vec<(ScenarioConfig, u64)> {
    let base = ScenarioConfig {
        network_size: 9,
        dest_ratio: 0.25, // 2 destinations
        sfc_len: 2,
        catalog_size: 4,
        er_probability: Some(0.35),
        ..ScenarioConfig::default()
    };
    (0..4).map(|seed| (base.clone(), seed)).collect()
}

#[test]
fn heuristic_stays_within_the_theorem6_bound_of_opt() {
    // Theorem 6: cost(two-stage) <= (1 + rho) * OPT; with KMB rho = 2.
    for (config, seed) in tiny_configs() {
        let s = generate(&config, seed).unwrap();
        let heuristic = solve(&s.network, &s.task, &SolveOptions::default()).unwrap();
        let model = IlpModel::build(&s.network, &s.task).unwrap();
        let mip = MipConfig {
            warm_start: model.warm_start(&s.network, &s.task, &heuristic.embedding),
            max_nodes: 20_000,
            ..MipConfig::default()
        };
        let out = model.solve(&s.network, &s.task, &mip).unwrap();
        assert_eq!(out.status, MipStatus::Optimal, "seed {seed}");
        let opt = out.objective.unwrap();
        let h = heuristic.cost.total();
        assert!(h >= opt - 1e-6, "seed {seed}: heuristic {h} beat OPT {opt}");
        assert!(
            h <= 3.0 * opt + 1e-6,
            "seed {seed}: ratio {} exceeds 1 + rho = 3",
            h / opt
        );
    }
}

#[test]
fn lp_relaxation_lower_bounds_the_ilp() {
    let (config, seed) = tiny_configs().remove(0);
    let s = generate(&config, seed).unwrap();
    let model = IlpModel::build(&s.network, &s.task).unwrap();
    let relaxed = model.problem().relaxed();
    let lp = solve_lp(&relaxed).unwrap();
    let LpOutcome::Optimal(lp_sol) = lp else {
        panic!("relaxation must be solvable");
    };
    let out = model
        .solve(&s.network, &s.task, &MipConfig::default())
        .unwrap();
    assert_eq!(out.status, MipStatus::Optimal);
    assert!(
        lp_sol.objective <= out.objective.unwrap() + 1e-6,
        "LP bound {} must not exceed ILP optimum {}",
        lp_sol.objective,
        out.objective.unwrap()
    );
}

#[test]
fn ilp_optimum_never_exceeds_the_chain_tree_oracle() {
    // The optimal SFT is at least as good as the best chain+tree.
    for (config, seed) in tiny_configs().into_iter().take(2) {
        let s = generate(&config, seed).unwrap();
        let Ok((_, oracle)) = brute::optimal_chain_tree(&s.network, &s.task) else {
            continue; // oracle cap hit; skip
        };
        let model = IlpModel::build(&s.network, &s.task).unwrap();
        let out = model
            .solve(&s.network, &s.task, &MipConfig::default())
            .unwrap();
        assert_eq!(out.status, MipStatus::Optimal);
        assert!(
            out.objective.unwrap() <= oracle + 1e-6,
            "seed {seed}: ILP {} vs oracle {}",
            out.objective.unwrap(),
            oracle
        );
    }
}

#[test]
fn theorem2_holds_on_random_networks() {
    // The expanded-MOD shortest paths equal the brute-force optimal chain when
    // capacities are ample.
    let config = ScenarioConfig {
        network_size: 8,
        dest_ratio: 0.2,
        sfc_len: 3,
        catalog_size: 5,
        capacity_range: (5, 5), // ample
        deployed_density: 0.3,
        er_probability: Some(0.4),
        ..ScenarioConfig::default()
    };
    for seed in 0..5 {
        let s = generate(&config, seed).unwrap();
        let (_, brute_cost) = brute::optimal_chain(&s.network, &s.task).unwrap();
        let emod =
            sft::core::mod_network::ExpandedMod::build(&s.network, s.task.source(), s.task.sfc())
                .unwrap();
        let mod_best = (0..emod.servers().len())
            .filter_map(|row| emod.placement_for(row).map(|(_, c)| c))
            .fold(f64::INFINITY, f64::min);
        assert!(
            (mod_best - brute_cost).abs() < 1e-9,
            "seed {seed}: {mod_best} vs {brute_cost}"
        );
    }
}

#[test]
fn reduced_palmetto_opt_certifies_heuristics() {
    let config = ScenarioConfig {
        dest_ratio: 0.2, // 2 destinations on 10 cities
        sfc_len: 2,
        ..ScenarioConfig::default()
    };
    let s = workload::on_graph(palmetto::reduced_graph(10), &config, 3).unwrap();
    let model = IlpModel::build(&s.network, &s.task).unwrap();
    let heuristic = solve(&s.network, &s.task, &SolveOptions::default()).unwrap();
    let mip = MipConfig {
        warm_start: model.warm_start(&s.network, &s.task, &heuristic.embedding),
        ..MipConfig::default()
    };
    let out = model.solve(&s.network, &s.task, &mip).unwrap();
    assert_eq!(out.status, MipStatus::Optimal);
    let opt = out.objective.unwrap();
    assert!(heuristic.cost.total() >= opt - 1e-6);
    assert!(heuristic.cost.total() <= 3.0 * opt + 1e-6);
    // The decoded OPT embedding is feasible and its canonical price does
    // not exceed the ILP objective (cycle arcs may only be dropped).
    let emb = out.embedding.unwrap();
    assert!(sft::core::validate::is_valid(&s.network, &s.task, &emb));
    let cost = sft::core::delivery_cost(&s.network, &s.task, &emb).unwrap();
    assert!(cost.total() <= opt + 1e-6);
}
