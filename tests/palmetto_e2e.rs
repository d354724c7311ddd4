//! End-to-end runs on the real-world-style Palmetto backbone (§V-C).

use sft::core::validate::is_valid;
use sft::core::{solve, SolveOptions, Strategy};
use sft::topology::{palmetto, workload, ScenarioConfig};

fn palmetto_config(dest: usize, k: usize) -> ScenarioConfig {
    ScenarioConfig {
        dest_ratio: dest as f64 / palmetto::NODE_COUNT as f64,
        sfc_len: k,
        deployment_cost_mu: 2.0,
        ..ScenarioConfig::default()
    }
}

#[test]
fn paper_scale_parameters_run_clean() {
    // |D| in [5, 25] at k = 10, and k in [5, 25] at |D| = 15 (the exact
    // sweeps of Figs. 13 and 14), one seed per point.
    for d in [5, 15, 25] {
        let s = workload::on_graph(palmetto::graph(), &palmetto_config(d, 10), d as u64).unwrap();
        for strategy in [Strategy::Msa, Strategy::Sca, Strategy::Rsa] {
            let options = SolveOptions {
                strategy,
                seed: 1,
                ..SolveOptions::default()
            };
            let r = solve(&s.network, &s.task, &options).unwrap();
            assert!(
                is_valid(&s.network, &s.task, &r.embedding),
                "{strategy:?} |D|={d}"
            );
        }
    }
    for k in [5, 15, 25] {
        let s = workload::on_graph(palmetto::graph(), &palmetto_config(15, k), k as u64).unwrap();
        let r = solve(&s.network, &s.task, &SolveOptions::default()).unwrap();
        assert!(is_valid(&s.network, &s.task, &r.embedding), "k={k}");
        assert_eq!(r.chain.placement.len(), k);
    }
}

#[test]
fn cost_grows_with_destination_count_on_average() {
    let mut means = Vec::new();
    for d in [5, 25] {
        let mut total = 0.0;
        let reps = 5;
        for seed in 0..reps {
            let s = workload::on_graph(palmetto::graph(), &palmetto_config(d, 5), seed).unwrap();
            let r = solve(&s.network, &s.task, &SolveOptions::default()).unwrap();
            total += r.cost.total();
        }
        means.push(total / reps as f64);
    }
    assert!(
        means[1] > means[0],
        "25 destinations ({}) should cost more than 5 ({})",
        means[1],
        means[0]
    );
}

#[test]
fn cost_grows_with_chain_length_on_average() {
    let mut means = Vec::new();
    for k in [5, 25] {
        let mut total = 0.0;
        let reps = 5;
        for seed in 0..reps {
            let s = workload::on_graph(palmetto::graph(), &palmetto_config(15, k), seed).unwrap();
            let r = solve(&s.network, &s.task, &SolveOptions::default()).unwrap();
            total += r.cost.total();
        }
        means.push(total / reps as f64);
    }
    assert!(
        means[1] > means[0],
        "k=25 ({}) should cost more than k=5 ({})",
        means[1],
        means[0]
    );
}

#[test]
fn msa_wins_on_palmetto_on_average() {
    let mut msa = 0.0;
    let mut rsa = 0.0;
    for seed in 0..6 {
        let s = workload::on_graph(palmetto::graph(), &palmetto_config(15, 10), seed).unwrap();
        msa += solve(&s.network, &s.task, &SolveOptions::default())
            .unwrap()
            .cost
            .total();
        let rsa_options = SolveOptions {
            strategy: Strategy::Rsa,
            seed,
            ..SolveOptions::default()
        };
        rsa += solve(&s.network, &s.task, &rsa_options)
            .unwrap()
            .cost
            .total();
    }
    assert!(msa < rsa, "MSA {msa} vs RSA {rsa}");
}
