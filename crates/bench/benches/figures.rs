//! One benchmark per paper figure: each measures the cost of regenerating
//! a representative sweep point of that figure (the full sweeps live in
//! `sft-experiments`; run `cargo run --release -p sft-experiments --bin
//! all` to print the actual tables).

use criterion::{criterion_group, criterion_main, Criterion};
use sft_core::ilp::IlpModel;
use sft_experiments::run_heuristics;
use sft_lp::MipConfig;
use sft_topology::{generate, palmetto, workload, Scenario, ScenarioConfig};
use std::hint::black_box;
use std::time::Duration;

fn point(config: ScenarioConfig, seed: u64) -> Scenario {
    generate(&config, seed).unwrap()
}

fn bench_point(c: &mut Criterion, name: &str, scenario: &Scenario) {
    c.bench_function(name, |b| {
        b.iter(|| black_box(run_heuristics(scenario).unwrap()))
    });
}

/// Fig. 8: |V| sweep at ratio 0.1 — representative point |V| = 100.
fn fig08(c: &mut Criterion) {
    let s = point(
        ScenarioConfig {
            network_size: 100,
            dest_ratio: 0.1,
            sfc_len: 5,
            ..ScenarioConfig::default()
        },
        1,
    );
    bench_point(c, "figures/fig08_point_v100_r0.1", &s);
}

/// Fig. 9: |V| sweep at ratio 0.3 — representative point |V| = 100.
fn fig09(c: &mut Criterion) {
    let s = point(
        ScenarioConfig {
            network_size: 100,
            dest_ratio: 0.3,
            sfc_len: 5,
            ..ScenarioConfig::default()
        },
        2,
    );
    bench_point(c, "figures/fig09_point_v100_r0.3", &s);
}

/// Fig. 10: setup cost 1 x l_G — representative point |V| = 100.
fn fig10(c: &mut Criterion) {
    let s = point(
        ScenarioConfig {
            network_size: 100,
            dest_ratio: 0.2,
            deployment_cost_mu: 1.0,
            sfc_len: 5,
            ..ScenarioConfig::default()
        },
        3,
    );
    bench_point(c, "figures/fig10_point_v100_mu1", &s);
}

/// Fig. 11: setup cost 3 x l_G — representative point |V| = 100.
fn fig11(c: &mut Criterion) {
    let s = point(
        ScenarioConfig {
            network_size: 100,
            dest_ratio: 0.2,
            deployment_cost_mu: 3.0,
            sfc_len: 5,
            ..ScenarioConfig::default()
        },
        4,
    );
    bench_point(c, "figures/fig11_point_v100_mu3", &s);
}

/// Fig. 12: SFC-length sweep — representative point k = 15.
fn fig12(c: &mut Criterion) {
    let s = point(
        ScenarioConfig {
            network_size: 100,
            dest_ratio: 0.2,
            deployment_cost_mu: 3.0,
            sfc_len: 15,
            ..ScenarioConfig::default()
        },
        5,
    );
    bench_point(c, "figures/fig12_point_v100_k15", &s);
}

/// Fig. 13 (heuristic panel): Palmetto at |D| = 15, k = 10.
fn fig13(c: &mut Criterion) {
    let config = ScenarioConfig {
        dest_ratio: 15.0 / palmetto::NODE_COUNT as f64,
        sfc_len: 10,
        ..ScenarioConfig::default()
    };
    let s = workload::on_graph(palmetto::graph(), &config, 6).unwrap();
    bench_point(c, "figures/fig13_point_palmetto_d15", &s);
}

/// Fig. 13 (OPT panel): exact ILP on the reduced Palmetto instance.
fn fig13_opt(c: &mut Criterion) {
    let config = ScenarioConfig {
        dest_ratio: 0.2,
        sfc_len: 2,
        ..ScenarioConfig::default()
    };
    let s = workload::on_graph(palmetto::reduced_graph(10), &config, 7).unwrap();
    let model = IlpModel::build(&s.network, &s.task).unwrap();
    let heuristic =
        sft_core::solve(&s.network, &s.task, &sft_core::SolveOptions::default()).unwrap();
    let mip = MipConfig {
        warm_start: model.warm_start(&s.network, &s.task, &heuristic.embedding),
        max_nodes: 2000,
        time_limit: Some(Duration::from_secs(60)),
        ..MipConfig::default()
    };
    let mut group = c.benchmark_group("figures/fig13_opt_point_reduced");
    group.sample_size(10);
    group.bench_function("ilp_exact", |b| {
        b.iter(|| black_box(model.solve(&s.network, &s.task, &mip).unwrap()))
    });
    group.finish();
}

/// Fig. 14: Palmetto SFC-length sweep — representative point k = 15.
fn fig14(c: &mut Criterion) {
    let config = ScenarioConfig {
        dest_ratio: 15.0 / palmetto::NODE_COUNT as f64,
        sfc_len: 15,
        ..ScenarioConfig::default()
    };
    let s = workload::on_graph(palmetto::graph(), &config, 8).unwrap();
    bench_point(c, "figures/fig14_point_palmetto_k15", &s);
}

criterion_group!(benches, fig08, fig09, fig10, fig11, fig12, fig13, fig13_opt, fig14);
criterion_main!(benches);
