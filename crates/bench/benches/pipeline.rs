//! Benchmarks for the paper's pipeline stages: MOD pricing and decoding, MSA
//! stage 1, OPA stage 2, the baselines, and ILP model building.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sft_core::ilp::IlpModel;
use sft_core::mod_network::ExpandedMod;
use sft_core::{msa, opa, rsa, sca};
use sft_topology::{generate, palmetto, workload, Scenario, ScenarioConfig};
use std::hint::black_box;

fn medium_scenario() -> Scenario {
    let config = ScenarioConfig {
        network_size: 100,
        dest_ratio: 0.2,
        sfc_len: 5,
        ..ScenarioConfig::default()
    };
    generate(&config, 42).unwrap()
}

fn bench_mod_network(c: &mut Criterion) {
    let s = medium_scenario();
    c.bench_function("pipeline/expanded_mod_build_decode_100n_k5", |b| {
        b.iter(|| {
            let e = ExpandedMod::build(&s.network, s.task.source(), s.task.sfc()).unwrap();
            black_box(
                (0..e.servers().len())
                    .filter_map(|row| e.placement_for(row))
                    .count(),
            )
        })
    });
}

fn bench_stage_one(c: &mut Criterion) {
    let s = medium_scenario();
    let mut group = c.benchmark_group("pipeline/stage1_100n_k5_d20");
    group.bench_function("msa", |b| {
        b.iter(|| black_box(msa::stage_one(&s.network, &s.task).unwrap()))
    });
    group.bench_function("sca", |b| {
        b.iter(|| black_box(sca::stage_one(&s.network, &s.task).unwrap()))
    });
    group.bench_function("rsa", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            black_box(rsa::stage_one(&s.network, &s.task, &mut rng).unwrap())
        })
    });
    group.finish();
}

fn bench_stage_two(c: &mut Criterion) {
    let s = medium_scenario();
    let chain = msa::stage_one(&s.network, &s.task).unwrap();
    c.bench_function("pipeline/opa_100n_k5_d20", |b| {
        b.iter(|| black_box(opa::optimize(&s.network, &s.task, &chain).unwrap()))
    });
}

fn bench_full_solve_palmetto(c: &mut Criterion) {
    let config = ScenarioConfig {
        dest_ratio: 15.0 / palmetto::NODE_COUNT as f64,
        sfc_len: 10,
        ..ScenarioConfig::default()
    };
    let s = workload::on_graph(palmetto::graph(), &config, 7).unwrap();
    c.bench_function("pipeline/two_stage_palmetto_d15_k10", |b| {
        b.iter(|| {
            black_box(
                sft_core::solve(&s.network, &s.task, &sft_core::SolveOptions::default()).unwrap(),
            )
        })
    });
}

fn bench_ilp_build(c: &mut Criterion) {
    let config = ScenarioConfig {
        dest_ratio: 0.3,
        sfc_len: 2,
        ..ScenarioConfig::default()
    };
    let s = workload::on_graph(palmetto::reduced_graph(10), &config, 3).unwrap();
    c.bench_function("pipeline/ilp_build_reduced_palmetto", |b| {
        b.iter(|| black_box(IlpModel::build(&s.network, &s.task).unwrap()))
    });
}

criterion_group!(
    benches,
    bench_mod_network,
    bench_stage_one,
    bench_stage_two,
    bench_full_solve_palmetto,
    bench_ilp_build
);
criterion_main!(benches);
