//! Micro-benchmarks for the substrate crates: graph algorithms and the
//! LP/MILP solver. These are the building blocks whose costs dominate the
//! paper's complexity analysis (Theorem 5).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sft_graph::generate::{self, euclidean_er};
use sft_graph::{Graph, KmbSweep, LazyDistances, NodeId, SteinerTree};
use sft_lp::{Cmp, MipConfig, Problem};
use std::hint::black_box;

fn er(n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let p = 1.2 * (n as f64).ln() / n as f64;
    euclidean_er(n, p, 100.0, &mut rng).unwrap().graph
}

fn bench_dijkstra(c: &mut Criterion) {
    let g = er(250, 1);
    c.bench_function("graph/dijkstra_250", |b| {
        b.iter(|| black_box(g.dijkstra(NodeId(0))))
    });
}

/// A Waxman WAN with the CLI's `waxman:<n>:<seed>` density: `beta = 0.4`
/// and an expected degree of `2 ln n`.
fn waxman(n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let beta = 0.4;
    let alpha = (2.0 * (n as f64).ln() / (4.0 * std::f64::consts::PI * beta * n as f64)).sqrt();
    generate::waxman(n, alpha, beta, 100.0, &mut rng)
        .unwrap()
        .graph
}

/// KMB on the distance engine's rows, warmed by one build before timing
/// (the steady state of a long-running service), beside the
/// Takahashi–Matsuyama ablation.
fn bench_steiner(c: &mut Criterion) {
    let g = er(100, 3);
    let dist = LazyDistances::new(&g);
    let terminals: Vec<NodeId> = (0..12).map(|i| NodeId(i * 7 % 100)).collect();
    let kmb = || {
        g.steiner_kmb_with_provider(&dist, &terminals, None)
            .unwrap()
    };
    kmb();
    let mut group = c.benchmark_group("graph/steiner_100n_12t");
    group.bench_function("kmb", |b| b.iter(|| black_box(kmb())));
    group.bench_function("takahashi", |b| {
        b.iter(|| black_box(g.steiner_takahashi(&terminals).unwrap()))
    });
    group.finish();

    // Shaped like the lazy_delay_churn workload: one root and four
    // destinations on a 2,000-node WAN, and a stage-1 sweep building the
    // trees of eight roots over those destinations.
    let g = waxman(2_000, 7);
    let dist = LazyDistances::new(&g);
    let dests: Vec<NodeId> = [311, 977, 1_403, 1_850].map(NodeId).to_vec();
    let roots: Vec<NodeId> = (0..8).map(|i| NodeId(i * 250 + 60)).collect();
    let mut terminals = vec![roots[0]];
    terminals.extend_from_slice(&dests);
    let sweep = || {
        let mut sweep = KmbSweep::new(&g, &dist, &dests);
        let trees: Vec<SteinerTree> = roots
            .iter()
            .map(|&r| sweep.tree(r, None).unwrap())
            .collect();
        trees
    };
    sweep();
    let mut group = c.benchmark_group("graph/steiner_2000n_5t");
    group.bench_function("kmb", |b| {
        b.iter(|| {
            black_box(
                g.steiner_kmb_with_provider(&dist, &terminals, None)
                    .unwrap(),
            )
        })
    });
    group.bench_function("kmb_sweep_8_roots", |b| b.iter(|| black_box(sweep())));
    group.finish();
}

fn bench_mst(c: &mut Criterion) {
    let g = er(250, 4);
    let mut group = c.benchmark_group("graph/mst_250");
    group.bench_function("kruskal", |b| {
        b.iter(|| black_box(g.minimum_spanning_tree().unwrap()))
    });
    group.bench_function("prim", |b| b.iter(|| black_box(g.prim(NodeId(0)).unwrap())));
    group.finish();
}

/// A random dense-ish feasible LP: max c.x, Ax <= b, x in [0, 10].
fn random_lp(vars: usize, rows: usize, seed: u64) -> Problem {
    use rand::RngExt;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = Problem::maximize();
    let xs: Vec<_> = (0..vars)
        .map(|i| {
            p.add_continuous(format!("x{i}"), 0.0, 10.0, rng.random::<f64>())
                .unwrap()
        })
        .collect();
    for r in 0..rows {
        let mut terms = Vec::new();
        for &v in &xs {
            if rng.random::<f64>() < 0.5 {
                terms.push((v, rng.random::<f64>()));
            }
        }
        let rhs = 1.0 + rng.random::<f64>() * vars as f64;
        p.add_constraint(format!("r{r}"), terms, Cmp::Le, rhs)
            .unwrap();
    }
    p
}

fn bench_simplex(c: &mut Criterion) {
    let p = random_lp(60, 40, 5);
    c.bench_function("lp/simplex_60v_40c", |b| {
        b.iter(|| black_box(sft_lp::solve_lp(&p).unwrap()))
    });
}

fn bench_mip(c: &mut Criterion) {
    use rand::RngExt;
    let mut rng = StdRng::seed_from_u64(6);
    let mut p = Problem::maximize();
    let xs: Vec<_> = (0..16)
        .map(|i| {
            p.add_binary(format!("x{i}"), 1.0 + rng.random::<f64>() * 9.0)
                .unwrap()
        })
        .collect();
    let terms: Vec<_> = xs
        .iter()
        .map(|&v| (v, 1.0 + rng.random::<f64>() * 4.0))
        .collect();
    p.add_constraint("w", terms, Cmp::Le, 18.0).unwrap();
    c.bench_function("lp/branch_bound_knapsack_16", |b| {
        b.iter(|| black_box(sft_lp::solve_mip(&p, &MipConfig::default()).unwrap()))
    });
}

criterion_group!(
    benches,
    bench_dijkstra,
    bench_steiner,
    bench_mst,
    bench_simplex,
    bench_mip
);
criterion_main!(benches);
