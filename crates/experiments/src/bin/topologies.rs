//! Extension experiment: algorithm robustness across topology families.
//!
//! The paper evaluates ER networks and one real backbone. This sweep runs
//! the same Table-I workload over five structurally different families —
//! ER, random geometric, grid, fat-tree, Palmetto — and checks that the
//! MSA > SCA/RSA ordering is topology-independent.
//!
//! Pass `--quick` for fewer seeds.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sft_core::{MulticastTask, Network, Sfc, VnfCatalog, VnfId};
use sft_experiments::{record::FigureData, runner, Effort, ExperimentError};
use sft_graph::parallel::{run_partitioned, Parallelism};
use sft_graph::{generate, Graph, LazyDistances, NodeId};
use sft_topology::{palmetto, Scenario};

fn topology(family: &str, seed: u64) -> Result<Graph, ExperimentError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = match family {
        "er" => {
            generate::euclidean_er(60, 0.082, 100.0, &mut rng)
                .map_err(sft_core::CoreError::from)?
                .graph
        }
        "geometric" => {
            generate::random_geometric(60, 22.0, 100.0, &mut rng)
                .map_err(sft_core::CoreError::from)?
                .graph
        }
        "grid" => generate::grid(8, 8, 10.0).map_err(sft_core::CoreError::from)?,
        "fat-tree" => generate::fat_tree(4, 4.0).map_err(sft_core::CoreError::from)?,
        "palmetto" => palmetto::graph(),
        other => {
            return Err(ExperimentError::Config(format!(
                "unknown topology family `{other}` (er, geometric, grid, fat-tree, palmetto)"
            )))
        }
    };
    Ok(graph)
}

fn scenario(family: &str, seed: u64) -> Result<Scenario, ExperimentError> {
    let graph = topology(family, seed)?;
    let n = graph.node_count();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
    let l_g = LazyDistances::new(&graph).average_distance().max(1e-9);
    let mut builder = Network::builder(graph, VnfCatalog::uniform(8))
        .all_servers(3.0)?
        .uniform_setup_cost(2.0 * l_g)?;
    // Scatter some deployments so reuse matters on every family.
    for _ in 0..n {
        let f = VnfId(rng.random_range(0..8));
        let v = NodeId(rng.random_range(0..n));
        builder = match builder.clone().deploy(f, v) {
            Ok(b) => b,
            Err(_) => builder,
        };
    }
    let network = builder.build()?;
    let source = NodeId(rng.random_range(0..n));
    let mut dests = Vec::new();
    while dests.len() < (n / 10).max(3) {
        let d = NodeId(rng.random_range(0..n));
        if d != source && !dests.contains(&d) {
            dests.push(d);
        }
    }
    let task = MulticastTask::new(
        source,
        dests,
        Sfc::new((0..4).map(VnfId).collect::<Vec<_>>())?,
    )?;
    task.check_against(&network)?;
    Ok(Scenario {
        network,
        task,
        seed,
    })
}

fn main() -> Result<(), ExperimentError> {
    let effort = Effort::from_args();
    let families = ["er", "geometric", "grid", "fat-tree", "palmetto"];
    let mut fig = FigureData::new(
        "topologies",
        "robustness across topology families (60-64 nodes, k = 4, mu = 2)",
        "family#",
        &runner::HEURISTICS,
    );
    for (fi, family) in families.iter().enumerate() {
        let row = fig.push_x(fi as f64 + 1.0);
        // Per-seed parallel sweep; records land in seed order either way.
        let per_seed = run_partitioned(Parallelism::auto(), effort.reps(), |range| {
            range
                .map(|rep| {
                    let result = scenario(family, 100 * (fi as u64 + 1) + rep as u64)
                        .and_then(|s| Ok(runner::run_heuristics(&s)?));
                    (rep, result)
                })
                .collect::<Vec<_>>()
        });
        for (rep, result) in per_seed.into_iter().flatten() {
            match result {
                Ok(runs) => {
                    for run in runs {
                        fig.record(row, run.algo, run.cost, run.ms)?;
                    }
                }
                Err(e) => eprintln!("{family} seed {rep}: {e}"),
            }
        }
        fig.notes.push(format!("family {} = {family}", fi + 1));
    }
    if let Some((avg, max)) = fig.saving_vs("MSA", "RSA") {
        fig.notes.push(format!(
            "MSA saves {:.2}% on average (max {:.2}%) vs RSA across all families",
            avg * 100.0,
            max * 100.0
        ));
    }
    print!("{}", fig.render());
    match fig.write_csv(std::path::Path::new("results")) {
        Ok(p) => println!("csv: {}", p.display()),
        Err(e) => eprintln!("could not write csv: {e}"),
    }
    Ok(())
}
