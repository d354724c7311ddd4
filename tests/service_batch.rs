//! The service layer must be a pure wrapper around the one-shot solver:
//! batching, thread fan-out, and the persistent Steiner cache are allowed
//! to change *when* work happens, never *what* comes out.
//!
//! * Independent batches are bit-identical to per-task `solve` calls
//!   against the same frozen network, at every thread count.
//! * Sequential batches are bit-identical to the existing
//!   [`SequentialEmbedder`] solve-and-commit loop.
//! * Serving the same stream twice reuses the cache (hits grow) without
//!   changing a single cost component.

use proptest::prelude::*;
use sft::core::Strategy as Algo;
use sft::core::{
    solve, MulticastTask, Network, Parallelism, SequentialEmbedder, SolveOptions, StageTwo,
};
use sft::service::{BatchMode, EmbedService};
use sft::topology::{palmetto, workload, ScenarioConfig};

/// One reduced-Palmetto network plus several tasks that are all valid on
/// it. The graph is fixed, so tasks drawn from sibling scenarios (same
/// config, different seeds) transfer to the base network.
fn shared_workload(
    nodes: usize,
    config: &ScenarioConfig,
    n_tasks: usize,
) -> (Network, Vec<MulticastTask>) {
    let network = workload::on_graph(palmetto::reduced_graph(nodes), config, 0)
        .expect("base scenario")
        .network;
    let tasks: Vec<MulticastTask> = (0..n_tasks as u64)
        .map(|seed| {
            workload::on_graph(palmetto::reduced_graph(nodes), config, seed)
                .expect("sibling scenario")
                .task
        })
        .collect();
    for t in &tasks {
        t.check_against(&network).expect("task fits the network");
    }
    (network, tasks)
}

fn arb_config() -> impl Strategy<Value = (usize, ScenarioConfig, usize)> {
    (10usize..=20, 1usize..5, 1.0f64..3.01, 2usize..6).prop_map(|(nodes, sfc_len, mu, n_tasks)| {
        let config = ScenarioConfig {
            dest_ratio: 0.25,
            sfc_len,
            deployment_cost_mu: mu,
            ..ScenarioConfig::default()
        };
        (nodes, config, n_tasks)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn independent_batches_are_bit_identical_to_oneshot_solves(
        (nodes, config, n_tasks) in arb_config(),
        threads in 1usize..6,
        skip_opa in any::<bool>(),
    ) {
        let stage_two = if skip_opa { StageTwo::Skip } else { StageTwo::Opa };
        let (network, mut tasks) = shared_workload(nodes, &config, n_tasks);
        // Duplicate the stream so the second half is served from cache.
        tasks.extend(tasks.clone());
        let options = SolveOptions { stage_two, parallelism: Parallelism::new(threads), ..SolveOptions::default() };
        let mut svc = EmbedService::new(network.clone(), Algo::Msa, options).unwrap();
        let batch = svc.submit_batch(&tasks, BatchMode::Independent);
        prop_assert_eq!(batch.len(), tasks.len());
        for (t, got) in tasks.iter().zip(&batch) {
            let got = got.as_ref().expect("feasible workload");
            // Reference: the plain solver, no cache, fully sequential.
            let want = solve(
                &network,
                t,
                &SolveOptions { stage_two, parallelism: Parallelism::sequential(), ..SolveOptions::default() },
            )
            .unwrap();
            prop_assert_eq!(&want.embedding, &got.embedding, "threads={}", threads);
            prop_assert_eq!(&want.chain.placement, &got.chain.placement);
            prop_assert_eq!(&want.chain.steiner_edges, &got.chain.steiner_edges);
            // Cache reuse never changes a single CostBreakdown component.
            prop_assert_eq!(want.cost.setup, got.cost.setup);
            prop_assert_eq!(want.cost.link, got.cost.link);
            prop_assert_eq!(want.cost.total(), got.cost.total());
            prop_assert_eq!(want.stage1_cost, got.stage1_cost);
        }
        // The duplicated half of the stream guarantees cache reuse.
        prop_assert!(svc.cache().hits() > 0);
        // Independent mode never mutates the network.
        prop_assert_eq!(svc.stats().commits, 0);
    }

    #[test]
    fn sequential_batches_match_the_sequential_embedder(
        (nodes, config, n_tasks) in arb_config(),
    ) {
        let (network, tasks) = shared_workload(nodes, &config, n_tasks);
        let mut svc = EmbedService::new(
            network.clone(),
            Algo::Msa,
            SolveOptions::default(),
        )
        .unwrap();
        let batch = svc.submit_batch(&tasks, BatchMode::Sequential);

        let mut reference = SequentialEmbedder::new(network, Algo::Msa);
        for (t, got) in tasks.iter().zip(&batch) {
            match got {
                Ok(got) => {
                    let want = reference.embed(t).unwrap();
                    prop_assert_eq!(&want.embedding, &got.embedding);
                    prop_assert_eq!(want.cost.setup, got.cost.setup);
                    prop_assert_eq!(want.cost.link, got.cost.link);
                }
                Err(_) => {
                    // Capacity can fill up mid-stream; the reference loop
                    // must fail on exactly the same task.
                    prop_assert!(reference.embed(t).is_err());
                }
            }
        }
        let stats = svc.stats();
        prop_assert_eq!(stats.tasks_served + stats.failures, tasks.len() as u64);
        prop_assert_eq!(stats.commits, stats.tasks_served);
    }
}

/// Deterministic smoke check mirroring the acceptance criterion: a ≥20-task
/// stream against one shared network, APSP built once (by construction:
/// `Network::build` is called exactly once here), cache hit rate > 0.
#[test]
fn twenty_task_stream_reuses_the_cache_at_every_thread_count() {
    let config = ScenarioConfig {
        dest_ratio: 0.2,
        sfc_len: 3,
        ..ScenarioConfig::default()
    };
    let (network, mut tasks) = shared_workload(20, &config, 5);
    while tasks.len() < 20 {
        let again = tasks[tasks.len() % 5].clone();
        tasks.push(again);
    }
    let mut baseline: Option<Vec<(f64, f64)>> = None;
    for threads in [1usize, 2, 8] {
        let mut svc = EmbedService::new(
            network.clone(),
            Algo::Msa,
            SolveOptions {
                parallelism: Parallelism::new(threads),
                ..SolveOptions::default()
            },
        )
        .unwrap();
        let batch = svc.submit_batch(&tasks, BatchMode::Independent);
        let costs: Vec<(f64, f64)> = batch
            .iter()
            .map(|r| {
                let r = r.as_ref().unwrap();
                (r.cost.setup, r.cost.link)
            })
            .collect();
        match &baseline {
            None => baseline = Some(costs),
            Some(want) => assert_eq!(want, &costs, "threads={threads}"),
        }
        let stats = svc.stats();
        assert_eq!(stats.tasks_served, 20);
        assert!(stats.cache_hit_rate() > 0.0, "threads={threads}");
    }
}
