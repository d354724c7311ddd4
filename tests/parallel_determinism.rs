//! The parallelism knob must never change results: for every strategy,
//! `Parallelism::sequential()` and `Parallelism::new(N)` must produce
//! identical placements, Steiner edges and costs on seeded scenarios.

use proptest::prelude::*;
use sft::core::Strategy as Algo;
use sft::core::{solve, Parallelism, SolveOptions, StageTwo};
use sft::topology::{generate, ScenarioConfig};

fn arb_config() -> impl Strategy<Value = ScenarioConfig> {
    (
        8usize..32,   // network size
        1usize..6,    // sfc length
        1u32..4,      // capacity low end
        0.0f64..0.9,  // deployed density
        1.0f64..3.01, // mu
    )
        .prop_map(|(n, k, cap_lo, density, mu)| ScenarioConfig {
            network_size: n,
            dest_ratio: (2.0 / n as f64).clamp(0.1, 0.4),
            sfc_len: k,
            catalog_size: 8,
            capacity_range: (cap_lo, cap_lo + 2),
            deployed_density: density,
            deployment_cost_mu: mu,
            ..ScenarioConfig::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn thread_count_never_changes_the_solution(
        config in arb_config(),
        seed in 0u64..1000,
        threads in 2usize..9,
    ) {
        let s = generate(&config, seed).unwrap();
        for algo in [Algo::Msa, Algo::Sca, Algo::Rsa] {
            for stage_two in [StageTwo::Opa, StageTwo::Skip] {
                let solve_at = |parallelism: Parallelism| {
                    let options = SolveOptions {
                        strategy: algo,
                        stage_two,
                        seed,
                        parallelism,
                        ..SolveOptions::default()
                    };
                    solve(&s.network, &s.task, &options).unwrap()
                };
                let seq = solve_at(Parallelism::sequential());
                let par = solve_at(Parallelism::new(threads));
                prop_assert_eq!(
                    &seq.chain.placement,
                    &par.chain.placement,
                    "{:?}/{:?} placement, {} threads",
                    algo,
                    stage_two,
                    threads
                );
                prop_assert_eq!(
                    &seq.chain.steiner_edges,
                    &par.chain.steiner_edges,
                    "{:?}/{:?} steiner edges, {} threads",
                    algo,
                    stage_two,
                    threads
                );
                // Bit-identical costs, not just approximately equal: the
                // parallel sweep replays the sequential reduction order.
                prop_assert_eq!(seq.cost.total(), par.cost.total());
                prop_assert_eq!(seq.cost.link, par.cost.link);
                prop_assert_eq!(seq.cost.setup, par.cost.setup);
                prop_assert_eq!(seq.stage1_cost, par.stage1_cost);
                prop_assert_eq!(&seq.added_instances, &par.added_instances);
                prop_assert_eq!(seq.embedding.routes(), par.embedding.routes());
            }
        }
    }
}
