//! Property-based invariants over randomly generated instances.

use proptest::prelude::*;
use sft::core::validate::validate;
use sft::core::Strategy as Algo;
use sft::core::{delivery_cost, solve, SolveOptions};
use sft::topology::{generate, ScenarioConfig};

fn arb_config() -> impl Strategy<Value = ScenarioConfig> {
    (
        8usize..30,   // network size
        1usize..5,    // sfc length
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_scenarios_solve_validly(config in arb_config(), seed in 0u64..1000) {
        let s = generate(&config, seed).unwrap();
        for algo in [Algo::Msa, Algo::Sca, Algo::Rsa] {
            let options = SolveOptions { strategy: algo, seed, ..SolveOptions::default() };
            let r = solve(&s.network, &s.task, &options).unwrap();
            let issues = validate(&s.network, &s.task, &r.embedding);
            prop_assert!(issues.is_empty(), "{algo:?}: {issues:?}");
            // Cost is canonical: recomputation agrees exactly.
            let again = delivery_cost(&s.network, &s.task, &r.embedding).unwrap();
            prop_assert!((again.total() - r.cost.total()).abs() < 1e-9);
            // OPA is monotone.
            prop_assert!(r.cost.total() <= r.stage1_cost + 1e-9);
        }
    }

    #[test]
    fn costs_are_positive_and_setup_respects_deployments(
        config in arb_config(),
        seed in 0u64..1000,
    ) {
        let s = generate(&config, seed).unwrap();
        let r = sft::core::solve(&s.network, &s.task, &SolveOptions::default()).unwrap();
        prop_assert!(r.cost.link > 0.0, "delivery always crosses links");
        prop_assert!(r.cost.setup >= 0.0);
        // Setup equals the sum over the embedding's new instances.
        let expected: f64 = r
            .embedding
            .new_instances(&s.network, &s.task)
            .into_iter()
            .map(|(f, n)| s.network.setup_cost(f, n))
            .sum();
        prop_assert!((r.cost.setup - expected).abs() < 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn stats_and_tree_agree_with_the_embedding(config in arb_config(), seed in 0u64..500) {
        use sft::core::{EmbeddingStats, SftTree};
        let s = generate(&config, seed).unwrap();
        let r = sft::core::solve(&s.network, &s.task, &SolveOptions::default()).unwrap();
        let stats = EmbeddingStats::collect(&s.network, &s.task, &r.embedding).unwrap();
        // Stats totals equal the solve result.
        prop_assert!((stats.cost.total() - r.cost.total()).abs() < 1e-9);
        let seg_sum: f64 = stats.segment_link_costs.iter().sum();
        prop_assert!((seg_sum - stats.cost.link).abs() < 1e-9);
        // The logical tree satisfies Theorem 4 and matches instance counts.
        let tree = SftTree::extract(&s.task, &r.embedding).unwrap();
        prop_assert!(tree.satisfies_theorem4());
        let total_instances: usize =
            (1..=s.task.sfc().len()).map(|j| tree.instance_count(j)).sum();
        prop_assert!(total_instances >= s.task.sfc().len());
        prop_assert_eq!(
            stats.instances_per_stage[1..].iter().sum::<usize>(),
            total_instances
        );
    }

    #[test]
    fn dot_exports_are_well_formed(config in arb_config(), seed in 0u64..500) {
        use sft::core::{viz, SftTree};
        let s = generate(&config, seed).unwrap();
        let r = sft::core::solve(&s.network, &s.task, &SolveOptions::default()).unwrap();
        let net_dot = viz::network_dot(&s.network);
        // prop_assert! stringifies its expression into a format string, so
        // brace-containing literals must be hoisted out.
        let starts_ok = net_dot.starts_with("graph network");
        let ends_ok = net_dot.trim_end().ends_with('}');
        prop_assert!(starts_ok);
        prop_assert!(ends_ok);
        let emb_dot = viz::embedding_dot(&s.network, &s.task, &r.embedding).unwrap();
        // Every used edge highlight refers to an existing node pair.
        prop_assert_eq!(
            emb_dot.matches(" -- ").count(),
            s.network.graph().edge_count()
        );
        let tree = SftTree::extract(&s.task, &r.embedding).unwrap();
        let sft_dot = viz::sft_dot(&tree);
        prop_assert_eq!(sft_dot.matches(" -> ").count(), tree.edges().len());
    }
}
