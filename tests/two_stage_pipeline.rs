//! Cross-crate integration: generated scenarios → all strategies → valid,
//! priced, OPA-monotone embeddings.

use sft::core::validate::{is_valid, validate};
use sft::core::{delivery_cost, solve, SolveOptions, SolveResult, Strategy};
use sft::topology::{generate, Scenario, ScenarioConfig};

/// One full pipeline run; RSA draws from `seed`.
fn solve_seeded(
    s: &Scenario,
    strategy: Strategy,
    seed: u64,
) -> Result<SolveResult, sft::core::CoreError> {
    let options = SolveOptions {
        strategy,
        seed,
        ..SolveOptions::default()
    };
    solve(&s.network, &s.task, &options)
}

fn configs() -> Vec<ScenarioConfig> {
    vec![
        ScenarioConfig {
            network_size: 30,
            dest_ratio: 0.1,
            sfc_len: 3,
            ..ScenarioConfig::default()
        },
        ScenarioConfig {
            network_size: 50,
            dest_ratio: 0.3,
            sfc_len: 5,
            deployment_cost_mu: 1.0,
            ..ScenarioConfig::default()
        },
        ScenarioConfig {
            network_size: 40,
            dest_ratio: 0.2,
            sfc_len: 8,
            deployed_density: 0.0, // nothing pre-deployed
            ..ScenarioConfig::default()
        },
        ScenarioConfig {
            network_size: 40,
            dest_ratio: 0.2,
            sfc_len: 4,
            deployed_density: 0.9, // almost everything pre-deployed
            capacity_range: (1, 2),
            ..ScenarioConfig::default()
        },
    ]
}

#[test]
fn every_strategy_produces_valid_embeddings_on_every_config() {
    for (ci, config) in configs().iter().enumerate() {
        for seed in 0..3 {
            let s = generate(config, seed).unwrap();
            for strategy in [Strategy::Msa, Strategy::Sca, Strategy::Rsa] {
                let r = solve_seeded(&s, strategy, seed)
                    .unwrap_or_else(|e| panic!("config {ci} seed {seed} {strategy:?}: {e}"));
                let issues = validate(&s.network, &s.task, &r.embedding);
                assert!(
                    issues.is_empty(),
                    "config {ci} seed {seed} {strategy:?}: {issues:?}"
                );
            }
        }
    }
}

#[test]
fn opa_never_increases_cost() {
    for (ci, config) in configs().iter().enumerate() {
        for seed in 0..3 {
            let s = generate(config, seed).unwrap();
            for strategy in [Strategy::Msa, Strategy::Sca, Strategy::Rsa] {
                let with = solve_seeded(&s, strategy, seed).unwrap();
                assert!(
                    with.cost.total() <= with.stage1_cost + 1e-9,
                    "config {ci} seed {seed} {strategy:?}: OPA worsened \
                     {} -> {}",
                    with.stage1_cost,
                    with.cost.total()
                );
            }
        }
    }
}

#[test]
fn reported_cost_matches_canonical_recomputation() {
    let config = &configs()[1];
    for seed in 0..4 {
        let s = generate(config, seed).unwrap();
        for strategy in [Strategy::Msa, Strategy::Sca, Strategy::Rsa] {
            let r = solve_seeded(&s, strategy, seed * 31).unwrap();
            let again = delivery_cost(&s.network, &s.task, &r.embedding).unwrap();
            assert!(
                (again.total() - r.cost.total()).abs() < 1e-9,
                "{strategy:?}: {} vs {}",
                again.total(),
                r.cost.total()
            );
            assert!(again.setup >= 0.0);
            assert!(again.link > 0.0);
        }
    }
}

#[test]
fn msa_beats_rsa_on_average_across_seeds() {
    let config = ScenarioConfig {
        network_size: 50,
        dest_ratio: 0.2,
        sfc_len: 5,
        ..ScenarioConfig::default()
    };
    let mut msa_total = 0.0;
    let mut rsa_total = 0.0;
    let runs = 8;
    for seed in 0..runs {
        let s = generate(&config, seed).unwrap();
        msa_total += solve_seeded(&s, Strategy::Msa, seed).unwrap().cost.total();
        rsa_total += solve_seeded(&s, Strategy::Rsa, seed).unwrap().cost.total();
    }
    assert!(
        msa_total < rsa_total,
        "MSA ({msa_total}) should beat RSA ({rsa_total}) on average"
    );
}

#[test]
fn whole_pipeline_is_deterministic() {
    let config = configs().remove(0);
    let s1 = generate(&config, 77).unwrap();
    let s2 = generate(&config, 77).unwrap();
    for strategy in [Strategy::Msa, Strategy::Sca, Strategy::Rsa] {
        let a = solve_seeded(&s1, strategy, 5).unwrap();
        let b = solve_seeded(&s2, strategy, 5).unwrap();
        assert_eq!(a.embedding, b.embedding, "{strategy:?}");
        assert_eq!(a.cost.total(), b.cost.total());
    }
}

#[test]
fn stage_counts_respect_theorem4() {
    // Theorem 4: in an SFT, predecessor VNFs never have more instances
    // than successors.
    let config = ScenarioConfig {
        network_size: 40,
        dest_ratio: 0.3,
        sfc_len: 4,
        ..ScenarioConfig::default()
    };
    for seed in 0..5 {
        let s = generate(&config, seed).unwrap();
        let r = sft::core::solve(&s.network, &s.task, &SolveOptions::default()).unwrap();
        let k = s.task.sfc().len();
        let mut counts = vec![0usize; k + 1];
        for (stage, _) in r.embedding.instances() {
            counts[stage] += 1;
        }
        for j in 1..k {
            assert!(
                counts[j] <= counts[j + 1],
                "seed {seed}: stage {j} has {} > stage {} with {}",
                counts[j],
                j + 1,
                counts[j + 1]
            );
        }
        assert!(is_valid(&s.network, &s.task, &r.embedding));
    }
}

#[test]
fn repeated_chain_types_share_physical_instances() {
    // A chain that repeats a type (f0 -> f1 -> f0): when both f0 stages
    // land on one node, setup and capacity are charged once (instances are
    // identified by (type, node)).
    use sft::core::{delivery_cost, MulticastTask, Network, Sfc, VnfCatalog, VnfId};
    use sft::graph::{Graph, NodeId};
    let mut g = Graph::new(4);
    for i in 0..3 {
        g.add_edge(NodeId(i), NodeId(i + 1), 1.0).unwrap();
    }
    let net = Network::builder(g, VnfCatalog::uniform(2))
        .all_servers(2.0) // room for exactly two unit instances
        .unwrap()
        .uniform_setup_cost(10.0)
        .unwrap()
        .build()
        .unwrap();
    let task = MulticastTask::new(
        NodeId(0),
        vec![NodeId(3)],
        Sfc::new(vec![VnfId(0), VnfId(1), VnfId(0)]).unwrap(),
    )
    .unwrap();
    let r = sft::core::solve(&net, &task, &SolveOptions::default()).unwrap();
    assert!(is_valid(&net, &task, &r.embedding));
    // Best placement co-locates all three stages on one node: two distinct
    // (type, node) instances -> setup 20, not 30.
    assert!(
        (r.cost.setup - 20.0).abs() < 1e-9,
        "setup {} should charge the repeated type once",
        r.cost.setup
    );
    let recomputed = delivery_cost(&net, &task, &r.embedding).unwrap();
    assert!((recomputed.total() - r.cost.total()).abs() < 1e-9);
}
