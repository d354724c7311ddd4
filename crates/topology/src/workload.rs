//! End-to-end scenario generation per Table I.
//!
//! [`generate`] builds a full experiment instance — an ER network with
//! Euclidean link costs, per-node capacities, normally distributed VNF
//! deployment costs scaled by the network's average path cost `l_G`,
//! random pre-deployments, and a random multicast task — from a
//! [`ScenarioConfig`] and a seed. [`on_graph`] does the same over a fixed
//! topology (used for the Palmetto experiments of §V-C).

use crate::normal::truncated_normal;
use crate::settings::ScenarioConfig;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use sft_core::{CoreError, MulticastTask, Network, Sfc, VnfCatalog, VnfId};
use sft_graph::{generate::euclidean_er, Graph, LazyDistances, NodeId};

/// A generated experiment instance.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The target network (topology, capacities, costs, deployments).
    pub network: Network,
    /// The multicast task to embed.
    pub task: MulticastTask,
    /// The seed that produced this scenario (for reproducibility).
    pub seed: u64,
}

/// Generates a synthetic scenario on an ER random network (Table I).
///
/// Deterministic per `(config, seed)` pair.
///
/// # Errors
///
/// * [`CoreError::InvalidTask`] for inconsistent configurations.
/// * Generation errors bubbled up from the substrates.
pub fn generate(config: &ScenarioConfig, seed: u64) -> Result<Scenario, CoreError> {
    config.validate()?;
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = euclidean_er(
        config.network_size,
        config.er_probability(),
        config.side,
        &mut rng,
    )?;
    build_scenario(topo.graph, config, seed, &mut rng)
}

/// Generates a scenario over a fixed topology (e.g. [`crate::palmetto`]):
/// the `network_size` / ER fields of the config are ignored, everything
/// else (capacities, costs, deployments, task shape) applies as in
/// [`generate`].
///
/// # Errors
///
/// Same conditions as [`generate`].
pub fn on_graph(graph: Graph, config: &ScenarioConfig, seed: u64) -> Result<Scenario, CoreError> {
    let mut probe = config.clone();
    probe.network_size = graph.node_count();
    probe.validate()?;
    let mut rng = StdRng::seed_from_u64(seed);
    build_scenario(graph, &probe, seed, &mut rng)
}

fn build_scenario(
    graph: Graph,
    config: &ScenarioConfig,
    seed: u64,
    rng: &mut StdRng,
) -> Result<Scenario, CoreError> {
    let n = graph.node_count();
    // l_G: the average shortest-path cost, Table I's cost normalizer.
    let l_g = LazyDistances::new(&graph).average_distance().max(1e-9);

    let catalog = VnfCatalog::uniform(config.catalog_size);
    let mut builder = Network::builder(graph, catalog);

    // Servers and capacities: every node a server, capacity ~ U[lo, hi].
    let (lo, hi) = config.capacity_range;
    let mut capacities = Vec::with_capacity(n);
    for v in 0..n {
        let cap = rng.random_range(lo..=hi) as f64;
        capacities.push(cap);
        builder = builder.server(NodeId(v), cap)?;
    }

    // Deployment costs: N(mu * l_G, (l_G / 4)^2), truncated positive.
    let mean = config.deployment_cost_mu * l_g;
    let sd = l_g / 4.0;
    for f in 0..config.catalog_size {
        for v in 0..n {
            let c = truncated_normal(rng, mean, sd, 0.05 * l_g);
            builder = builder.setup_cost(VnfId(f), NodeId(v), c)?;
        }
    }

    // Random pre-deployments: each capacity slot starts occupied with
    // probability `deployed_density` by a uniformly random type.
    for (v, &cap) in capacities.iter().enumerate() {
        let mut deployed_here: Vec<VnfId> = Vec::new();
        for _slot in 0..cap as u32 {
            if rng.random::<f64>() < config.deployed_density {
                let f = VnfId(rng.random_range(0..config.catalog_size));
                if !deployed_here.contains(&f) {
                    deployed_here.push(f);
                    builder = builder.deploy(f, NodeId(v))?;
                }
            }
        }
    }

    let network = builder.build()?;

    // Task: random source, `ratio * n` random distinct destinations,
    // a random SFC of `sfc_len` distinct types.
    let source = NodeId(rng.random_range(0..n));
    let mut others: Vec<NodeId> = (0..n).map(NodeId).filter(|&v| v != source).collect();
    partial_shuffle(&mut others, config.destination_count(), rng);
    let destinations: Vec<NodeId> = others[..config.destination_count()].to_vec();

    let mut types: Vec<VnfId> = (0..config.catalog_size).map(VnfId).collect();
    partial_shuffle(&mut types, config.sfc_len, rng);
    let sfc = Sfc::new(types[..config.sfc_len].to_vec())?;

    let task = MulticastTask::new(source, destinations, sfc)?;
    task.check_against(&network)?;
    Ok(Scenario {
        network,
        task,
        seed,
    })
}

/// Parameters for the *clustered* workload family — a scaled-up version of
/// the paper's Fig. 6 geometry, which is the regime where stage 2 (OPA)
/// replication actually pays off (see EXPERIMENTS.md, "SFT vs SFC").
///
/// The chain is pinned along a horizontal axis of a *geometric* network
/// (source at the left, one deployed instance per stage marching right, so
/// reuse drags the stage-1 chain across the whole span), with one
/// destination cluster at the chain's end and `side_clusters` further
/// clusters hanging perpendicularly off mid-chain positions. Stage 1 must
/// serve the side clusters from the far end `W` (long diagonals); OPA can
/// instead replicate the tail VNFs next to each side cluster and attach
/// them to the mid-chain trunk — exactly the branch replication of
/// Algorithm 3, at a saving of roughly `diagonal − (offset + setup)` per
/// cluster.
#[derive(Clone, Debug)]
pub struct ClusteredConfig {
    /// Number of network nodes.
    pub network_size: usize,
    /// Side of the placement square.
    pub side: f64,
    /// Destination clusters hanging off mid-chain positions (≥ 1).
    pub side_clusters: usize,
    /// SFC length (`k` distinct types, ids `0..k`; k ≥ 2).
    pub sfc_len: usize,
    /// Destinations placed near the end-of-chain anchor and near each side
    /// anchor.
    pub dests_per_cluster: usize,
    /// Setup-cost multiplier of `l_G` for *new* instances — kept high so
    /// every algorithm rides the pinned deployments instead of placing
    /// fresh instances.
    pub setup_mu: f64,
}

impl Default for ClusteredConfig {
    fn default() -> Self {
        ClusteredConfig {
            network_size: 130,
            side: 100.0,
            side_clusters: 1,
            sfc_len: 3,
            dests_per_cluster: 3,
            setup_mu: 2.0,
        }
    }
}

/// Generates a clustered (Fig.-6-style) scenario. See [`ClusteredConfig`].
///
/// # Errors
///
/// [`CoreError::InvalidTask`] for inconsistent parameters; generation
/// errors from the substrates.
pub fn clustered(config: &ClusteredConfig, seed: u64) -> Result<Scenario, CoreError> {
    if config.sfc_len < 2 {
        return Err(CoreError::InvalidTask {
            reason: "clustered workload needs a chain of length at least 2".into(),
        });
    }
    if config.side_clusters == 0 {
        return Err(CoreError::InvalidTask {
            reason: "clustered workload needs at least one side cluster".into(),
        });
    }
    // The end cluster holds 2x dests; each side cluster adds one replica.
    let needed = (config.side_clusters + 2) * config.dests_per_cluster
        + config.side_clusters
        + config.sfc_len
        + 2;
    if config.network_size < needed {
        return Err(CoreError::InvalidTask {
            reason: format!(
                "clustered workload needs at least {needed} nodes, got {}",
                config.network_size
            ),
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let n = config.network_size;
    // A *geometric* topology (links join spatially close nodes), not an ER
    // one: ER graphs with random-pair links are expanders whose path metric
    // has no spatial structure, so the Fig.-6 geometry cannot exist in them
    // (see EXPERIMENTS.md, "SFT vs SFC").
    let topo = sft_graph::generate::random_geometric(n, 0.20 * config.side, config.side, &mut rng)?;
    let pos = topo.positions.clone();
    let graph = topo.graph;
    let l_g = LazyDistances::new(&graph).average_distance().max(1e-9);

    // Nearest node to an ideal planar point, excluding already-used nodes.
    let nearest = |p: (f64, f64), used: &[usize]| -> usize {
        (0..n)
            .filter(|v| !used.contains(v))
            .min_by(|&a, &b| {
                let da = (pos[a].0 - p.0).powi(2) + (pos[a].1 - p.1).powi(2);
                let db = (pos[b].0 - p.0).powi(2) + (pos[b].1 - p.1).powi(2);
                da.total_cmp(&db)
            })
            .expect("fewer used nodes than nodes")
    };

    let k = config.sfc_len;
    let s = config.side;
    let mid_y = 0.5 * s;
    let catalog = VnfCatalog::uniform(k);
    let mut builder = Network::builder(graph, catalog)
        .all_servers(5.0)?
        .uniform_setup_cost(config.setup_mu * l_g)?;

    // Source at the left edge; one pinned instance per stage marching
    // rightwards along the axis.
    let mut used: Vec<usize> = Vec::new();
    let source = NodeId(nearest((0.06 * s, mid_y), &used));
    used.push(source.0);
    let mut stage_hosts = Vec::with_capacity(k);
    for j in 0..k {
        // Pins march right but stop at 0.86*side: the end cluster sits
        // *behind* the last pin so that westbound tree branches cannot
        // thread through its destinations (which would capture the
        // connection node, see §IV-C's definition).
        let x = 0.06 * s + (j as f64 + 1.0) / k as f64 * 0.80 * s;
        let host = nearest((x, mid_y), &used);
        used.push(host);
        stage_hosts.push(host);
        builder = builder.deploy(VnfId(j), NodeId(host))?;
    }

    // End cluster near the last pin; side clusters hang perpendicular off
    // mid-chain pins, alternating below/above the axis. The *last* chain
    // type gets a free replica at every cluster anchor: only one anchor
    // can end the stage-1 chain, so the other replicas are exactly the
    // branch sites Algorithm 3 replicates onto.
    let mut destinations = Vec::new();
    let mut cluster_anchor_points = vec![(0.97 * s, mid_y)];
    for i in 0..config.side_clusters {
        // Attach under the earliest pins first: the farther the side
        // cluster sits from the chain's end, the larger the diagonal the
        // stage-1 tree must pay relative to OPA's attachment.
        let stage = i % (k - 1);
        let x = 0.06 * s + (stage as f64 + 1.0) / k as f64 * 0.80 * s;
        let dy = 0.30 * s;
        let y = if i % 2 == 0 { mid_y - dy } else { mid_y + dy };
        cluster_anchor_points.push((x, y));
    }
    let last = VnfId(k - 1);
    for (ci, p) in cluster_anchor_points.into_iter().enumerate() {
        if ci > 0 {
            // The end anchor (ci == 0) already has the last stage's pin.
            let replica = nearest(p, &used);
            used.push(replica);
            builder = builder.deploy(last, NodeId(replica))?;
        }
        // The end cluster is twice as heavy as each side cluster, so the
        // stage-1 sweep robustly roots the delivery tree at the chain's
        // end rather than at a side replica (leaving the side clusters
        // stranded, which is OPA's job to fix).
        let count = if ci == 0 {
            2 * config.dests_per_cluster
        } else {
            config.dests_per_cluster
        };
        for _ in 0..count {
            let v = nearest(p, &used);
            used.push(v);
            destinations.push(NodeId(v));
        }
    }

    let network = builder.build()?;
    let sfc = Sfc::new((0..k).map(VnfId).collect::<Vec<_>>())?;
    let task = MulticastTask::new(source, destinations, sfc)?;
    task.check_against(&network)?;
    Ok(Scenario {
        network,
        task,
        seed,
    })
}

/// Fisher–Yates over the first `m` positions only.
fn partial_shuffle<T, R: Rng + ?Sized>(items: &mut [T], m: usize, rng: &mut R) {
    let n = items.len();
    for i in 0..m.min(n.saturating_sub(1)) {
        let j = rng.random_range(i..n);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::palmetto;

    #[test]
    fn generates_valid_reproducible_scenarios() {
        let config = ScenarioConfig {
            network_size: 50,
            ..ScenarioConfig::default()
        };
        let a = generate(&config, 42).unwrap();
        let b = generate(&config, 42).unwrap();
        assert_eq!(a.task, b.task);
        assert_eq!(a.network.node_count(), 50);
        assert_eq!(a.task.destination_count(), 10); // 0.2 * 50
        assert_eq!(a.task.sfc().len(), 5);
        let c = generate(&config, 43).unwrap();
        assert!(a.task != c.task || a.seed != c.seed);
    }

    #[test]
    fn capacities_and_costs_are_in_range() {
        let config = ScenarioConfig {
            network_size: 60,
            deployment_cost_mu: 2.0,
            ..ScenarioConfig::default()
        };
        let s = generate(&config, 7).unwrap();
        let net = &s.network;
        let l_g = net.average_path_cost();
        for v in net.graph().nodes() {
            assert!(net.is_server(v));
            let cap = net.capacity(v);
            assert!((1.0..=5.0).contains(&cap), "capacity {cap}");
            assert!(net.deployed_load(v) <= cap + 1e-9);
        }
        // Setup costs should cluster near mu * l_G.
        let mut total = 0.0;
        let mut count = 0;
        for f in net.catalog().ids() {
            for v in net.graph().nodes() {
                let c = net.setup_cost(f, v);
                assert!(c > 0.0);
                total += c;
                count += 1;
            }
        }
        let avg = total / count as f64;
        assert!(
            (avg - 2.0 * l_g).abs() < 0.3 * l_g,
            "avg setup {avg} vs 2*l_G {}",
            2.0 * l_g
        );
    }

    #[test]
    fn deployed_density_controls_predeployments() {
        let mut config = ScenarioConfig {
            network_size: 80,
            ..ScenarioConfig::default()
        };
        let count_deployed = |s: &Scenario| -> usize {
            let net = &s.network;
            net.catalog()
                .ids()
                .map(|f| {
                    net.graph()
                        .nodes()
                        .filter(|&v| net.is_deployed(f, v))
                        .count()
                })
                .sum()
        };
        config.deployed_density = 0.0;
        assert_eq!(count_deployed(&generate(&config, 3).unwrap()), 0);
        config.deployed_density = 0.8;
        let many = count_deployed(&generate(&config, 3).unwrap());
        config.deployed_density = 0.1;
        let few = count_deployed(&generate(&config, 3).unwrap());
        assert!(
            many > few,
            "density must scale deployments ({many} vs {few})"
        );
    }

    #[test]
    fn sfc_types_are_distinct() {
        let config = ScenarioConfig {
            network_size: 50,
            sfc_len: 25,
            ..ScenarioConfig::default()
        };
        let s = generate(&config, 11).unwrap();
        let mut stages: Vec<_> = s.task.sfc().stages().to_vec();
        stages.sort();
        stages.dedup();
        assert_eq!(stages.len(), 25);
    }

    #[test]
    fn on_graph_wraps_palmetto() {
        let config = ScenarioConfig {
            dest_ratio: 0.3,
            sfc_len: 10,
            ..ScenarioConfig::default()
        };
        let s = on_graph(palmetto::graph(), &config, 5).unwrap();
        assert_eq!(s.network.node_count(), palmetto::NODE_COUNT);
        assert_eq!(s.task.destination_count(), 14); // 0.3 * 45 rounded
        assert_eq!(s.task.sfc().len(), 10);
    }

    #[test]
    fn clustered_builds_the_fig6_geometry() {
        let config = ClusteredConfig::default();
        let s = clustered(&config, 1).unwrap();
        // One double-weight end cluster + one side cluster.
        assert_eq!(s.task.destination_count(), 9);
        assert_eq!(s.task.sfc().len(), 3);
        // One pinned instance per prefix stage; the last stage has its
        // axis pin plus one replica per side cluster.
        let net = &s.network;
        let count = |f: usize| {
            net.graph()
                .nodes()
                .filter(|&v| net.is_deployed(VnfId(f), v))
                .count()
        };
        assert_eq!(count(0), 1);
        assert_eq!(count(1), 1);
        assert_eq!(count(2), 2, "end pin + one side replica");
    }

    #[test]
    fn clustered_triggers_opa_on_a_nontrivial_fraction_of_seeds() {
        // The point of the family: stage 2 must fire regularly — unlike on
        // Table-I workloads, where it essentially never does (see
        // EXPERIMENTS.md, "SFT vs SFC"). Even here the paper's dependence
        // rule and connection-node grouping keep the rate moderate, so the
        // bar is "clearly non-zero", not "always".
        let config = ClusteredConfig::default();
        let mut fired = 0;
        let seeds = 20;
        for seed in 0..seeds {
            let s = clustered(&config, seed).unwrap();
            let chain = sft_core::msa::stage_one(&s.network, &s.task).unwrap();
            let out = sft_core::opa::optimize(&s.network, &s.task, &chain).unwrap();
            assert!(sft_core::validate::is_valid(
                &s.network,
                &s.task,
                &out.embedding
            ));
            if out.cost.total() < out.initial_cost - 1e-9 {
                fired += 1;
            }
        }
        assert!(
            fired >= 3,
            "OPA fired on only {fired}/{seeds} clustered instances"
        );
    }

    #[test]
    fn clustered_rejects_bad_parameters() {
        let tiny = ClusteredConfig {
            network_size: 5,
            ..ClusteredConfig::default()
        };
        assert!(matches!(
            clustered(&tiny, 0),
            Err(CoreError::InvalidTask { .. })
        ));
        let no_side = ClusteredConfig {
            side_clusters: 0,
            ..ClusteredConfig::default()
        };
        assert!(matches!(
            clustered(&no_side, 0),
            Err(CoreError::InvalidTask { .. })
        ));
        let short_chain = ClusteredConfig {
            sfc_len: 1,
            ..ClusteredConfig::default()
        };
        assert!(matches!(
            clustered(&short_chain, 0),
            Err(CoreError::InvalidTask { .. })
        ));
    }

    #[test]
    fn scenarios_are_solvable_end_to_end() {
        let config = ScenarioConfig {
            network_size: 40,
            dest_ratio: 0.15,
            sfc_len: 4,
            ..ScenarioConfig::default()
        };
        for seed in 0..3 {
            let s = generate(&config, seed).unwrap();
            let r =
                sft_core::solve(&s.network, &s.task, &sft_core::SolveOptions::default()).unwrap();
            assert!(sft_core::validate::is_valid(
                &s.network,
                &s.task,
                &r.embedding
            ));
        }
    }
}
