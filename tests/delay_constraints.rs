//! End-to-end delay-budget invariants, mirroring the QoS acceptance
//! criteria:
//!
//! * every embedding accepted under a budget actually meets it (the
//!   validator agrees, on random latency-bearing Waxman instances);
//! * a structurally infeasible budget is refused with the structured
//!   `delay_infeasible` taxonomy code and leaves the network and its
//!   ledger byte-identical;
//! * the exact ILP and the heuristic agree on feasibility verdicts;
//! * the repair's memoized per-rung trees reproduce the per-segment
//!   search they replaced, answer for answer.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sft::core::ilp::IlpModel;
use sft::core::validate::validate;
use sft::core::{
    solve, CoreError, DestinationRoute, Embedding, MulticastTask, Network, Sfc, SolveOptions,
    VnfCatalog, VnfId,
};
use sft::graph::{approx_le, generate, EdgeId, Graph, NodeId};
use sft::lp::{MipConfig, MipStatus};
use sft::service::protocol::{EmbedRequest, EmbedResponse, Request, RequestMode, ResponseBody};
use sft::service::{EmbedService, ErrorCode, ServerConfig, ServerHandle, ServiceError};

/// A connected Waxman instance whose every edge carries a random
/// latency in `(0.1, 1.1)`, so delay and cost genuinely diverge.
fn latency_waxman(n: usize, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let beta = 0.4;
    let degree = 2.0 * (n as f64).ln();
    let alpha = (degree / (4.0 * std::f64::consts::PI * beta * n as f64)).sqrt();
    let mut g = generate::waxman(n, alpha, beta, 100.0, &mut rng)
        .unwrap()
        .graph;
    for e in g.edge_ids().collect::<Vec<_>>() {
        g.set_edge_latency(e, Some(0.1 + rng.random::<f64>()))
            .unwrap();
    }
    Network::builder(g, VnfCatalog::uniform(3))
        .all_servers(3.0)
        .unwrap()
        .uniform_setup_cost(1.0)
        .unwrap()
        .build()
        .unwrap()
}

fn task_for(n: usize, seed: u64, budget: f64) -> MulticastTask {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
    let source = rng.random_range(0..n);
    let mut dests = Vec::new();
    while dests.len() < 2 {
        let d = rng.random_range(0..n);
        if d != source && !dests.contains(&NodeId(d)) {
            dests.push(NodeId(d));
        }
    }
    let len = rng.random_range(1..=3);
    let sfc = Sfc::new((0..len).map(VnfId).collect::<Vec<_>>()).unwrap();
    MulticastTask::new(NodeId(source), dests, sfc)
        .unwrap()
        .with_delay_budget(budget)
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Accepted embeddings honour the budget (solver report and validator
    /// agree); refusals certify a genuinely unreachable budget.
    #[test]
    fn accepted_embeddings_meet_their_budget(
        n in 12usize..28,
        seed in 0u64..500,
        budget in 0.5f64..25.0,
    ) {
        let network = latency_waxman(n, seed);
        let task = task_for(n, seed, budget);
        match solve(&network, &task, &SolveOptions::default()) {
            Ok(r) => {
                let delay = r.max_path_delay.expect("budgeted solves report a delay");
                prop_assert!(
                    delay <= budget + 1e-9,
                    "reported delay {delay} exceeds budget {budget}"
                );
                let issues = validate(&network, &task, &r.embedding);
                prop_assert!(issues.is_empty(), "{issues:?}");
            }
            Err(CoreError::DelayInfeasible { achieved, budget: b, .. }) => {
                prop_assert!(achieved > b, "certificate must exceed the budget");
            }
            Err(e) => prop_assert!(false, "unexpected failure mode: {e}"),
        }
    }
}

/// A 4-node path `0 - 1 - 2 - 3` at latency 1 per hop: destination 3 is
/// three units away, so any budget under 3 is structurally unreachable.
fn path_network() -> Network {
    let mut g = Graph::new(4);
    for i in 0..3 {
        let e = g.add_edge(NodeId(i), NodeId(i + 1), 1.0).unwrap();
        g.set_edge_latency(e, Some(1.0)).unwrap();
    }
    Network::builder(g, VnfCatalog::uniform(2))
        .all_servers(4.0)
        .unwrap()
        .uniform_setup_cost(1.0)
        .unwrap()
        .build()
        .unwrap()
}

/// The structured-refusal regression: an unreachable budget maps onto the
/// `delay_infeasible` wire code, counts in the service stats, and leaves
/// the network, its deployments, and its bandwidth ledger untouched.
#[test]
fn infeasible_budget_is_refused_without_a_trace() {
    let seed = path_network();
    let server = ServerHandle::inline(
        EmbedService::with_defaults(seed.clone()),
        ServerConfig::default(),
    );
    // A one-VNF chain across the whole path under `budget`, committed.
    let commit = |id: u64, budget: f64| {
        let mut req = EmbedRequest::new(0, vec![3], vec![0]);
        req.id = Some(id);
        req.mode = Some(RequestMode::Commit);
        req.delay_budget_ms = Some(budget);
        server.answer(Request::Embed(req))
    };
    let refused = commit(1, 2.0);
    let err = ServiceError::Core(CoreError::DelayInfeasible {
        destination: 3,
        achieved: 3.0,
        budget: 2.0,
    });
    assert_eq!(err.code(), ErrorCode::DelayInfeasible);
    assert_eq!(
        refused,
        EmbedResponse::failure(Some(1), &err),
        "three hops cannot fit in two units"
    );
    // Nothing committed, nothing counted as served, nothing leaked.
    let network = server.network();
    assert_eq!(network.deployment_refcounts(), seed.deployment_refcounts());
    for v in 0..4 {
        assert_eq!(
            network.residual_capacity(NodeId(v)),
            seed.residual_capacity(NodeId(v))
        );
    }
    assert!(network.edge_usage().is_empty());
    let stats = server.stats();
    assert_eq!(stats.delay_infeasible, 1);
    assert_eq!(stats.commits, 0);
    assert!(
        stats.render().contains("delay-infeasible"),
        "{}",
        stats.render()
    );

    // The same task under a reachable budget commits and reports it.
    let delay = match commit(2, 3.5).body {
        ResponseBody::Ok { max_path_delay, .. } => {
            max_path_delay.expect("budgeted solves report a delay")
        }
        other => panic!("three hops fit: {other:?}"),
    };
    assert!(delay <= 3.5 + 1e-9);
    assert_eq!(server.stats().commits, 1);
}

/// The exact ILP and the heuristic must hand down the same feasibility
/// verdict on the paper's reduced backbone.
#[test]
fn exact_and_heuristic_agree_on_palmetto10_feasibility() {
    let nodes: Vec<NodeId> = (0..10).map(NodeId).collect();
    let mut g = sft::topology::palmetto::graph()
        .induced_subgraph(&nodes)
        .unwrap();
    assert!(g.is_connected(), "palmetto:10 must be a connected prefix");
    for e in g.edge_ids().collect::<Vec<_>>() {
        g.set_edge_latency(e, Some(1.0)).unwrap();
    }
    let network = Network::builder(g, VnfCatalog::uniform(2))
        .all_servers(2.0)
        .unwrap()
        .uniform_setup_cost(1.0)
        .unwrap()
        .build()
        .unwrap();
    let base = MulticastTask::new(
        NodeId(0),
        vec![NodeId(7), NodeId(9)],
        Sfc::new(vec![VnfId(0), VnfId(1)]).unwrap(),
    )
    .unwrap();

    for (budget, feasible) in [(0.5, false), (50.0, true)] {
        let task = base.clone().with_delay_budget(budget).unwrap();
        let heuristic = solve(&network, &task, &SolveOptions::default());
        let model = IlpModel::build(&network, &task).unwrap();
        let outcome = model.solve(&network, &task, &MipConfig::default()).unwrap();
        if feasible {
            let r = heuristic.expect("heuristic admits the loose budget");
            assert!(r.max_path_delay.unwrap() <= budget + 1e-9);
            assert_eq!(outcome.status, MipStatus::Optimal);
            let exact = outcome.embedding.expect("optimal solves decode");
            assert!(validate(&network, &task, &exact).is_empty());
        } else {
            assert!(
                matches!(heuristic, Err(CoreError::DelayInfeasible { .. })),
                "heuristic must refuse: {heuristic:?}"
            );
            assert_eq!(outcome.status, MipStatus::Infeasible);
        }
    }
}

/// The λ ladder of the delay repair.
const LADDER: &[f64] = &[0.0, 0.25, 1.0, 4.0, 16.0];

fn oracle_delay(graph: &Graph, route: &DestinationRoute) -> f64 {
    route
        .segments()
        .iter()
        .map(|seg| graph.path_latency(seg).unwrap())
        .sum()
}

fn oracle_reroute(
    graph: &Graph,
    endpoints: &[(NodeId, NodeId)],
    weight: impl Fn(EdgeId) -> f64,
) -> Option<DestinationRoute> {
    let mut segments = Vec::new();
    for &(a, b) in endpoints {
        segments.push(graph.dijkstra_to_with(a, b, &weight).path_to(b)?);
    }
    Some(DestinationRoute::new(segments))
}

/// The delay repair as it was before its trees were memoized, kept as the
/// oracle: every late route reroutes each segment between its fixed
/// endpoints with an early-stopped search per λ rung, then under latency
/// alone, which certifies a refusal.
fn oracle_repair(
    network: &Network,
    task: &MulticastTask,
    embedding: &Embedding,
    budget: f64,
) -> Result<(Embedding, f64), CoreError> {
    let graph = network.graph();
    let mut routes = embedding.routes().to_vec();
    let mut max_delay = 0.0f64;
    for (i, route) in routes.iter_mut().enumerate() {
        let delay = oracle_delay(graph, route);
        if approx_le(delay, budget) {
            max_delay = max_delay.max(delay);
            continue;
        }
        let endpoints: Vec<(NodeId, NodeId)> = route
            .segments()
            .iter()
            .map(|seg| (seg[0], *seg.last().unwrap()))
            .collect();
        let mut repaired = None;
        for &lambda in LADDER {
            let weight = |e| graph.weight(e) + lambda * graph.effective_latency(e);
            if let Some(candidate) = oracle_reroute(graph, &endpoints, weight) {
                let delay = oracle_delay(graph, &candidate);
                if approx_le(delay, budget) {
                    repaired = Some((candidate, delay));
                    break;
                }
            }
        }
        let (candidate, delay) = match repaired {
            Some(found) => found,
            None => {
                let Some(candidate) =
                    oracle_reroute(graph, &endpoints, |e| graph.effective_latency(e))
                else {
                    return Err(CoreError::Infeasible {
                        reason: "unreachable during delay repair".into(),
                    });
                };
                let delay = oracle_delay(graph, &candidate);
                if !approx_le(delay, budget) {
                    return Err(CoreError::DelayInfeasible {
                        destination: task.destinations()[i].0,
                        achieved: delay,
                        budget,
                    });
                }
                (candidate, delay)
            }
        };
        *route = candidate;
        max_delay = max_delay.max(delay);
    }
    Ok((Embedding::new(routes), max_delay))
}

/// A Waxman network with about half its nodes servers. `latency` `None`
/// draws each edge's latency from `(0.1, 1.1)`; `Some(l)` gives every
/// edge latency `l`, so equal-delay paths are common.
fn repair_network(n: usize, seed: u64, latency: Option<f64>) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let alpha = (2.0 * (n as f64).ln() / (4.0 * std::f64::consts::PI * 0.4 * n as f64)).sqrt();
    let mut g = generate::waxman(n, alpha, 0.4, 100.0, &mut rng)
        .unwrap()
        .graph;
    for e in g.edge_ids().collect::<Vec<_>>() {
        let l = latency.unwrap_or_else(|| 0.1 + rng.random::<f64>());
        g.set_edge_latency(e, Some(l)).unwrap();
    }
    let mut b = Network::builder(g, VnfCatalog::uniform(3));
    for v in 0..n {
        if rng.random_range(0..2u32) == 0 {
            b = b.server(NodeId(v), 3.0).unwrap();
        }
    }
    b.uniform_setup_cost(1.0).unwrap().build().unwrap()
}

/// What the delay repair did to one task.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Outcome {
    /// Unsolvable with or without a budget, or on time as solved.
    Kept,
    /// Some route was rerouted onto a faster path.
    Repaired,
    /// Refused: even the latency-only rung is late.
    Refused,
}

/// Checks `solve` against the oracle repair of the same task's
/// unbudgeted solve, under a budget of `tightness` times that solve's
/// largest route delay.
fn memo_matches_oracle(network: &Network, task: &MulticastTask, tightness: f64) -> Outcome {
    let opts = SolveOptions::default();
    let plain = match solve(network, task, &opts) {
        Ok(plain) => plain,
        Err(e) => {
            let budgeted = task.clone().with_delay_budget(1.0).unwrap();
            let got = solve(network, &budgeted, &opts);
            assert_eq!(format!("{:?}", got.unwrap_err()), format!("{e:?}"));
            return Outcome::Kept;
        }
    };
    let graph = network.graph();
    let late = plain
        .embedding
        .routes()
        .iter()
        .map(|r| oracle_delay(graph, r));
    let budget = tightness * late.fold(0.0, f64::max);
    let budgeted = task.clone().with_delay_budget(budget).unwrap();
    let got = solve(network, &budgeted, &opts);
    let want = oracle_repair(network, task, &plain.embedding, budget);
    match (got, want) {
        (Ok(got), Ok((embedding, delay))) => {
            assert_eq!(got.embedding, embedding);
            assert_eq!(got.max_path_delay.map(f64::to_bits), Some(delay.to_bits()));
            if got.embedding == plain.embedding {
                Outcome::Kept
            } else {
                Outcome::Repaired
            }
        }
        (
            Err(CoreError::DelayInfeasible {
                destination,
                achieved,
                budget: b,
            }),
            Err(CoreError::DelayInfeasible {
                destination: want_destination,
                achieved: want_achieved,
                budget: want_budget,
            }),
        ) => {
            assert_eq!(destination, want_destination);
            assert_eq!(achieved.to_bits(), want_achieved.to_bits());
            assert_eq!(b.to_bits(), want_budget.to_bits());
            Outcome::Refused
        }
        (Err(CoreError::Infeasible { .. }), Err(CoreError::Infeasible { .. })) => Outcome::Refused,
        (got, want) => panic!("memoized {got:?} vs oracle {want:?}"),
    }
}

/// Random tasks, each with a budget tightness in `[0.4, 1.1)`.
fn repair_tasks(n: usize, seed: u64, count: usize) -> Vec<(MulticastTask, f64)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7A5C);
    (0..count)
        .map(|_| {
            let source = rng.random_range(0..n);
            let mut dests: Vec<NodeId> = Vec::new();
            while dests.len() < rng.random_range(1..=4usize) {
                let d = NodeId(rng.random_range(0..n));
                if d.0 != source && !dests.contains(&d) {
                    dests.push(d);
                }
            }
            let sfc = Sfc::new(
                (0..rng.random_range(1..=3usize))
                    .map(VnfId)
                    .collect::<Vec<_>>(),
            );
            let task = MulticastTask::new(NodeId(source), dests, sfc.unwrap()).unwrap();
            (task, rng.random_range(0.4..1.1))
        })
        .collect()
}

#[test]
fn memoized_rung_trees_reproduce_the_per_segment_repair() {
    let mut outcomes = Vec::new();
    for (i, latency) in [None, Some(1.0), None, Some(2.0)].into_iter().enumerate() {
        let n = 40 + 10 * i;
        let seed = 11 + i as u64;
        let network = repair_network(n, seed, latency);
        // One network for every task, so later tasks read filled slots.
        for (task, tightness) in repair_tasks(n, seed, 60) {
            outcomes.push(memo_matches_oracle(&network, &task, tightness));
        }
        // Clones share the table: three threads race to fill and read it.
        let fresh = repair_network(n, seed, latency);
        std::thread::scope(|scope| {
            for t in 0..3u64 {
                let network = fresh.clone();
                scope.spawn(move || {
                    for (task, tightness) in repair_tasks(n, seed + t % 2, 40) {
                        memo_matches_oracle(&network, &task, tightness);
                    }
                });
            }
        });
    }
    let count = |o| outcomes.iter().filter(|&&x| x == o).count();
    let (repaired, refused) = (count(Outcome::Repaired), count(Outcome::Refused));
    assert!(
        repaired >= 30 && refused >= 30,
        "{repaired} repaired, {refused} refused"
    );
}
