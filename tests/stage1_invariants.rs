//! Cross-crate invariants of the MSA stage-1 sweep (DESIGN §6).
//!
//! 1. The closed-form candidate cost (`chain_cost` + Steiner tree cost)
//!    must equal the canonical `delivery_cost` of the candidate's decoded
//!    embedding — the sweep minimizes the closed form precisely because the
//!    two are interchangeable.
//! 2. The sweep's winner must be reachable by taking the minimum of the
//!    candidate enumeration.
//! 3. The layered DP that prices every chain (Theorem 2) decodes, row by
//!    row, the same placement and bit-identical cost as a heap Dijkstra
//!    over the materialized expanded MOD network, ties included.
//! 4. The bound-and-prune sweep returns the exhaustive sweep's lowest-row
//!    minimum — placement, Steiner edges and cost bits — with and without
//!    a shared Steiner cache, cold or warm.
//! 5. The memoized server block and KMB closure read no distance row
//!    early: a cold start fills the rows it filled before them.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sft::core::mod_network::ExpandedMod;
use sft::core::msa::{
    stage_one_cancellable, stage_one_candidates, stage_one_with_cache_cancellable, SteinerMethod,
};
use sft::core::{
    delivery_cost, solve, ChainSolution, CoreError, MulticastTask, Network, Parallelism, Sfc,
    SolveOptions, VnfCatalog, VnfId,
};
use sft::graph::{Graph, NodeId, SteinerCache};
use sft::topology::{generate, ScenarioConfig};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

#[test]
fn closed_form_cost_matches_canonical_delivery_cost_on_every_candidate() {
    // A seeded Table-I scenario (paper base config, scaled to test time).
    let config = ScenarioConfig {
        network_size: 40,
        dest_ratio: 0.2,
        sfc_len: 5,
        ..ScenarioConfig::default()
    };
    for seed in [7u64, 21, 1001] {
        let s = generate(&config, seed).unwrap();
        let candidates = stage_one_candidates(&s.network, &s.task, SteinerMethod::Kmb).unwrap();
        assert!(
            !candidates.is_empty(),
            "seed {seed}: generated scenarios are solvable"
        );
        for (i, (closed_form, chain)) in candidates.iter().enumerate() {
            let emb = chain.to_embedding(&s.network, &s.task).unwrap();
            let canonical = delivery_cost(&s.network, &s.task, &emb).unwrap().total();
            assert!(
                (closed_form - canonical).abs() <= 1e-6 * canonical.max(1.0),
                "seed {seed} candidate {i}: closed form {closed_form} vs canonical {canonical}"
            );
        }
    }
}

#[test]
fn sweep_winner_is_the_candidate_minimum() {
    let config = ScenarioConfig {
        network_size: 40,
        dest_ratio: 0.2,
        sfc_len: 5,
        ..ScenarioConfig::default()
    };
    let s = generate(&config, 13).unwrap();
    let winner = stage_one_cancellable(
        &s.network,
        &s.task,
        SteinerMethod::Kmb,
        Parallelism::sequential(),
        None,
    )
    .unwrap();
    let candidates = stage_one_candidates(&s.network, &s.task, SteinerMethod::Kmb).unwrap();
    let min = candidates
        .iter()
        .map(|(c, _)| *c)
        .fold(f64::INFINITY, f64::min);
    let winner_emb = winner.to_embedding(&s.network, &s.task).unwrap();
    let winner_cost = delivery_cost(&s.network, &s.task, &winner_emb)
        .unwrap()
        .total();
    assert!((winner_cost - min).abs() <= 1e-6 * min.max(1.0));
}

/// Heap key ordering distances totally, as the graph crate's Dijkstra does.
#[derive(Copy, Clone, PartialEq)]
struct Key(f64);

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// One row's decoded chain: placement, cost, and whether some in-half on
/// its path had two or more relaxers reaching its final distance.
type OracleRow = Option<(Vec<NodeId>, f64, bool)>;

/// The search the layered DP replaced, kept as its oracle: materialize
/// the expanded MOD network (overlay id 0 = source, then an in/out pair
/// per (column, row), arcs added in the same order), run a heap Dijkstra
/// that pops in (distance, node id) order and relaxes with a strict `<`,
/// and walk each last-column out-half back to the source.
fn overlay_dijkstra(network: &Network, source: NodeId, sfc: &Sfc) -> Vec<OracleRow> {
    let servers: Vec<NodeId> = network.servers().collect();
    let (ns, k) = (servers.len(), sfc.len());
    let node_in = |j: usize, row: usize| 1 + 2 * (j * ns + row);
    let dist = network.dist();
    let mut arcs: Vec<Vec<(usize, f64)>> = vec![Vec::new(); 1 + 2 * ns * k];
    for (row, &s) in servers.iter().enumerate() {
        if let Some(d) = dist.distance(source, s) {
            arcs[0].push((node_in(0, row), d));
        }
    }
    for j in 0..k {
        for (row, &s) in servers.iter().enumerate() {
            let setup = network.effective_setup_cost(sfc.stage(j + 1), s);
            arcs[node_in(j, row)].push((node_in(j, row) + 1, setup));
        }
    }
    for j in 0..k - 1 {
        for (row_a, &a) in servers.iter().enumerate() {
            for (row_b, &b) in servers.iter().enumerate() {
                if let Some(d) = dist.distance(a, b) {
                    arcs[node_in(j, row_a) + 1].push((node_in(j + 1, row_b), d));
                }
            }
        }
    }

    let n = arcs.len();
    let mut best = vec![f64::INFINITY; n];
    let mut pred = vec![usize::MAX; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();
    best[0] = 0.0;
    heap.push(Reverse((Key(0.0), 0usize)));
    while let Some(Reverse((Key(d), u))) = heap.pop() {
        if std::mem::replace(&mut settled[u], true) {
            continue;
        }
        for &(v, w) in &arcs[u] {
            let nd = d + w;
            if nd < best[v] {
                best[v] = nd;
                pred[v] = u;
                heap.push(Reverse((Key(nd), v)));
            }
        }
    }
    let mut optimal_relaxers = vec![0u32; n];
    for (u, out) in arcs.iter().enumerate() {
        for &(v, w) in out {
            if best[u].is_finite() && best[u] + w == best[v] {
                optimal_relaxers[v] += 1;
            }
        }
    }

    (0..ns)
        .map(|row| {
            let target = node_in(k - 1, row) + 1;
            let cost = best[target];
            if !cost.is_finite() {
                return None;
            }
            let (mut placement, mut tied) = (Vec::with_capacity(k), false);
            let mut cur = target;
            while cur != 0 {
                if (cur - 1) % 2 == 0 {
                    placement.push(servers[((cur - 1) / 2) % ns]);
                    tied |= optimal_relaxers[cur] > 1;
                }
                cur = pred[cur];
            }
            placement.reverse();
            Some((placement, cost, tied))
        })
        .collect()
}

/// A random network of at most 7 nodes with integer edge weights and
/// setup costs (so equal path costs are common), some switches, some
/// pre-deployed instances and possibly unreachable servers.
fn tie_heavy_network(rng: &mut StdRng) -> Network {
    const TYPES: usize = 3;
    let n = rng.random_range(2..=7usize);
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in u + 1..n {
            if rng.random_range(0..3u32) == 0 {
                let w = f64::from(rng.random_range(0..=3u32));
                g.add_edge(NodeId(u), NodeId(v), w).unwrap();
            }
        }
    }
    let mut servers: Vec<usize> = (0..n).filter(|_| rng.random_range(0..3u32) > 0).collect();
    if servers.is_empty() {
        servers.push(rng.random_range(0..n));
    }
    let mut b = Network::builder(g, VnfCatalog::uniform(TYPES));
    for &v in &servers {
        b = b.server(NodeId(v), TYPES as f64).unwrap();
    }
    for f in 0..TYPES {
        for v in 0..n {
            let cost = f64::from(rng.random_range(0..=3u32));
            b = b.setup_cost(VnfId(f), NodeId(v), cost).unwrap();
        }
        for &v in &servers {
            if rng.random_range(0..5u32) == 0 {
                b = b.deploy(VnfId(f), NodeId(v)).unwrap();
            }
        }
    }
    b.build().unwrap()
}

#[test]
fn layered_dp_matches_the_overlay_dijkstra_row_by_row() {
    let mut rng = StdRng::seed_from_u64(0x5f7);
    let (mut rows, mut reached, mut tied) = (0usize, 0usize, 0usize);
    for case in 0..3000 {
        let network = tie_heavy_network(&mut rng);
        let source = NodeId(rng.random_range(0..network.node_count()));
        let k = rng.random_range(1..=4usize);
        let stages: Vec<VnfId> = (0..k).map(|_| VnfId(rng.random_range(0..3usize))).collect();
        let sfc = Sfc::new(stages).unwrap();
        let dp = ExpandedMod::build(&network, source, &sfc).unwrap();
        let oracle = overlay_dijkstra(&network, source, &sfc);
        assert_eq!(dp.servers().len(), oracle.len(), "case {case}");
        for (row, want) in oracle.into_iter().enumerate() {
            let got = dp.placement_for(row);
            rows += 1;
            reached += usize::from(want.is_some());
            tied += usize::from(want.as_ref().is_some_and(|w| w.2));
            assert_eq!(
                got.map(|(p, c)| (p, c.to_bits())),
                want.map(|(p, c, _)| (p, c.to_bits())),
                "case {case} (k = {k}, source {source}) row {row}"
            );
        }
    }
    // The draw must exercise the tie rule and the unreachable rows.
    assert!(tied * 5 >= reached, "{tied} tied of {reached} reached rows");
    assert!(reached < rows, "some rows must be unreachable");
}

/// A random network of 3 to 9 nodes with integer edge weights and setup
/// costs (so candidate costs tie), switches, pre-deployed instances and
/// server capacities of 1 to 3 unit instances, so that chains of up to
/// four stages often need capacity repair.
fn tight_network(rng: &mut StdRng) -> Network {
    const TYPES: usize = 3;
    let n = rng.random_range(3..=9usize);
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in u + 1..n {
            if rng.random_range(0..2u32) == 0 {
                let w = f64::from(rng.random_range(0..=3u32));
                g.add_edge(NodeId(u), NodeId(v), w).unwrap();
            }
        }
    }
    let mut b = Network::builder(g, VnfCatalog::uniform(TYPES));
    let mut room = vec![0u32; n];
    for (v, slots) in room.iter_mut().enumerate() {
        if v == 0 || rng.random_range(0..4u32) > 0 {
            *slots = rng.random_range(1..=3u32);
            b = b.server(NodeId(v), f64::from(*slots)).unwrap();
        }
    }
    for f in 0..TYPES {
        for (v, slots) in room.iter_mut().enumerate() {
            let cost = f64::from(rng.random_range(0..=3u32));
            b = b.setup_cost(VnfId(f), NodeId(v), cost).unwrap();
            if *slots > 0 && rng.random_range(0..6u32) == 0 {
                *slots -= 1;
                b = b.deploy(VnfId(f), NodeId(v)).unwrap();
            }
        }
    }
    b.build().unwrap()
}

/// The exhaustive sweep's answer: the first candidate in row order with
/// the minimum cost, with that cost.
fn lowest_row_minimum(candidates: &[(f64, ChainSolution)]) -> Option<(f64, &ChainSolution)> {
    let mut best: Option<(f64, &ChainSolution)> = None;
    for (cost, chain) in candidates {
        if best.is_none_or(|(b, _)| *cost < b) {
            best = Some((*cost, chain));
        }
    }
    best
}

#[test]
fn pruned_sweep_returns_the_exhaustive_lowest_row_minimum() {
    let mut rng = StdRng::seed_from_u64(0x9e1);
    let (mut solved, mut tied, mut candidates_seen, mut cold_misses) = (0, 0, 0u64, 0u64);
    for case in 0..2500 {
        let network = tight_network(&mut rng);
        let n = network.node_count();
        // One warm cache per method, shared by this network's tasks.
        let warm = [SteinerCache::new(), SteinerCache::new()];
        for _ in 0..2 {
            let source = NodeId(rng.random_range(0..n));
            let mut others: Vec<NodeId> = (0..n).map(NodeId).filter(|&v| v != source).collect();
            let mut dests = Vec::new();
            for _ in 0..rng.random_range(1..=5usize).min(others.len()) {
                dests.push(others.swap_remove(rng.random_range(0..others.len())));
            }
            let k = rng.random_range(1..=4usize);
            let stages: Vec<VnfId> = (0..k).map(|_| VnfId(rng.random_range(0..3usize))).collect();
            let task = MulticastTask::new(source, dests, Sfc::new(stages).unwrap()).unwrap();
            for (method, warm) in [SteinerMethod::Kmb, SteinerMethod::Takahashi]
                .into_iter()
                .zip(&warm)
            {
                let candidates = match stage_one_candidates(&network, &task, method) {
                    Ok(candidates) => candidates,
                    Err(e) => {
                        // Rejected up front (a destination the source
                        // cannot reach): the sweep rejects it the same way.
                        let got = stage_one_cancellable(
                            &network,
                            &task,
                            method,
                            Parallelism::auto(),
                            None,
                        );
                        assert_eq!(format!("{got:?}"), format!("{:?}", Err::<(), _>(e)));
                        continue;
                    }
                };
                let want = lowest_row_minimum(&candidates);
                candidates_seen += candidates.len() as u64;
                if let Some((min, chain)) = want {
                    let ties = candidates
                        .iter()
                        .filter(|(c, other)| *c == min && other != chain)
                        .count();
                    tied += usize::from(ties > 0);
                    solved += 1;
                }
                let cold = SteinerCache::new();
                let cached = |parallelism, cache| {
                    stage_one_with_cache_cancellable(
                        &network,
                        &task,
                        method,
                        parallelism,
                        cache,
                        None,
                    )
                };
                let got = [
                    stage_one_cancellable(&network, &task, method, Parallelism::sequential(), None),
                    cached(Parallelism::new(2), &cold),
                    cached(Parallelism::auto(), warm),
                    cached(Parallelism::auto(), warm),
                ];
                cold_misses += cold.misses();
                for (flavor, got) in got.into_iter().enumerate() {
                    let at = format!("case {case} ({method:?}, k = {k}) flavor {flavor}");
                    match (want, got) {
                        (Some((min, chain)), Ok(got)) => {
                            assert_eq!(&got, chain, "{at}");
                            // Every candidate with this placement and tree
                            // prices the same bits as the minimum.
                            let cost = candidates.iter().find(|(_, c)| *c == got).unwrap().0;
                            assert_eq!(cost.to_bits(), min.to_bits(), "{at}");
                        }
                        (None, Err(CoreError::Infeasible { .. })) => {}
                        (want, got) => panic!("{at}: want {want:?}, got {got:?}"),
                    }
                }
            }
        }
    }
    // The draw must exercise equal-cost winners, and pruning must skip
    // trees the exhaustive sweep builds.
    assert!(tied * 10 >= solved, "{tied} tied of {solved} solved");
    assert!(
        cold_misses * 10 < candidates_seen * 9,
        "{cold_misses} cold trees for {candidates_seen} candidates"
    );
}

/// Distance rows resident after each of [`cold_start_rows`]'s solves,
/// recorded on the code that re-read the server block and the KMB closure
/// on every solve and tree.
const COLD_START_ROWS: [u64; 40] = [
    83, 110, 166, 196, 221, 232, 249, 261, 268, 277, 281, 287, 289, 293, 296, 305, 310, 324, 324,
    329, 331, 336, 341, 347, 349, 350, 353, 353, 357, 359, 359, 361, 363, 363, 364, 364, 367, 368,
    369, 370,
];

/// A lazy_delay_churn-shaped cold start: a fresh 400-node Waxman WAN with
/// latency 2 on every link, 32 stride-spaced servers of capacity 3, and 40
/// delay-budgeted tasks (4 destinations, 1 to 3 stages) solved in turn
/// with a shared Steiner cache, committing each answer. Returns the
/// resident row count after every solve.
fn cold_start_rows() -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(0x3c0);
    let n = 400;
    let beta = 0.4;
    let alpha = (2.0 * (n as f64).ln() / (4.0 * std::f64::consts::PI * beta * n as f64)).sqrt();
    let mut graph = sft::graph::generate::waxman(n, alpha, beta, 100.0, &mut rng)
        .unwrap()
        .graph;
    for e in graph.edge_ids().collect::<Vec<_>>() {
        graph.set_edge_latency(e, Some(2.0)).unwrap();
    }
    let mut b = Network::builder(graph, VnfCatalog::uniform(3));
    for i in 0..32 {
        b = b.server(NodeId(i * (n / 32)), 3.0).unwrap();
    }
    let mut network = b.uniform_setup_cost(1.0).unwrap().build().unwrap();
    let cache = SteinerCache::new();
    let options = SolveOptions {
        cache: Some(&cache),
        ..SolveOptions::default()
    };
    assert_eq!(network.dist().rows_materialized(), 0);
    let mut rows = Vec::new();
    for _ in 0..40 {
        let source = NodeId(rng.random_range(0..n));
        let mut dests = Vec::new();
        while dests.len() < 4 {
            let d = NodeId(rng.random_range(0..n));
            if d != source && !dests.contains(&d) {
                dests.push(d);
            }
        }
        // The first task has one stage, so it must not fill the server
        // block; later chains have one to three.
        let k = if rows.is_empty() {
            1
        } else {
            rng.random_range(1..=3usize)
        };
        let sfc = Sfc::new((0..k).map(VnfId).collect::<Vec<_>>()).unwrap();
        let budget = 15.0 + 15.0 * rng.random::<f64>();
        let task = MulticastTask::new(source, dests, sfc)
            .unwrap()
            .with_delay_budget(budget)
            .unwrap();
        if let Ok(result) = solve(&network, &task, &options) {
            let delta = network.commit_delta(&task, &result.embedding);
            network.apply_delta(&delta).unwrap();
        }
        rows.push(network.dist().rows_materialized());
    }
    rows
}

/// A fresh network's first solves fill exactly the rows they filled before
/// the server block and the KMB closure were memoized: neither memo reads
/// a row early, so a cold start (lazy_delay_churn's timed window) does the
/// same row work.
#[test]
fn first_solves_fill_the_rows_they_filled_before_the_memos() {
    assert_eq!(cold_start_rows(), COLD_START_ROWS);
}
