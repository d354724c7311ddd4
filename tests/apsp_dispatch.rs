//! The distance engine against a Floyd–Warshall oracle.
//!
//! The paper's Algorithm 1 precomputes all-pairs shortest paths with
//! Floyd's algorithm (Theorem 5 charges `O(|V|³)`). The workspace answers
//! the same queries from `LazyDistances` — per-source Dijkstra rows
//! computed on demand — and keeps Floyd–Warshall only here, as the
//! reference those rows must agree with: every distance within 1e-9,
//! every engine path present in the graph and costing its distance, and
//! the `l_G` normalizer and diameter within 1e-9. Tie-breaks may differ;
//! prices may not.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sft::graph::{generate, Graph, LazyDistances, NodeId};
use sft::topology::palmetto;

/// Floyd–Warshall over `g`: the `n × n` distance matrix, row-major, with
/// `INFINITY` for unreachable pairs.
fn floyd_warshall(g: &Graph) -> Vec<f64> {
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n * n];
    for u in 0..n {
        dist[u * n + u] = 0.0;
    }
    for e in g.edges() {
        let (u, v) = (e.u.index(), e.v.index());
        dist[u * n + v] = e.weight;
        dist[v * n + u] = e.weight;
    }
    for k in 0..n {
        for i in 0..n {
            let dik = dist[i * n + k];
            if !dik.is_finite() {
                continue;
            }
            for j in 0..n {
                let through = dik + dist[k * n + j];
                if through < dist[i * n + j] {
                    dist[i * n + j] = through;
                }
            }
        }
    }
    dist
}

fn assert_price_identically(g: &Graph, label: &str) {
    let n = g.node_count();
    let oracle = floyd_warshall(g);
    let engine = LazyDistances::new(g);
    for u in g.nodes() {
        for v in g.nodes() {
            let want = oracle[u.index() * n + v.index()];
            match engine.distance(u, v) {
                None => assert!(
                    !want.is_finite(),
                    "{label}: reachability disagrees on {u:?}->{v:?}"
                ),
                Some(got) => {
                    assert!(
                        (got - want).abs() < 1e-9,
                        "{label}: {u:?}->{v:?}: {got} vs {want}"
                    );
                    // Every reported path must exist in the graph and cost
                    // exactly the distance.
                    let p = engine.path(u, v).unwrap();
                    assert_eq!((p[0], *p.last().unwrap()), (u, v), "{label}");
                    let w = g.path_weight(&p).unwrap();
                    assert!((w - got).abs() < 1e-9, "{label}: loose path {u:?}->{v:?}");
                }
            }
        }
    }
    let reachable: Vec<f64> = (0..n * n)
        .filter(|&i| i / n != i % n && oracle[i].is_finite())
        .map(|i| oracle[i])
        .collect();
    let average = reachable.iter().sum::<f64>() / reachable.len().max(1) as f64;
    let diameter = reachable.iter().copied().fold(0.0, f64::max);
    assert!(
        (engine.average_distance() - average).abs() < 1e-9,
        "{label}: l_G normalizer diverges"
    );
    assert!((engine.diameter() - diameter).abs() < 1e-9, "{label}");
}

#[test]
fn er_topology_prices_identically_under_both_apsp_variants() {
    let mut rng = StdRng::seed_from_u64(42);
    let topo = generate::euclidean_er(60, 0.08, 100.0, &mut rng).unwrap();
    assert_price_identically(&topo.graph, "ER n=60");
}

#[test]
fn palmetto_prices_identically_under_both_apsp_variants() {
    assert_price_identically(&palmetto::graph(), "Palmetto");
}

#[test]
fn dense_graphs_price_identically_too() {
    // A near-complete graph, where shortest-path ties are most common.
    let mut g = Graph::new(12);
    for u in 0..12 {
        for v in (u + 1)..12 {
            if (u + v) % 7 != 0 {
                g.add_edge(NodeId(u), NodeId(v), 1.0 + ((u * 5 + v * 3) % 9) as f64)
                    .unwrap();
            }
        }
    }
    assert!(g.edge_count() * 8 >= g.node_count() * g.node_count());
    assert_price_identically(&g, "dense n=12");
}
