//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sft_graph::generate::euclidean_er;
use sft_graph::{Graph, LazyDistances, NodeId, RootedTree, UnionFind};

/// A random connected Euclidean graph plus its parameters.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..24, 0.0f64..0.6, 0u64..10_000).prop_map(|(n, p, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        euclidean_er(n, p, 100.0, &mut rng).unwrap().graph
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engine_rows_are_certified_shortest_paths(g in arb_graph()) {
        // Optimality certificate without an APSP oracle: every engine
        // distance is realized by its path, and no edge can relax it.
        let m = LazyDistances::new(&g);
        for s in g.nodes() {
            let sp = g.dijkstra(s);
            for t in g.nodes() {
                prop_assert_eq!(m.distance(s, t), sp.distance(t));
                if let Some(d) = m.distance(s, t) {
                    let w = g.path_weight(&m.path(s, t).unwrap()).unwrap();
                    prop_assert!((w - d).abs() < 1e-9);
                }
            }
            for e in g.edges() {
                match (m.distance(s, e.u), m.distance(s, e.v)) {
                    (Some(du), Some(dv)) => prop_assert!((du - dv).abs() <= e.weight + 1e-9),
                    (None, None) => {}
                    _ => prop_assert!(false, "an edge straddles reachability"),
                }
            }
        }
    }

    #[test]
    fn dijkstra_satisfies_triangle_inequality(g in arb_graph()) {
        let m = LazyDistances::new(&g);
        for a in g.nodes() {
            for b in g.nodes() {
                for c in g.nodes() {
                    if let (Some(ab), Some(bc), Some(ac)) =
                        (m.distance(a, b), m.distance(b, c), m.distance(a, c))
                    {
                        prop_assert!(ac <= ab + bc + 1e-9);
                    }
                }
            }
        }
    }

    #[test]
    fn shortest_paths_are_locally_optimal(g in arb_graph()) {
        // Every edge relaxation is tight at the fixpoint.
        let sp = g.dijkstra(NodeId(0));
        for e in g.edges() {
            if let (Some(du), Some(dv)) = (sp.distance(e.u), sp.distance(e.v)) {
                prop_assert!(dv <= du + e.weight + 1e-9);
                prop_assert!(du <= dv + e.weight + 1e-9);
            }
        }
    }

    #[test]
    fn mst_weight_is_invariant_under_algorithm(g in arb_graph()) {
        let forest = g.minimum_spanning_forest();
        if g.is_connected() && g.node_count() > 0 {
            let prim = g.prim(NodeId(0)).unwrap();
            prop_assert!((forest.weight - prim.weight).abs() < 1e-9);
        }
        // Cut property spot-check: every non-tree edge closes a cycle in
        // which it is a heaviest edge; verify via the tree path.
        if g.is_connected() && g.node_count() >= 2 {
            let tree = RootedTree::from_edges(&g, NodeId(0), &forest.edges).unwrap();
            for id in g.edge_ids() {
                if forest.edges.contains(&id) {
                    continue;
                }
                let e = g.edge(id);
                let pu = tree.path_from_root(e.u).unwrap();
                let pv = tree.path_from_root(e.v).unwrap();
                // Max tree-edge weight on the u-v tree path.
                let mut max_w: f64 = 0.0;
                let shared = pu.iter().zip(&pv).take_while(|(a, b)| a == b).count();
                for w in pu[shared.saturating_sub(1)..].windows(2) {
                    max_w = max_w.max(g.weight(g.find_edge(w[0], w[1]).unwrap()));
                }
                for w in pv[shared.saturating_sub(1)..].windows(2) {
                    max_w = max_w.max(g.weight(g.find_edge(w[0], w[1]).unwrap()));
                }
                prop_assert!(e.weight >= max_w - 1e-9, "cycle property violated");
            }
        }
    }

    #[test]
    fn kmb_tree_is_valid_and_within_bound(
        g in arb_graph(),
        picks in proptest::collection::vec(0usize..1000, 2..6),
    ) {
        prop_assume!(g.is_connected());
        let terminals: Vec<NodeId> = picks
            .iter()
            .map(|&i| NodeId(i % g.node_count()))
            .collect();
        let dist = LazyDistances::new(&g);
        let kmb = g.steiner_kmb_with_provider(&dist, &terminals, None).unwrap();
        prop_assert!(kmb.is_valid(&g, &terminals));
        let tm = g.steiner_takahashi(&terminals).unwrap();
        prop_assert!(tm.is_valid(&g, &terminals));
        // All variants within the 2x bound of the exact optimum when the
        // instance is small enough for the oracle.
        let distinct: std::collections::BTreeSet<_> = terminals.iter().collect();
        if g.node_count() - distinct.len() <= 12 {
            let opt = g.steiner_exact(&terminals).unwrap();
            prop_assert!(opt.cost <= kmb.cost + 1e-9);
            prop_assert!(opt.cost <= tm.cost + 1e-9);
            prop_assert!(kmb.cost <= 2.0 * opt.cost + 1e-9);
            prop_assert!(tm.cost <= 2.0 * opt.cost + 1e-9);
        }
    }

    #[test]
    fn union_find_matches_component_labels(g in arb_graph()) {
        let mut uf = UnionFind::new(g.node_count());
        for e in g.edges() {
            uf.union(e.u.index(), e.v.index());
        }
        let labels = g.components();
        for a in g.nodes() {
            for b in g.nodes() {
                prop_assert_eq!(
                    uf.connected(a.index(), b.index()),
                    labels[a.index()] == labels[b.index()]
                );
            }
        }
    }

    #[test]
    fn induced_subgraph_preserves_distances_upper_bound(g in arb_graph()) {
        // Distances in an induced subgraph never beat the full graph's.
        let take = (g.node_count() / 2).max(2);
        let nodes: Vec<NodeId> = (0..take).map(NodeId).collect();
        let sub = g.induced_subgraph(&nodes).unwrap();
        let full = LazyDistances::new(&g);
        let subm = LazyDistances::new(&sub);
        for i in 0..take {
            for j in 0..take {
                if let Some(ds) = subm.distance(NodeId(i), NodeId(j)) {
                    let df = full.distance(NodeId(i), NodeId(j)).unwrap();
                    prop_assert!(df <= ds + 1e-9);
                }
            }
        }
    }
}
