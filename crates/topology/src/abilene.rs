//! The Abilene (Internet2) backbone — the classic 11-node US research
//! network, kept as a second real-world topology beside
//! [`crate::palmetto`].
//!
//! Abilene's node set and links are public record (it is one of the most
//! reproduced topologies in networking research); coordinates are planar
//! approximations of the PoP cities, and link costs are their Euclidean
//! distances, matching Table I's cost convention.

use sft_graph::{Graph, NodeId};

/// Number of nodes in the Abilene backbone.
pub const NODE_COUNT: usize = 11;

/// PoP city names, index-aligned with [`POSITIONS`].
pub const NAMES: [&str; NODE_COUNT] = [
    "Seattle",       // 0
    "Sunnyvale",     // 1
    "Los Angeles",   // 2
    "Denver",        // 3
    "Kansas City",   // 4
    "Houston",       // 5
    "Chicago",       // 6
    "Indianapolis",  // 7
    "Atlanta",       // 8
    "Washington DC", // 9
    "New York",      // 10
];

/// Planar coordinates (x grows east, y grows north; arbitrary units
/// roughly proportional to geography).
pub const POSITIONS: [(f64, f64); NODE_COUNT] = [
    (35.0, 240.0),  // Seattle
    (15.0, 130.0),  // Sunnyvale
    (55.0, 75.0),   // Los Angeles
    (185.0, 160.0), // Denver
    (260.0, 150.0), // Kansas City
    (265.0, 45.0),  // Houston
    (330.0, 185.0), // Chicago
    (330.0, 155.0), // Indianapolis
    (355.0, 80.0),  // Atlanta
    (420.0, 150.0), // Washington DC
    (445.0, 175.0), // New York
];

/// The 14 Abilene links.
pub const LINKS: [(usize, usize); 14] = [
    (0, 1),  // Seattle - Sunnyvale
    (0, 3),  // Seattle - Denver
    (1, 2),  // Sunnyvale - Los Angeles
    (1, 3),  // Sunnyvale - Denver
    (2, 5),  // Los Angeles - Houston
    (3, 4),  // Denver - Kansas City
    (4, 5),  // Kansas City - Houston
    (4, 7),  // Kansas City - Indianapolis
    (5, 8),  // Houston - Atlanta
    (6, 7),  // Chicago - Indianapolis
    (6, 10), // Chicago - New York
    (7, 8),  // Indianapolis - Atlanta
    (8, 9),  // Atlanta - Washington DC
    (9, 10), // Washington DC - New York
];

/// Builds the Abilene graph with Euclidean link costs.
pub fn graph() -> Graph {
    let mut g = Graph::new(NODE_COUNT);
    for &(u, v) in &LINKS {
        let (a, b) = (POSITIONS[u], POSITIONS[v]);
        let w = ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt();
        g.add_edge(NodeId(u), NodeId(v), w)
            .expect("link table is well-formed");
    }
    g
}

/// Looks a node up by its PoP city name (exact match).
pub fn node_by_name(name: &str) -> Option<NodeId> {
    NAMES.iter().position(|&n| n == name).map(NodeId)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_the_canonical_shape() {
        let g = graph();
        assert_eq!(g.node_count(), 11);
        assert_eq!(g.edge_count(), 14);
        assert!(g.is_connected());
        // Every PoP has degree 2 or 3 in Abilene.
        for n in g.nodes() {
            let d = g.degree(n);
            assert!((2..=3).contains(&d), "{} has degree {d}", NAMES[n.index()]);
        }
    }

    #[test]
    fn coast_to_coast_goes_through_the_middle() {
        let g = graph();
        let seattle = node_by_name("Seattle").unwrap();
        let ny = node_by_name("New York").unwrap();
        let path = g.dijkstra(seattle).path_to(ny).unwrap();
        assert!(path.len() >= 4, "no coast-to-coast shortcut exists");
    }

    #[test]
    fn is_usable_end_to_end() {
        use sft_core::{MulticastTask, Network, Sfc, VnfCatalog, VnfId};
        let net = Network::builder(graph(), VnfCatalog::uniform(2))
            .all_servers(2.0)
            .unwrap()
            .uniform_setup_cost(50.0)
            .unwrap()
            .build()
            .unwrap();
        let task = MulticastTask::new(
            node_by_name("Denver").unwrap(),
            vec![
                node_by_name("New York").unwrap(),
                node_by_name("Los Angeles").unwrap(),
                node_by_name("Atlanta").unwrap(),
            ],
            Sfc::new(vec![VnfId(0), VnfId(1)]).unwrap(),
        )
        .unwrap();
        let r = sft_core::solve(&net, &task, &sft_core::SolveOptions::default()).unwrap();
        assert!(sft_core::validate::is_valid(&net, &task, &r.embedding));
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(node_by_name("Chicago"), Some(NodeId(6)));
        assert_eq!(node_by_name("Boston"), None);
    }
}
