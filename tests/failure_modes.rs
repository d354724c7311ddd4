//! Failure injection: every layer must reject broken inputs with typed
//! errors, never panic, and never return quietly wrong results.

use sft::core::{solve, CoreError, SolveOptions, Strategy};
use sft::core::{MulticastTask, Network, Sfc, VnfCatalog, VnfId};
use sft::graph::{Graph, GraphError, NodeId};

fn line(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 0..n - 1 {
        g.add_edge(NodeId(i), NodeId(i + 1), 1.0).unwrap();
    }
    g
}

#[test]
fn unreachable_destination_is_infeasible_not_panic() {
    let mut g = Graph::new(4);
    g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
    g.add_edge(NodeId(2), NodeId(3), 1.0).unwrap();
    let net = Network::builder(g, VnfCatalog::uniform(1))
        .all_servers(2.0)
        .unwrap()
        .build()
        .unwrap();
    let task = MulticastTask::new(
        NodeId(0),
        vec![NodeId(3)],
        Sfc::new(vec![VnfId(0)]).unwrap(),
    )
    .unwrap();
    assert!(matches!(
        solve(&net, &task, &SolveOptions::default()),
        Err(CoreError::Infeasible { .. })
    ));
}

#[test]
fn capacity_starvation_is_infeasible() {
    let net = Network::builder(line(5), VnfCatalog::uniform(3))
        .all_servers(1.0)
        .unwrap()
        .build()
        .unwrap();
    // Chain of 3 with only... actually 5 nodes x cap 1 suffices; starve by
    // pre-filling every node with a foreign type.
    let mut full = Network::builder(line(5), VnfCatalog::uniform(4))
        .all_servers(1.0)
        .unwrap();
    for v in 0..5 {
        full = full.deploy(VnfId(3), NodeId(v)).unwrap();
    }
    let full = full.build().unwrap();
    let task = MulticastTask::new(
        NodeId(0),
        vec![NodeId(4)],
        Sfc::new(vec![VnfId(0), VnfId(1), VnfId(2)]).unwrap(),
    )
    .unwrap();
    assert!(solve(&net, &task, &SolveOptions::default()).is_ok());
    assert!(matches!(
        solve(&full, &task, &SolveOptions::default()),
        Err(CoreError::Infeasible { .. })
    ));
}

#[test]
fn switch_only_networks_cannot_host_chains() {
    let net = Network::builder(line(4), VnfCatalog::uniform(1))
        .build()
        .unwrap(); // nobody marked as server
    let task = MulticastTask::new(
        NodeId(0),
        vec![NodeId(3)],
        Sfc::new(vec![VnfId(0)]).unwrap(),
    )
    .unwrap();
    let err = solve(&net, &task, &SolveOptions::default()).unwrap_err();
    assert!(matches!(err, CoreError::Infeasible { .. }), "{err}");
}

#[test]
fn foreign_ids_surface_as_typed_errors() {
    let net = Network::builder(line(3), VnfCatalog::uniform(1))
        .all_servers(1.0)
        .unwrap()
        .build()
        .unwrap();
    let bad_vnf = MulticastTask::new(
        NodeId(0),
        vec![NodeId(2)],
        Sfc::new(vec![VnfId(9)]).unwrap(),
    )
    .unwrap();
    assert!(matches!(
        solve(&net, &bad_vnf, &SolveOptions::default()),
        Err(CoreError::VnfOutOfBounds { .. })
    ));
    let bad_node = MulticastTask::new(
        NodeId(0),
        vec![NodeId(17)],
        Sfc::new(vec![VnfId(0)]).unwrap(),
    )
    .unwrap();
    assert!(matches!(
        solve(&net, &bad_node, &SolveOptions::default()),
        Err(CoreError::NodeOutOfBounds { .. })
    ));
}

#[test]
fn graph_layer_errors_carry_context() {
    let mut g = Graph::new(2);
    let e = g.add_edge(NodeId(0), NodeId(7), 1.0).unwrap_err();
    assert_eq!(e, GraphError::NodeOutOfBounds { node: 7, len: 2 });
    assert!(e.to_string().contains('7'));
    let e = g.add_edge(NodeId(0), NodeId(1), f64::NAN).unwrap_err();
    assert!(matches!(e, GraphError::InvalidWeight { .. }));
    // Errors are std::error::Error and can be boxed/chained.
    let boxed: Box<dyn std::error::Error> = Box::new(e);
    assert!(!boxed.to_string().is_empty());
}

#[test]
fn core_errors_wrap_sources_for_chaining() {
    use std::error::Error as _;
    let inner = GraphError::Disconnected;
    let outer: CoreError = inner.into();
    assert!(outer.source().is_some(), "graph errors chain as sources");
    let lp_err: CoreError = sft::lp::LpError::IterationLimit { iterations: 1 }.into();
    assert!(lp_err.source().is_some());
    assert!(lp_err.to_string().contains("iteration"));
}

#[test]
fn every_strategy_agrees_on_infeasibility() {
    let net = Network::builder(line(4), VnfCatalog::uniform(2))
        .all_servers(0.0)
        .unwrap()
        .build()
        .unwrap();
    let task = MulticastTask::new(
        NodeId(0),
        vec![NodeId(3)],
        Sfc::new(vec![VnfId(0), VnfId(1)]).unwrap(),
    )
    .unwrap();
    for strategy in [Strategy::Msa, Strategy::Sca, Strategy::Rsa] {
        let options = SolveOptions {
            strategy,
            ..SolveOptions::default()
        };
        let r = solve(&net, &task, &options);
        assert!(
            matches!(r, Err(CoreError::Infeasible { .. })),
            "{strategy:?} must report infeasibility"
        );
    }
}

#[test]
fn zero_length_edge_costs_are_supported_end_to_end() {
    // Free links (e.g. intra-rack) must not break shortest paths, Steiner
    // trees, or the cost model.
    let mut g = Graph::new(4);
    g.add_edge(NodeId(0), NodeId(1), 0.0).unwrap();
    g.add_edge(NodeId(1), NodeId(2), 0.0).unwrap();
    g.add_edge(NodeId(2), NodeId(3), 1.0).unwrap();
    let net = Network::builder(g, VnfCatalog::uniform(1))
        .all_servers(1.0)
        .unwrap()
        .uniform_setup_cost(0.5)
        .unwrap()
        .build()
        .unwrap();
    let task = MulticastTask::new(
        NodeId(0),
        vec![NodeId(3)],
        Sfc::new(vec![VnfId(0)]).unwrap(),
    )
    .unwrap();
    let r = solve(&net, &task, &SolveOptions::default()).unwrap();
    assert!(sft::core::validate::is_valid(&net, &task, &r.embedding));
    assert!((r.cost.total() - 1.5).abs() < 1e-9, "1 link + 0.5 setup");
}
