//! Graphviz (DOT) export for networks, embeddings, and logical SFTs.
//!
//! `dot -Tsvg network.dot -o network.svg` renders the output with any
//! stock Graphviz install; the writers only produce strings, so the crate
//! itself stays I/O-free.

use crate::embedding::Embedding;
use crate::network::Network;
use crate::sft_tree::{SftNode, SftTree};
use crate::task::MulticastTask;
use crate::CoreError;
use sft_graph::EdgeId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Renders the physical network: servers as boxes (labelled with their
/// capacity and deployed VNFs), switches as circles, edges with their
/// link-connection costs.
pub fn network_dot(network: &Network) -> String {
    let mut out = String::from("graph network {\n  layout=neato;\n  overlap=false;\n");
    for v in network.graph().nodes() {
        if network.is_server(v) {
            let deployed: Vec<String> = network
                .catalog()
                .ids()
                .filter(|&f| network.is_deployed(f, v))
                .map(|f| network.catalog().name(f).to_string())
                .collect();
            let extra = if deployed.is_empty() {
                String::new()
            } else {
                format!("\\n[{}]", deployed.join(","))
            };
            let _ = writeln!(
                out,
                "  n{} [shape=box,label=\"{}\\ncap {}{}\"];",
                v.index(),
                v.index(),
                network.capacity(v),
                extra
            );
        } else {
            let _ = writeln!(
                out,
                "  n{} [shape=circle,label=\"{}\"];",
                v.index(),
                v.index()
            );
        }
    }
    for e in network.graph().edges() {
        let _ = writeln!(
            out,
            "  n{} -- n{} [label=\"{:.1}\"];",
            e.u.index(),
            e.v.index(),
            e.weight
        );
    }
    out.push_str("}\n");
    out
}

/// Renders an embedding over its network: used edges are colored by the
/// chain segment(s) that cross them, instance nodes are highlighted, and
/// the source/destinations are marked.
///
/// # Errors
///
/// [`CoreError::Graph`] if a route walks a non-edge.
pub fn embedding_dot(
    network: &Network,
    task: &MulticastTask,
    embedding: &Embedding,
) -> Result<String, CoreError> {
    // Segment indices using each edge.
    let mut edge_segments: BTreeMap<EdgeId, BTreeSet<usize>> = BTreeMap::new();
    for route in embedding.routes() {
        for (j, seg) in route.segments().iter().enumerate() {
            for id in network.graph().path_edges(seg)? {
                edge_segments.entry(id).or_default().insert(j);
            }
        }
    }
    let palette = [
        "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
    ];
    let instances = embedding.instances();
    let dests: BTreeSet<_> = task.destinations().iter().copied().collect();

    let mut out = String::from("graph embedding {\n  layout=neato;\n  overlap=false;\n");
    for v in network.graph().nodes() {
        let stages: Vec<String> = instances
            .iter()
            .filter(|&&(_, n)| n == v)
            .map(|&(s, _)| format!("l{s}"))
            .collect();
        let (shape, style, label) = if v == task.source() {
            (
                "doublecircle",
                ",style=filled,fillcolor=\"#ffd700\"",
                format!("S{}", v.index()),
            )
        } else if !stages.is_empty() {
            (
                "box",
                ",style=filled,fillcolor=\"#c6e2ff\"",
                format!("{}\\n{}", v.index(), stages.join(",")),
            )
        } else if dests.contains(&v) {
            (
                "doubleoctagon",
                ",style=filled,fillcolor=\"#b4eeb4\"",
                format!("d{}", v.index()),
            )
        } else {
            ("circle", "", v.index().to_string())
        };
        let _ = writeln!(
            out,
            "  n{} [shape={shape}{style},label=\"{label}\"];",
            v.index()
        );
    }
    for e in network.graph().edges() {
        let id = network
            .graph()
            .find_edge(e.u, e.v)
            .expect("edge iterates over existing edges");
        match edge_segments.get(&id) {
            Some(segs) => {
                let colors: Vec<&str> = segs.iter().map(|&j| palette[j % palette.len()]).collect();
                let _ = writeln!(
                    out,
                    "  n{} -- n{} [penwidth=2.5,color=\"{}\",label=\"{:.1}\"];",
                    e.u.index(),
                    e.v.index(),
                    colors.join(":"),
                    e.weight
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "  n{} -- n{} [color=\"#cccccc\",label=\"{:.1}\"];",
                    e.u.index(),
                    e.v.index(),
                    e.weight
                );
            }
        }
    }
    out.push_str("}\n");
    Ok(out)
}

/// Renders the *logical* SFT (paper Fig. 5): instances layered by stage.
pub fn sft_dot(tree: &SftTree) -> String {
    let name = |n: &SftNode| -> String {
        match n {
            SftNode::Source(v) => format!("S{}", v.index()),
            SftNode::Instance { stage, node } => format!("f{}_{}", stage, node.index()),
            SftNode::Destination(v) => format!("d{}", v.index()),
        }
    };
    let label = |n: &SftNode| -> String {
        match n {
            SftNode::Source(v) => format!("S ({})", v.index()),
            SftNode::Instance { stage, node } => format!("l{} @ {}", stage, node.index()),
            SftNode::Destination(v) => format!("d ({})", v.index()),
        }
    };
    let mut nodes: BTreeSet<SftNode> = BTreeSet::new();
    for (a, b) in tree.edges() {
        nodes.insert(*a);
        nodes.insert(*b);
    }
    let mut out = String::from("digraph sft {\n  rankdir=TB;\n");
    for n in &nodes {
        let shape = match n {
            SftNode::Source(_) => "doublecircle",
            SftNode::Instance { .. } => "box",
            SftNode::Destination(_) => "doubleoctagon",
        };
        let _ = writeln!(out, "  {} [shape={shape},label=\"{}\"];", name(n), label(n));
    }
    for (a, b) in tree.edges() {
        let _ = writeln!(out, "  {} -> {};", name(a), name(b));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vnf::{Sfc, VnfCatalog, VnfId};
    use crate::{solve, SolveOptions};
    use sft_graph::{Graph, NodeId};

    fn fixture() -> (Network, MulticastTask) {
        let mut g = Graph::new(5);
        for i in 0..5 {
            g.add_edge(NodeId(i), NodeId((i + 1) % 5), 1.0 + i as f64)
                .unwrap();
        }
        let net = Network::builder(g, VnfCatalog::uniform(2))
            .all_servers(2.0)
            .unwrap()
            .deploy(VnfId(0), NodeId(1))
            .unwrap()
            .build()
            .unwrap();
        let task = MulticastTask::new(
            NodeId(0),
            vec![NodeId(2), NodeId(3)],
            Sfc::new(vec![VnfId(0), VnfId(1)]).unwrap(),
        )
        .unwrap();
        (net, task)
    }

    #[test]
    fn network_dot_lists_every_node_and_edge() {
        let (net, _) = fixture();
        let dot = network_dot(&net);
        assert!(dot.starts_with("graph network {"));
        for v in 0..5 {
            assert!(dot.contains(&format!("n{v} [")), "node {v} missing");
        }
        assert_eq!(dot.matches(" -- ").count(), net.graph().edge_count());
        assert!(dot.contains("f0"), "deployed VNF label missing");
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn embedding_dot_highlights_instances_and_endpoints() {
        let (net, task) = fixture();
        let r = solve(&net, &task, &SolveOptions::default()).unwrap();
        let dot = embedding_dot(&net, &task, &r.embedding).unwrap();
        assert!(dot.contains("doublecircle"), "source marker missing");
        assert!(dot.contains("doubleoctagon"), "destination marker missing");
        assert!(dot.contains("penwidth=2.5"), "no used edges highlighted");
    }

    #[test]
    fn sft_dot_is_a_digraph_of_the_logical_tree() {
        let (net, task) = fixture();
        let r = solve(&net, &task, &SolveOptions::default()).unwrap();
        let tree = SftTree::extract(&task, &r.embedding).unwrap();
        let dot = sft_dot(&tree);
        assert!(dot.starts_with("digraph sft {"));
        assert!(dot.contains("S ("));
        assert!(dot.contains("l1 @"));
        assert_eq!(dot.matches(" -> ").count(), tree.edges().len());
    }
}
