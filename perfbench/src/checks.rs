//! State-equality gates over networks and the server's commit log.

use crate::workload::Recipe;
use sft_core::Network;
use sft_graph::NodeId;
use sft_service::{LedgerOp, ServerHandle};

/// `None` when the two networks hold the same instance refcounts, node
/// residuals and edge usage (bit-for-bit), else what differs.
pub fn state_diff(a: &Network, b: &Network) -> Option<String> {
    if a.deployment_refcounts() != b.deployment_refcounts() {
        return Some("instance refcounts".into());
    }
    let n = a.node_count();
    if n != b.node_count()
        || (0..n).any(|v| {
            a.residual_capacity(NodeId(v)).to_bits() != b.residual_capacity(NodeId(v)).to_bits()
        })
    {
        return Some("node residuals".into());
    }
    let bits = |net: &Network| -> Vec<(usize, u64, u32)> {
        net.edge_usage()
            .into_iter()
            .map(|(e, used, sessions)| (e.0, used.to_bits(), sessions))
            .collect()
    };
    if bits(a) != bits(b) {
        return Some("edge usage".into());
    }
    None
}

/// Replays the server's commit log serially onto a freshly built network
/// and compares the result with the server's network. Returns the
/// replayed network, or what went wrong.
pub fn replay_commit_log(recipe: &Recipe, handle: &ServerHandle) -> Result<Network, String> {
    let mut replayed = recipe.build();
    for record in handle.commit_log() {
        let delta = record.delta();
        let applied = match record.op {
            LedgerOp::Commit => replayed.apply_delta(&delta),
            LedgerOp::Release => replayed.apply_release(&delta).map(|_| ()),
        };
        applied.map_err(|e| format!("commit log record {} does not replay: {e}", record.seq))?;
    }
    match state_diff(&replayed, &handle.network()) {
        None => Ok(replayed),
        Some(diff) => Err(format!(
            "the replayed commit log differs from the server's network: {diff}"
        )),
    }
}
