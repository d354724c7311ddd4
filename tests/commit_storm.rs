//! Commit-storm contract of the transactional ledger: N client threads
//! race commits against one socket server, and afterwards the books must
//! balance exactly:
//!
//! * every response is structured (success, `insufficient_capacity`, or
//!   `infeasible`; a commit whose optimistic attempts all lose their race
//!   retries under the write lock, so none answers `conflict`) — never a
//!   hang, a torn line, or a dropped connection;
//! * residual capacities are non-negative on every node;
//! * sum-of-deltas accounting is exact: initial minus final total
//!   residual equals the summed demand of every logged deploy;
//! * the commit log has contiguous sequence numbers, one per success;
//! * **determinism**: serially replaying the logged deltas in committed
//!   order onto an identically-built network reproduces the final
//!   deployment set and per-node residuals bit-for-bit.

use proptest::prelude::*;
use sft::core::{Network, VnfCatalog};
use sft::graph::{Graph, NodeId};
use sft::service::protocol::{parse_response, EmbedRequest, RequestMode, ResponseBody};
use sft::service::{serve, EmbedService, ErrorCode, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

const NODES: usize = 12;

/// Uniform catalog: every instance demands exactly 1.0, so the
/// accounting below is exact in f64 (no rounding slack needed).
fn ring_network(capacity: f64) -> Network {
    let mut g = Graph::new(NODES);
    for i in 0..NODES {
        g.add_edge(
            NodeId(i),
            NodeId((i + 1) % NODES),
            1.0 + (i % 3) as f64 * 0.2,
        )
        .unwrap();
    }
    Network::builder(g, VnfCatalog::uniform(3))
        .all_servers(capacity)
        .unwrap()
        .uniform_setup_cost(2.0)
        .unwrap()
        .build()
        .unwrap()
}

fn storm(clients: usize, tasks_per_client: usize, capacity: f64) {
    let initial = ring_network(capacity);
    let svc = EmbedService::with_defaults(initial.clone());
    let mut handle = serve(
        svc,
        "127.0.0.1:0",
        ServerConfig {
            workers: 4,
            commit_retries: 8,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr().unwrap();

    let bodies: Vec<ResponseBody> = std::thread::scope(|scope| {
        let mut threads = Vec::new();
        for c in 0..clients {
            threads.push(scope.spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                let mut got = Vec::new();
                for t in 0..tasks_per_client {
                    // Vary sources/chains per client so commits overlap
                    // on some nodes (conflicts) and not on others.
                    let source = (c * 5 + t) % NODES;
                    let dest = (source + 3 + t % 2) % NODES;
                    let mut req = EmbedRequest::new(source, vec![dest], vec![t % 3, (t + 1) % 3]);
                    req.id = Some((c * tasks_per_client + t) as u64 + 1);
                    req.mode = Some(RequestMode::Commit);
                    writeln!(writer, "{}", req.to_json()).unwrap();
                    writer.flush().unwrap();
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    got.push(parse_response(line.trim()).unwrap().body);
                }
                got
            }));
        }
        threads
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect()
    });
    handle.shutdown();
    handle.join();

    let mut successes = 0usize;
    for body in &bodies {
        match body {
            ResponseBody::Ok { committed, .. } => {
                assert!(committed, "commit-mode success must commit");
                successes += 1;
            }
            ResponseBody::Error(e) => assert!(
                matches!(
                    e.code,
                    ErrorCode::InsufficientCapacity | ErrorCode::Infeasible
                ),
                "unexpected rejection: {e:?}"
            ),
            other => panic!("unexpected body {other:?}"),
        }
    }

    let final_network = handle.network();
    for v in 0..NODES {
        assert!(
            final_network.residual_capacity(NodeId(v)) >= 0.0,
            "node {v} oversubscribed"
        );
    }

    let log = handle.commit_log();
    assert_eq!(log.len(), successes, "one transaction per success");
    for (i, record) in log.iter().enumerate() {
        assert_eq!(record.seq, i as u64 + 1, "sequence numbers contiguous");
    }

    // Exact accounting: capacity consumed == summed demand of every
    // logged deploy (unit demands, so exact in f64).
    let spent: f64 = log
        .iter()
        .map(|r| r.delta().total_demand(initial.catalog()))
        .sum();
    assert_eq!(
        initial.total_residual_capacity() - final_network.total_residual_capacity(),
        spent,
        "ledger accounting must balance exactly"
    );

    // Determinism: serial replay of the committed order is bit-identical.
    let mut replay = ring_network(capacity);
    for record in &log {
        replay.apply_delta(&record.delta()).unwrap();
    }
    assert_eq!(
        replay.deployed_pairs(),
        final_network.deployed_pairs(),
        "replayed deployments diverge"
    );
    for v in 0..NODES {
        assert_eq!(
            replay.residual_capacity(NodeId(v)),
            final_network.residual_capacity(NodeId(v)),
            "node {v} residual diverges under replay"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn racing_commits_keep_the_ledger_exact_and_replayable(
        clients in 2usize..5,
        tasks_per_client in 2usize..6,
        capacity in 1u32..4,
    ) {
        storm(clients, tasks_per_client, f64::from(capacity));
    }
}

/// Deterministic smoke mirroring the acceptance criterion: a hot storm on
/// a tight network must finish with balanced books and an exact replay.
#[test]
fn tight_capacity_storm_balances_and_replays() {
    storm(4, 6, 2.0);
}
