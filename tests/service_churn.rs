//! Long-horizon churn soak: thousands of arrival/departure sessions
//! racing over the socket must leave the server *exactly* where it
//! started — the leak-proof contract of the session lifecycle.
//!
//! Four client threads each run a sliding window of live sessions
//! (commit the next arrival, release the oldest once the window is
//! full), so at any moment the network holds a mix of instances shared
//! across threads. When every window drains:
//!
//! * per-node residual capacity is **bit-identical** to the seed — not
//!   approximately back, exactly back;
//! * no instance is stranded (`deployment_refcounts` is the seed's);
//! * the server answered everything structurally (commits may bounce as
//!   `insufficient_capacity` on a tight network but never as `conflict`;
//!   releases of committed sessions must all succeed);
//! * the mixed commit/release log replays serially to the same state.

use sft::core::{Network, VnfCatalog};
use sft::graph::{Graph, NodeId};
use sft::service::protocol::{parse_response, EmbedRequest, Request, RequestMode, ResponseBody};
use sft::service::{serve, EmbedService, ErrorCode, LedgerOp, ServerConfig, PROTOCOL_VERSION};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

const NODES: usize = 12;
const CLIENTS: usize = 4;
/// Live sessions each client holds before releasing its oldest.
const WINDOW: usize = 6;

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

/// One client's churn loop; returns (commits, releases) it completed.
fn churn_client(addr: std::net::SocketAddr, client: usize, sessions: usize) -> (usize, usize) {
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut send = move |line: &str| -> ResponseBody {
        writeln!(writer, "{line}").unwrap();
        writer.flush().unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        parse_response(response.trim()).unwrap().body
    };
    let release_line = |session: u64| {
        Request::Release {
            v: PROTOCOL_VERSION,
            id: Some(session),
            session,
            deadline_ms: None,
        }
        .to_json()
    };

    let mut live: std::collections::VecDeque<u64> = std::collections::VecDeque::new();
    let mut commits = 0;
    let mut releases = 0;
    let release_oldest = |live: &mut std::collections::VecDeque<u64>,
                          send: &mut dyn FnMut(&str) -> ResponseBody| {
        let session = live.pop_front().unwrap();
        match send(&release_line(session)) {
            ResponseBody::Released { session: s, .. } => assert_eq!(s, session),
            other => panic!("release of committed session {session} answered {other:?}"),
        }
    };

    for s in 0..sessions {
        let session = (client * sessions + s) as u64 + 1;
        let source = (client * 5 + s * 3) % NODES;
        let dest = (source + 3 + s % 4) % NODES;
        let mut req = EmbedRequest::new(source, vec![dest], vec![s % 3, (s + 1) % 3]);
        req.id = Some(session);
        req.mode = Some(RequestMode::Commit);
        match send(&req.to_json()) {
            ResponseBody::Ok {
                committed: true, ..
            } => {
                commits += 1;
                live.push_back(session);
            }
            ResponseBody::Error(e) => assert!(
                matches!(
                    e.code,
                    ErrorCode::InsufficientCapacity | ErrorCode::Infeasible
                ),
                "unexpected rejection: {e:?}"
            ),
            other => panic!("unexpected commit answer {other:?}"),
        }
        if live.len() > WINDOW {
            release_oldest(&mut live, &mut send);
            releases += 1;
        }
    }
    // Departure tail: drain the window.
    while !live.is_empty() {
        release_oldest(&mut live, &mut send);
        releases += 1;
    }
    (commits, releases)
}

fn soak(sessions_per_client: usize, capacity: f64) {
    let seed = ring_network(capacity);
    let svc = EmbedService::with_defaults(seed.clone());
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

    let totals: Vec<(usize, usize)> = std::thread::scope(|scope| {
        (0..CLIENTS)
            .map(|c| scope.spawn(move || churn_client(addr, c, sessions_per_client)))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| t.join().unwrap())
            .collect()
    });
    handle.shutdown();
    handle.join();

    let commits: usize = totals.iter().map(|&(c, _)| c).sum();
    let releases: usize = totals.iter().map(|&(_, r)| r).sum();
    assert_eq!(commits, releases, "every committed session departed");
    assert!(
        commits >= sessions_per_client,
        "the soak must actually commit sessions, got {commits}"
    );

    let stats = handle.stats();
    assert_eq!(stats.commits, commits as u64);
    assert_eq!(stats.releases, releases as u64);

    // The leak-proof contract: bit-identical to the seed, per node.
    let network = handle.network();
    assert_eq!(
        network.deployment_refcounts(),
        seed.deployment_refcounts(),
        "instances leaked or stranded after full churn"
    );
    for v in 0..NODES {
        assert_eq!(
            network.residual_capacity(NodeId(v)),
            seed.residual_capacity(NodeId(v)),
            "node {v} residual drifted from seed"
        );
    }

    // The mixed log replays serially to the same (seed) state.
    let log = handle.commit_log();
    assert_eq!(log.len(), commits + releases, "one record per transaction");
    let mut replay = ring_network(capacity);
    for record in &log {
        match record.op {
            LedgerOp::Commit => replay.apply_delta(&record.delta()).unwrap(),
            LedgerOp::Release => {
                replay.apply_release(&record.delta()).unwrap();
            }
        }
    }
    assert_eq!(
        replay.deployment_refcounts(),
        network.deployment_refcounts()
    );
    for v in 0..NODES {
        assert_eq!(
            replay.residual_capacity(NodeId(v)),
            network.residual_capacity(NodeId(v)),
        );
    }
}

/// The CI soak: thousands of sessions through 4 workers on a network
/// tight enough that shared instances and admission rejections both
/// occur, yet the books return exactly to the seed. Debug builds run a
/// lighter horizon so the default test suite stays quick; the CI churn
/// job runs this under `--release` for the full two thousand.
#[test]
fn thousands_of_sessions_return_the_network_to_its_seed() {
    soak(if cfg!(debug_assertions) { 100 } else { 500 }, 3.0);
}

/// A tighter network bounces more arrivals; the sessions that do commit
/// must still round-trip exactly.
#[test]
fn tight_capacity_churn_stays_leak_free() {
    soak(60, 1.0);
}
