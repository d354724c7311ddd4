//! Session-lifecycle contract, end to end over the socket: commits that
//! register sessions and releases that tear them down must round-trip to
//! a byte-identical network.
//!
//! * **commit;release round trip** — after every session is released (in
//!   an arbitrary order), residuals, deployed pairs, and per-instance
//!   refcounts all match the seed network exactly — no capacity leak, no
//!   stranded instance, including instances *shared* by several sessions
//!   (freed only with the last holder);
//! * **mixed-log determinism** — serially replaying the commit log
//!   (`Commit` deltas via `apply_delta`, `Release` deltas via
//!   `apply_release`) onto an identically-built network reproduces the
//!   live state bit-for-bit at any point, not just after full drain.

use proptest::prelude::*;
use sft::core::{Network, VnfCatalog};
use sft::graph::{Graph, NodeId};
use sft::service::protocol::{parse_response, EmbedRequest, Request, RequestMode, ResponseBody};
use sft::service::{serve, EmbedService, LedgerOp, ServerConfig, PROTOCOL_VERSION};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

const NODES: usize = 12;

/// Uniform catalog (unit demands) on an asymmetric ring, as in the
/// commit-storm suite: accounting is exact in f64.
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

/// One client connection to a fresh server; sends each line, returns each
/// response body in order.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        let writer = stream.try_clone().unwrap();
        Client {
            writer,
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, line: &str) -> ResponseBody {
        writeln!(self.writer, "{line}").unwrap();
        self.writer.flush().unwrap();
        let mut response = String::new();
        self.reader.read_line(&mut response).unwrap();
        parse_response(response.trim()).unwrap().body
    }

    fn commit(&mut self, session: u64, source: usize, dests: Vec<usize>, sfc: Vec<usize>) -> bool {
        self.commit_bw(session, source, dests, sfc, None)
    }

    fn commit_bw(
        &mut self,
        session: u64,
        source: usize,
        dests: Vec<usize>,
        sfc: Vec<usize>,
        bandwidth: Option<f64>,
    ) -> bool {
        let mut req = EmbedRequest::new(source, dests, sfc);
        req.id = Some(session);
        req.mode = Some(RequestMode::Commit);
        req.bandwidth = bandwidth;
        matches!(
            self.send(&req.to_json()),
            ResponseBody::Ok {
                committed: true,
                ..
            }
        )
    }

    fn release(&mut self, session: u64) -> ResponseBody {
        let req = Request::Release {
            v: PROTOCOL_VERSION,
            id: Some(session),
            session,
            deadline_ms: None,
        };
        self.send(&req.to_json())
    }
}

/// Replays `handle`'s commit log serially onto a fresh seed and asserts
/// the result is bit-identical to the live network.
fn assert_replay_identical(handle: &sft::service::ServerHandle, capacity: f64) {
    let mut replay = ring_network(capacity);
    for record in &handle.commit_log() {
        match record.op {
            LedgerOp::Commit => replay.apply_delta(&record.delta()).unwrap(),
            LedgerOp::Release => {
                replay.apply_release(&record.delta()).unwrap();
            }
        }
    }
    let live = handle.network();
    assert_eq!(
        replay.deployment_refcounts(),
        live.deployment_refcounts(),
        "replayed refcounts diverge"
    );
    for v in 0..NODES {
        assert_eq!(
            replay.residual_capacity(NodeId(v)),
            live.residual_capacity(NodeId(v)),
            "node {v} residual diverges under replay"
        );
    }
}

/// Commits `sessions` tasks, releases them in an order derived from
/// `order_seed`, and checks the replay + round-trip contracts.
fn round_trip(sessions: usize, capacity: f64, order_seed: usize) {
    let seed = ring_network(capacity);
    let svc = EmbedService::with_defaults(seed.clone());
    let mut handle = serve(svc, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr().unwrap());

    let mut committed = Vec::new();
    for s in 0..sessions {
        let source = (s * 5 + order_seed) % NODES;
        let dest = (source + 3 + s % 2) % NODES;
        // Admission may reject on a tight network — only committed
        // sessions owe a release.
        if client.commit(s as u64 + 1, source, vec![dest], vec![s % 3, (s + 1) % 3]) {
            committed.push(s as u64 + 1);
        }
    }
    assert!(!committed.is_empty(), "at least one session must commit");
    assert_replay_identical(&handle, capacity);

    // Release in a shuffled order (deterministic in order_seed).
    let mut order = committed.clone();
    for i in (1..order.len()).rev() {
        order.swap(i, (order_seed * 7 + i * 13) % (i + 1));
    }
    for (done, &session) in order.iter().enumerate() {
        match client.release(session) {
            ResponseBody::Released { session: s, .. } => assert_eq!(s, session),
            other => panic!("release of {session} answered {other:?}"),
        }
        // Replay must match live state mid-drain, not just at the end.
        if done == order.len() / 2 {
            assert_replay_identical(&handle, capacity);
        }
    }

    // Full drain: the network is byte-identical to the seed again.
    let network = handle.network();
    assert_eq!(
        network.deployment_refcounts(),
        seed.deployment_refcounts(),
        "instances leaked or stranded"
    );
    assert_eq!(network.deployed_pairs(), seed.deployed_pairs());
    for v in 0..NODES {
        assert_eq!(
            network.residual_capacity(NodeId(v)),
            seed.residual_capacity(NodeId(v)),
            "node {v} residual did not return to seed"
        );
    }
    assert_replay_identical(&handle, capacity);

    handle.shutdown();
    handle.join();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn commit_release_round_trips_to_the_seed_network(
        sessions in 1usize..8,
        capacity in 1u32..4,
        order_seed in 0usize..64,
    ) {
        round_trip(sessions, f64::from(capacity), order_seed);
    }
}

/// The same asymmetric ring with a uniform bandwidth capacity on every
/// link — the substrate for the edge-resource lifecycle contract below.
fn bw_ring(capacity: f64, link_bw: f64) -> Network {
    let mut g = Graph::new(NODES);
    for i in 0..NODES {
        g.add_edge_with_capacity(
            NodeId(i),
            NodeId((i + 1) % NODES),
            1.0 + (i % 3) as f64 * 0.2,
            Some(link_bw),
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

/// Non-negative residual on every link, live and replayed alike; the
/// replay additionally pins edge usage (used bandwidth *and* session
/// refcounts) bit-for-bit, and proves edge accounting never touches the
/// distance layer: the replay network solves nothing, so its distance
/// engine must still hold zero materialized rows afterwards.
fn assert_bw_replay_identical(handle: &sft::service::ServerHandle, capacity: f64, link_bw: f64) {
    let live = handle.network();
    for e in live.graph().edge_ids() {
        let residual = live.edge_residual(e);
        assert!(
            residual >= 0.0,
            "edge {e:?} oversubscribed: residual {residual}"
        );
        assert!(residual <= link_bw, "edge {e:?} over-freed: {residual}");
    }
    let mut replay = bw_ring(capacity, link_bw);
    for record in &handle.commit_log() {
        match record.op {
            LedgerOp::Commit => replay.apply_delta(&record.delta()).unwrap(),
            LedgerOp::Release => {
                replay.apply_release(&record.delta()).unwrap();
            }
        }
    }
    assert_eq!(replay.deployment_refcounts(), live.deployment_refcounts());
    for v in 0..NODES {
        assert_eq!(
            replay.residual_capacity(NodeId(v)),
            live.residual_capacity(NodeId(v)),
            "node {v} residual diverges under replay"
        );
    }
    assert_eq!(
        replay.edge_usage(),
        live.edge_usage(),
        "edge bandwidth/session accounting diverges under replay"
    );
    for e in live.graph().edge_ids() {
        assert_eq!(replay.edge_residual(e), live.edge_residual(e), "edge {e:?}");
    }
    assert_eq!(
        replay.dist().rows_materialized(),
        0,
        "pure delta replay must leave the distance rows untouched"
    );
}

/// A shuffled mix of bandwidth-demanding commits and releases: commits
/// and releases interleave in an order derived from `order_seed`, every
/// intermediate state keeps link residuals in `[0, link_bw]`, and the
/// mixed log replays to a bit-identical network — nodes, deployments,
/// and per-edge bandwidth alike. Full drain restores every link to its
/// seed bandwidth.
fn bw_round_trip(sessions: usize, capacity: f64, link_bw: f64, order_seed: usize) {
    let seed = bw_ring(capacity, link_bw);
    let svc = EmbedService::with_defaults(seed.clone());
    let mut handle = serve(svc, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr().unwrap());

    let mut live: Vec<u64> = Vec::new();
    for s in 0..sessions {
        let source = (s * 5 + order_seed) % NODES;
        let dest = (source + 3 + s % 2) % NODES;
        // Demands vary per session; a tight link_bw makes some commits
        // fail with a structured refusal instead of oversubscribing.
        let demand = 0.25 + 0.25 * (s % 4) as f64;
        if client.commit_bw(
            s as u64 + 1,
            source,
            vec![dest],
            vec![s % 3, (s + 1) % 3],
            Some(demand),
        ) {
            live.push(s as u64 + 1);
        }
        assert_bw_replay_identical(&handle, capacity, link_bw);
        // Interleave: sometimes tear down an earlier session mid-stream.
        if !live.is_empty() && (order_seed + s).is_multiple_of(3) {
            let victim = live.remove((order_seed * 11 + s * 7) % live.len());
            match client.release(victim) {
                ResponseBody::Released { session, .. } => assert_eq!(session, victim),
                other => panic!("release of {victim} answered {other:?}"),
            }
            assert_bw_replay_identical(&handle, capacity, link_bw);
        }
    }

    // Drain the remainder in a shuffled order.
    for i in (1..live.len()).rev() {
        live.swap(i, (order_seed * 7 + i * 13) % (i + 1));
    }
    for &session in &live {
        match client.release(session) {
            ResponseBody::Released {
                session: s,
                bw_freed,
                ..
            } => {
                assert_eq!(s, session);
                // Every committed tree crossed at least one capacitated
                // link, so its release always returns bandwidth.
                assert!(bw_freed > 0.0, "session {session} freed no bandwidth");
            }
            other => panic!("release of {session} answered {other:?}"),
        }
        assert_bw_replay_identical(&handle, capacity, link_bw);
    }

    // Full drain: every link is back at its seed bandwidth, exactly.
    let network = handle.network();
    for e in network.graph().edge_ids() {
        assert_eq!(
            network.edge_residual(e),
            link_bw,
            "edge {e:?} did not return to seed bandwidth"
        );
    }
    assert_eq!(network.edge_usage(), seed.edge_usage());
    assert_eq!(network.deployment_refcounts(), seed.deployment_refcounts());

    handle.shutdown();
    handle.join();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn bandwidth_lifecycle_keeps_links_exact_and_replayable(
        sessions in 1usize..8,
        capacity in 2u32..4,
        link_bw in 1u32..4,
        order_seed in 0usize..64,
    ) {
        bw_round_trip(sessions, f64::from(capacity), f64::from(link_bw), order_seed);
    }
}

/// The shared-instance refcount contract, pinned deterministically: two
/// sessions embedding the *same* task share instances (the second commit
/// reuses the first's deployments at zero setup cost), so the first
/// release must free nothing and the last release must free everything.
#[test]
fn shared_instances_survive_the_first_release_and_free_with_the_last() {
    let capacity = 3.0;
    let seed = ring_network(capacity);
    let svc = EmbedService::with_defaults(seed.clone());
    let mut handle = serve(svc, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr().unwrap());

    assert!(client.commit(1, 0, vec![3], vec![0, 1]));
    let after_first = handle.network();
    assert!(client.commit(2, 0, vec![3], vec![0, 1]));

    // Identical task: session 2 reused session 1's instances, so no new
    // pairs appeared and every shared pair carries refcount 2.
    let network = handle.network();
    assert_eq!(network.deployed_pairs(), after_first.deployed_pairs());
    assert!(network
        .deployment_refcounts()
        .iter()
        .all(|&(_, _, count)| count == 2));

    // First release: nothing freed, instances live on at refcount 1.
    match client.release(1) {
        ResponseBody::Released { freed, shared, .. } => {
            assert!(freed.is_empty(), "shared instances must survive: {freed:?}");
            assert!(shared > 0);
        }
        other => panic!("expected released, got {other:?}"),
    }
    assert_eq!(
        handle.network().deployment_refcounts(),
        after_first.deployment_refcounts(),
        "one release returns the refcounts to the single-session state"
    );

    // Last release: everything frees; the network is the seed again.
    match client.release(2) {
        ResponseBody::Released { freed, shared, .. } => {
            assert!(!freed.is_empty(), "the last holder frees the instances");
            assert_eq!(shared, 0);
        }
        other => panic!("expected released, got {other:?}"),
    }
    let network = handle.network();
    assert_eq!(network.deployment_refcounts(), seed.deployment_refcounts());
    assert_eq!(
        network.total_residual_capacity(),
        seed.total_residual_capacity()
    );
    assert_replay_identical(&handle, capacity);

    handle.shutdown();
    handle.join();
}
