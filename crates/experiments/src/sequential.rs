//! Sequential arrivals with instance accretion (§IV-D at scale).
//!
//! The paper's "network with deployed VNFs" situation arises from running
//! tasks one after another while instances stay deployed. [`run`] commits
//! a random task stream in arrival order through the in-process server
//! ([`ServerHandle::inline`], the same admission and commit code as
//! `sft serve`), and [`commit`] reads each task's new and reused instance
//! counts off its commit's ledger record, so the reuse benefit can be
//! measured across the stream.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sft_service::protocol::{EmbedRequest, Request, RequestMode, ResponseBody, WireError};
use sft_service::{EmbedService, ServerConfig, ServerHandle};
use sft_topology::{generate, ScenarioConfig};

/// What one committed task cost and placed.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct TaskRecord {
    /// Final traffic delivery cost.
    pub cost: f64,
    /// Setup component of the cost (shrinks as the network fills).
    pub setup: f64,
    /// Instances the task deployed.
    pub new_instances: usize,
    /// Deployed instances the task reused.
    pub reused_instances: usize,
}

/// Commits `request` through `server` and reads the task's instance
/// split off its commit's ledger record: the ledger partitions the
/// embedding's `(VNF, node)` pairs by whether each was deployed before
/// the commit.
///
/// # Errors
///
/// The wire error the commit was refused with; nothing was committed.
pub fn commit(server: &ServerHandle, mut request: EmbedRequest) -> Result<TaskRecord, WireError> {
    request.mode = Some(RequestMode::Commit);
    match server.answer(Request::Embed(request)).body {
        ResponseBody::Ok { setup, link, .. } => {
            let record = server.commit_log().pop().expect("a commit is logged");
            Ok(TaskRecord {
                cost: setup + link,
                setup,
                new_instances: record.deploys.len(),
                reused_instances: record.refs.len(),
            })
        }
        ResponseBody::Error(e) => Err(e),
        other => unreachable!("a commit answers ok or error, not {other:?}"),
    }
}

/// Fraction of instance uses that were reuses across `records` (0.0 when
/// there are none).
pub fn reuse_ratio(records: &[TaskRecord]) -> f64 {
    let (new, reused) = records.iter().fold((0, 0), |(n, r), t| {
        (n + t.new_instances, r + t.reused_instances)
    });
    if new + reused == 0 {
        0.0
    } else {
        reused as f64 / (new + reused) as f64
    }
}

/// The experiment's stream: `tasks` random tasks over a shared 8-type
/// catalog (random source, 4–8 destinations, a random 4-chain), committed
/// in arrival order on a fresh 80-node network with **no**
/// pre-deployments, so all reuse is created by the stream itself. One
/// outcome per task.
pub fn run(tasks: usize) -> Vec<Result<TaskRecord, WireError>> {
    let config = ScenarioConfig {
        network_size: 80,
        deployed_density: 0.0,
        catalog_size: 8,
        dest_ratio: 0.1,
        sfc_len: 4,
        ..ScenarioConfig::default()
    };
    let scenario = generate(&config, 12).expect("scenario generation");
    let n = scenario.network.node_count();
    let server = ServerHandle::inline(
        EmbedService::with_defaults(scenario.network),
        ServerConfig::default(),
    );
    let mut rng = StdRng::seed_from_u64(99);
    (0..tasks)
        .map(|t| {
            let source = rng.random_range(0..n);
            let mut dests = Vec::new();
            let want = 4 + rng.random_range(0..5usize);
            while dests.len() < want {
                let d = rng.random_range(0..n);
                if d != source && !dests.contains(&d) {
                    dests.push(d);
                }
            }
            let mut types: Vec<usize> = (0..8).collect();
            for i in 0..4 {
                let j = rng.random_range(i..8);
                types.swap(i, j);
            }
            let mut request = EmbedRequest::new(source, dests, types[..4].to_vec());
            request.id = Some(t as u64);
            commit(&server, request)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use sft_core::{Network, VnfCatalog};
    use sft_graph::{Graph, NodeId};

    fn ring_server(n: usize, capacity: f64) -> ServerHandle {
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_edge(NodeId(i), NodeId((i + 1) % n), 1.0).unwrap();
        }
        let network = Network::builder(g, VnfCatalog::uniform(3))
            .all_servers(capacity)
            .unwrap()
            .uniform_setup_cost(3.0)
            .unwrap()
            .build()
            .unwrap();
        ServerHandle::inline(
            EmbedService::with_defaults(network),
            ServerConfig::default(),
        )
    }

    fn random_request<R: Rng>(n: usize, rng: &mut R) -> EmbedRequest {
        let source = rng.random_range(0..n);
        let mut dests = Vec::new();
        while dests.len() < 2 {
            let d = rng.random_range(0..n);
            if d != source && !dests.contains(&d) {
                dests.push(d);
            }
        }
        EmbedRequest::new(source, dests, vec![0, 1])
    }

    #[test]
    fn instances_accrete_and_reuse_grows() {
        let server = ring_server(10, 3.0);
        let mut rng = StdRng::seed_from_u64(5);
        let history: Vec<TaskRecord> = (0..8)
            .map(|_| commit(&server, random_request(10, &mut rng)).unwrap())
            .collect();
        // Later tasks must reuse: the ring only has 2 chain types deployed
        // everywhere after a few tasks.
        let ratio = reuse_ratio(&history);
        assert!(ratio > 0.3, "reuse ratio {ratio}");
        let first_setup = history[0].setup;
        let last_setup = history.last().unwrap().setup;
        assert!(last_setup <= first_setup, "setup must not grow over time");
    }

    #[test]
    fn repeating_the_same_task_pays_setup_once() {
        let server = ring_server(8, 2.0);
        let request = EmbedRequest::new(0, vec![3, 5], vec![0, 1]);
        let first = commit(&server, request.clone()).unwrap();
        assert!(first.setup > 0.0);
        let second = commit(&server, request).unwrap();
        assert_eq!(second.setup, 0.0, "second run reuses everything");
        assert!(second.cost <= first.cost);
        assert_eq!(second.new_instances, 0);
    }

    #[test]
    fn failure_leaves_network_unchanged() {
        // Zero capacity: the commit must be refused and change nothing.
        let server = ring_server(6, 0.0);
        assert!(commit(&server, EmbedRequest::new(0, vec![2], vec![0])).is_err());
        assert!(server.commit_log().is_empty());
        assert_eq!(reuse_ratio(&[]), 0.0);
        let network = server.network();
        for v in network.graph().nodes() {
            assert_eq!(network.deployed_load(v), 0.0);
        }
    }
}
