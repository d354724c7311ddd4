//! The three workloads: their fixed topologies, the seeded request
//! streams, and the per-connection request sequencing shared by the
//! socket load and the in-process replay.
//!
//! The seed drives only the request streams. Each workload's topology is
//! fixed, so two seeds compare the same program on different inputs.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sft_core::{Network, VnfCatalog, VnfId};
use sft_graph::{Graph, NodeId};
use sft_service::protocol::{EmbedRequest, Request, RequestMode, PROTOCOL_VERSION};
use sft_topology::{palmetto, workload as scenario, ScenarioConfig};

/// Connections the load generator opens: one per core of the reference
/// two-core host. Fixed, so the workload is the same on every host.
pub const CONNECTIONS: usize = 2;

/// Request ids are cut into connection-local ranges: commit ids (which
/// are also session ids) start at `1 + conn * ID_STRIDE`, release
/// correlation ids at `RELEASE_ID_BASE + conn * ID_STRIDE`.
const ID_STRIDE: u64 = 1 << 32;
const RELEASE_ID_BASE: u64 = 1 << 48;
/// Ids of the warm-up quotes (one per pool group).
pub const WARMUP_ID_BASE: u64 = 1 << 60;
/// Session ids the handoff probe releases: never committed, so a worker
/// answers `unknown_session` without solving.
pub const PROBE_SESSION_BASE: u64 = 1 << 56;

/// Multicast groups in the fixed Palmetto pool: the recurring groups of
/// the repository's batch and socket benches (`DISTINCT_GROUPS` in
/// `crates/bench/benches/service_socket.rs`, scenario seeds `0..5`).
const PALMETTO_GROUPS: u64 = 5;
/// Live sessions each churn connection keeps before it starts releasing:
/// the sliding window of the repository's churn bench (`WINDOW` in
/// `crates/bench/benches/service_churn.rs`). Which live session leaves is
/// drawn by the seed.
const CHURN_WINDOW: usize = 6;

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    /// Goodput counts an answer only when its round trip is within this
    /// limit. Fixed per workload; quoted in `BENCHMARK.json`'s `why`.
    pub latency_limit_ms: f64,
    /// Requests each connection sends untimed at the start of an episode,
    /// before the clock starts.
    pub warmup_steps: usize,
    /// Requests each connection sends in one episode's timed window. A run
    /// repeats episodes, each on a fresh server with its own seeded
    /// streams, until `--seconds` of timed load: every episode does the
    /// same amount of work, so memory and cache state at its end do not
    /// depend on how fast the server is, and the run's medians pool
    /// several independent episodes.
    pub episode_steps: usize,
    pub kind: Kind,
}

pub enum Kind {
    /// Read-only quotes drawn from a fixed pool of recurring groups.
    Quote,
    /// Commit/release churn over a sliding window of live sessions.
    Churn {
        /// Per-session bandwidth demand drawn from `(0, max]`.
        bandwidth_max: Option<f64>,
        /// Per-session delay budget drawn from `(lo, hi]`.
        delay_budget: Option<(f64, f64)>,
    },
}

/// Why each workload exists (`BENCHMARK.json` carries the gated ones):
///
/// * `palmetto_quote` — quotes whose solves take under a millisecond from
///   a warm Steiner cache, so wire handling, admission and the
///   socket/queue hand-off are a large share. Exercises protocol, server,
///   admission (check only), service, msa, cache, opa and dense rows.
///   Bypasses the ledger, bandwidth views, lazy rows and delay repair: the
///   control workload for those layers. Latency limit 5 ms.
/// * `bw_churn` — the write path: admission's widest-link bound, ledger
///   validate/confirm, apply and release, and the only workload where
///   saturated links force solves through `Network::bandwidth_view`.
///   Bypasses lazy rows and delay repair. Latency limit 250 ms. Not gated
///   (see the crate docs).
/// * `lazy_delay_churn` — the only workload on lazy CSR distance rows and
///   on the λ-ladder delay repair; trees are rarely shared, so KMB runs
///   over freshly computed rows. Bypasses bandwidth views. Latency limit
///   100 ms.
pub fn by_name(name: &str) -> Option<Workload> {
    Some(match name {
        "palmetto_quote" => Workload {
            name: "palmetto_quote",
            latency_limit_ms: 5.0,
            warmup_steps: 0,
            episode_steps: 1000,
            kind: Kind::Quote,
        },
        "bw_churn" => Workload {
            name: "bw_churn",
            latency_limit_ms: 250.0,
            warmup_steps: 100,
            episode_steps: 1500,
            kind: Kind::Churn {
                bandwidth_max: Some(3.0),
                delay_budget: None,
            },
        },
        "lazy_delay_churn" => Workload {
            name: "lazy_delay_churn",
            latency_limit_ms: 100.0,
            // An episode ends with about 1950 of the 2000 distance rows
            // resident (1951 in the replay of seed 5's first episode), near
            // the 1872 of 2000 the workload was specified at. The warm-up
            // is the cold start, when nearly every solve computes rows: on
            // a two-core host it takes about 0.7 s, the 600 timed steps
            // after it about 0.85 s.
            warmup_steps: 100,
            episode_steps: 600,
            kind: Kind::Churn {
                bandwidth_max: None,
                delay_budget: Some((15.0, 30.0)),
            },
        },
        _ => return None,
    })
}

/// Everything `Network::build` needs, generated once; [`Recipe::build`]
/// is the timed part of set-up.
pub struct Recipe {
    graph: Graph,
    catalog: usize,
    servers: Vec<(NodeId, f64)>,
    setup_costs: SetupCosts,
    deploys: Vec<(VnfId, NodeId)>,
}

enum SetupCosts {
    Uniform(f64),
    PerPair(Vec<(VnfId, NodeId, f64)>),
}

impl Recipe {
    /// Builds the network exactly as the recipe's source did: servers,
    /// then setup costs, then pre-deployments, then `build`.
    pub fn build(&self) -> Network {
        let mut builder = Network::builder(self.graph.clone(), VnfCatalog::uniform(self.catalog));
        for &(v, capacity) in &self.servers {
            builder = builder
                .server(v, capacity)
                .expect("recipe servers are valid");
        }
        builder = match &self.setup_costs {
            SetupCosts::Uniform(cost) => builder
                .uniform_setup_cost(*cost)
                .expect("recipe setup cost is valid"),
            SetupCosts::PerPair(costs) => costs.iter().fold(builder, |b, &(f, v, c)| {
                b.setup_cost(f, v, c).expect("recipe setup costs are valid")
            }),
        };
        for &(f, v) in &self.deploys {
            builder = builder.deploy(f, v).expect("recipe deployments are valid");
        }
        builder.build().expect("recipe networks build")
    }

    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }
}

/// Palmetto under the paper's Table I settings (30 VNF types, capacity
/// 1–5, μ = 2, 30% pre-deployed), as `sft_topology::workload::on_graph`
/// generates it with scenario seed 0.
fn palmetto_recipe() -> Result<Recipe, String> {
    let config = ScenarioConfig::default();
    let generated = scenario::on_graph(palmetto::graph(), &config, 0)
        .map_err(|e| format!("palmetto scenario: {e}"))?
        .network;
    let n = generated.node_count();
    let catalog = generated.catalog().ids().count();
    let servers = (0..n)
        .map(NodeId)
        .filter(|&v| generated.is_server(v))
        .map(|v| (v, generated.capacity(v)))
        .collect();
    let costs = generated
        .catalog()
        .ids()
        .flat_map(|f| (0..n).map(move |v| (f, NodeId(v))))
        .map(|(f, v)| (f, v, generated.setup_cost(f, v)))
        .collect();
    let recipe = Recipe {
        graph: generated.graph().clone(),
        catalog,
        servers,
        setup_costs: SetupCosts::PerPair(costs),
        deploys: generated.deployed_pairs(),
    };
    let rebuilt = recipe.build();
    if rebuilt.deployment_refcounts() != generated.deployment_refcounts()
        || (0..n)
            .any(|v| rebuilt.residual_capacity(NodeId(v)) != generated.residual_capacity(NodeId(v)))
    {
        return Err("rebuilt Palmetto network differs from the generated scenario".into());
    }
    Ok(recipe)
}

/// A Waxman topology built the way `sft serve --topology <spec> --servers
/// 32` builds it: 3 VNF types, capacity 3 on 32 stride-spaced servers,
/// setup cost 1, distance mode chosen by size.
fn waxman_recipe(
    spec: &str,
    link_bw: Option<f64>,
    link_latency: Option<f64>,
) -> Result<Recipe, String> {
    use sft_cli::topology_spec;
    let mut graph = topology_spec::build(spec, 0).map_err(|e| e.0)?;
    if let Some(bw) = link_bw {
        topology_spec::apply_uniform_bandwidth(&mut graph, bw).map_err(|e| e.0)?;
    }
    if let Some(lat) = link_latency {
        topology_spec::apply_uniform_latency(&mut graph, lat).map_err(|e| e.0)?;
    }
    const SERVERS: usize = 32;
    let stride = graph.node_count() / SERVERS;
    Ok(Recipe {
        servers: (0..SERVERS).map(|i| (NodeId(i * stride), 3.0)).collect(),
        graph,
        catalog: 3,
        setup_costs: SetupCosts::Uniform(1.0),
        deploys: Vec::new(),
    })
}

/// The workload's fixed topology.
pub fn recipe(workload: &Workload) -> Result<Recipe, String> {
    match workload.name {
        "palmetto_quote" => palmetto_recipe(),
        // `sft serve --topology waxman:500:7 --servers 32 --link-bw 10`:
        // 500 nodes is below `LAZY_THRESHOLD`, so rows are dense.
        "bw_churn" => waxman_recipe("waxman:500:7", Some(10.0), None),
        // `sft serve --topology waxman:2000:7 --servers 32
        // --link-latency 2`: above the threshold, so rows are lazy.
        "lazy_delay_churn" => waxman_recipe("waxman:2000:7", None, Some(2.0)),
        other => Err(format!("no topology for workload `{other}`")),
    }
}

/// The fixed Palmetto group pool: the tasks of Table I scenarios with
/// seeds `0..PALMETTO_GROUPS` (|D|/|V| = 0.2, so 9 destinations; k = 5).
pub fn palmetto_pool() -> Result<Vec<EmbedRequest>, String> {
    let config = ScenarioConfig::default();
    (0..PALMETTO_GROUPS)
        .map(|seed| {
            let task = scenario::on_graph(palmetto::graph(), &config, seed)
                .map_err(|e| format!("palmetto group {seed}: {e}"))?
                .task;
            Ok(EmbedRequest::new(
                task.source().index(),
                task.destinations().iter().map(|d| d.index()).collect(),
                task.sfc().stages().iter().map(|f| f.index()).collect(),
            ))
        })
        .collect()
}

/// A request's JSON after its id: `line = {"v":1,"id":<id><rest>`. The
/// rest is serialized once, before the clock starts; sending only splices
/// in the id.
pub fn rest_after_id(req: &EmbedRequest) -> String {
    assert!(req.id.is_none(), "templates carry no id");
    let json = req.to_json();
    let head = format!("{{\"v\":{PROTOCOL_VERSION}");
    json.strip_prefix(&head)
        .expect("EmbedRequest::to_json starts with the version")
        .to_string()
}

/// The wire line (with its newline) for `rest` under `id`.
pub fn line_with_id(id: u64, rest: &str) -> String {
    format!("{{\"v\":{PROTOCOL_VERSION},\"id\":{id}{rest}\n")
}

/// One connection's generated input, fixed by the seed before the clock.
pub struct Plan {
    /// Quote workload: pool indices in send order.
    pub groups: Vec<u16>,
    /// Churn workload: commit request bodies (see [`rest_after_id`]).
    pub sessions: Vec<String>,
    /// Churn workload: one draw per release, picking the live session.
    pub choices: Vec<u32>,
}

/// The two connections' plans for one episode of `seed`, long enough for
/// the episode's warm-up and timed steps.
pub fn plans(workload: &Workload, recipe: &Recipe, seed: u64, episode: usize) -> Vec<Plan> {
    let n = recipe.node_count();
    // At most one new input per step.
    let len = workload.warmup_steps + workload.episode_steps;
    (0..CONNECTIONS)
        .map(|conn| {
            // One generator per episode and connection; the stream number
            // sits above any seed below 2^32, so seeds never share streams.
            let stream = (episode * CONNECTIONS + conn) as u64 + 1;
            let mut rng = StdRng::seed_from_u64(seed ^ (stream << 32));
            match &workload.kind {
                Kind::Quote => Plan {
                    groups: (0..len)
                        .map(|_| rng.random_range(0..PALMETTO_GROUPS as u16))
                        .collect(),
                    sessions: Vec::new(),
                    choices: Vec::new(),
                },
                Kind::Churn {
                    bandwidth_max,
                    delay_budget,
                } => {
                    let sessions = (0..len)
                        .map(|_| {
                            rest_after_id(&churn_session(
                                &mut rng,
                                n,
                                *bandwidth_max,
                                *delay_budget,
                            ))
                        })
                        .collect();
                    let choices = (0..len).map(|_| rng.random::<u32>()).collect();
                    Plan {
                        groups: Vec::new(),
                        sessions,
                        choices,
                    }
                }
            }
        })
        .collect()
}

/// One churn session: a random source, 1–4 distinct destinations, a chain
/// of 1–3 distinct VNF types in random order, and the optional demands.
fn churn_session(
    rng: &mut StdRng,
    n: usize,
    bandwidth_max: Option<f64>,
    delay_budget: Option<(f64, f64)>,
) -> EmbedRequest {
    let source = rng.random_range(0..n);
    let want = rng.random_range(1..=4);
    let mut dests = Vec::with_capacity(want);
    while dests.len() < want {
        let d = rng.random_range(0..n);
        if d != source && !dests.contains(&d) {
            dests.push(d);
        }
    }
    let mut types = vec![0usize, 1, 2];
    for i in (1..types.len()).rev() {
        types.swap(i, rng.random_range(0..=i));
    }
    types.truncate(rng.random_range(1..=3));
    let mut req = EmbedRequest::new(source, dests, types);
    req.mode = Some(RequestMode::Commit);
    // `random` draws from [0, 1), so `1 - u` is in (0, 1]: demands in
    // (0, max] and budgets in (lo, hi].
    req.bandwidth = bandwidth_max.map(|max| max * (1.0 - rng.random::<f64>()));
    req.delay_budget_ms = delay_budget.map(|(lo, hi)| hi - (hi - lo) * rng.random::<f64>());
    req
}

/// The next request of a connection's stream.
pub enum Step {
    /// A quote or commit; `group` is the pool index for quotes.
    Embed {
        id: u64,
        line: String,
        group: Option<usize>,
    },
    Release {
        id: u64,
        session: u64,
        line: String,
    },
}

/// The per-connection sequencing both the socket load and the replay
/// follow: quote the plan's groups in order, or commit sessions until the
/// window is full and then release a seed-chosen live one before the next
/// commit. Commits that are refused never enter the window.
pub struct Stream<'a> {
    conn: u64,
    plan: &'a Plan,
    /// Quote workload: the pool's request bodies; empty for churn.
    pool: &'a [String],
    next_input: usize,
    next_choice: usize,
    releases: u64,
    live: Vec<u64>,
}

impl<'a> Stream<'a> {
    pub fn new(conn: usize, plan: &'a Plan, pool: &'a [String]) -> Self {
        Stream {
            conn: conn as u64,
            plan,
            pool,
            next_input: 0,
            next_choice: 0,
            releases: 0,
            live: Vec::new(),
        }
    }

    /// The next request, or `None` once the generated input is used up.
    pub fn next(&mut self) -> Option<Step> {
        if !self.pool.is_empty() {
            let group = *self.plan.groups.get(self.next_input)? as usize;
            let id = self.commit_id(self.next_input);
            self.next_input += 1;
            return Some(Step::Embed {
                id,
                line: line_with_id(id, &self.pool[group]),
                group: Some(group),
            });
        }
        if self.live.len() >= CHURN_WINDOW {
            let choice = *self.plan.choices.get(self.next_choice)? as usize;
            self.next_choice += 1;
            let session = self.live.swap_remove(choice % self.live.len());
            return Some(self.release(session));
        }
        let rest = self.plan.sessions.get(self.next_input)?;
        let id = self.commit_id(self.next_input);
        self.next_input += 1;
        Some(Step::Embed {
            id,
            line: line_with_id(id, rest),
            group: None,
        })
    }

    /// Records that commit `id` was admitted: it joins the live window.
    pub fn committed(&mut self, id: u64) {
        self.live.push(id);
    }

    /// Releases every live session, oldest first.
    pub fn drain(&mut self) -> Vec<Step> {
        let live = std::mem::take(&mut self.live);
        live.into_iter().map(|s| self.release(s)).collect()
    }

    fn commit_id(&self, index: usize) -> u64 {
        1 + self.conn * ID_STRIDE + index as u64
    }

    fn release(&mut self, session: u64) -> Step {
        let id = RELEASE_ID_BASE + self.conn * ID_STRIDE + self.releases;
        self.releases += 1;
        Step::Release {
            id,
            session,
            line: release_line(id, session),
        }
    }
}

/// The wire line (with its newline) releasing `session`.
pub fn release_line(id: u64, session: u64) -> String {
    let mut line = Request::Release {
        v: PROTOCOL_VERSION,
        id: Some(id),
        session,
        deadline_ms: None,
    }
    .to_json();
    line.push('\n');
    line
}
