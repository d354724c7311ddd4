//! The `sft` subcommand implementations. Each returns the text to print.

use crate::args::{Args, ParseError};
use crate::topology_spec;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sft_core::ilp::IlpModel;
use sft_core::{
    viz, MulticastTask, Network, Parallelism, Sfc, SftTree, SolveOptions, StageTwo, Strategy,
    VnfCatalog, VnfId,
};
use sft_graph::{LazyDistances, NodeId};
use sft_lp::{BackendChoice, MipConfig};
use sft_service::protocol::{self, EmbedResponse, Request, RequestMode};
use sft_service::{AdmissionConfig, EmbedService, ServerConfig, ServerHandle, ServiceError};
use std::fmt::Write as _;
use std::io::{BufRead, Write as IoWrite};
use std::time::{Duration, Instant};

/// Builds the physical network every subcommand operates on — the one
/// place the `--topology`/`--capacity`/`--setup-cost`/`--sfc`/
/// `--servers` flags are interpreted. Returns the network and the
/// catalog size `k`.
fn build_network(args: &Args) -> Result<(Network, usize), ParseError> {
    let seed: u64 = args.parse_or("seed", 0)?;
    let mut graph = topology_spec::build(args.require("topology")?, seed)?;
    // --link-bw puts a uniform bandwidth capacity on every edge of any
    // topology family; without it (and without a capacitated spec such
    // as waxman:<n>:<seed>:<bw>) links stay uncapacitated and the whole
    // stack behaves bit-identically to the legacy node-only model.
    if let Some(raw) = args.get("link-bw") {
        let bw: f64 = raw
            .parse()
            .map_err(|_| ParseError(format!("cannot parse --link-bw value `{raw}`")))?;
        topology_spec::apply_uniform_bandwidth(&mut graph, bw)?;
    }
    // --link-latency puts a uniform propagation latency on every edge;
    // without it (and without a latency-bearing spec such as
    // waxman:<n>:<seed>:<bw>:<lat>) delay math falls back to edge
    // weights, so latency-free runs stay bit-identical to the legacy
    // cost-only model.
    if let Some(raw) = args.get("link-latency") {
        let lat: f64 = raw
            .parse()
            .map_err(|_| ParseError(format!("cannot parse --link-latency value `{raw}`")))?;
        topology_spec::apply_uniform_latency(&mut graph, lat)?;
    }
    let capacity: f64 = args.parse_or("capacity", 3.0)?;
    let setup_cost: f64 = args.parse_or("setup-cost", 1.0)?;
    let servers: usize = args.parse_or("servers", 0)?;
    let k: usize = args.parse_or("sfc", 3)?;
    if k == 0 {
        return Err(ParseError("--sfc must be at least 1".into()));
    }
    let n = graph.node_count();
    let mut builder = Network::builder(graph, VnfCatalog::uniform(k));
    builder = if servers == 0 || servers >= n {
        builder
            .all_servers(capacity)
            .map_err(|e| ParseError(e.to_string()))?
    } else {
        // Stride-spaced NFV points-of-presence: a small server subset is
        // what keeps the distance engine's working set independent of `n`.
        let stride = n / servers;
        for i in 0..servers {
            builder = builder
                .server(NodeId(i * stride), capacity)
                .map_err(|e| ParseError(e.to_string()))?;
        }
        builder
    };
    let network = builder
        .uniform_setup_cost(setup_cost)
        .map_err(|e| ParseError(e.to_string()))?
        .build()
        .map_err(|e| ParseError(e.to_string()))?;
    Ok((network, k))
}

/// Builds the network and task that `solve` / `exact` operate on.
fn setup(args: &Args) -> Result<(Network, MulticastTask), ParseError> {
    let (network, k) = build_network(args)?;
    let source = NodeId(args.parse_or("source", usize::MAX)?);
    if source.index() == usize::MAX {
        return Err(ParseError("missing required flag --source".into()));
    }
    let dests: Vec<NodeId> = args.parse_list("dests")?.into_iter().map(NodeId).collect();
    let sfc =
        Sfc::new((0..k).map(VnfId).collect::<Vec<_>>()).map_err(|e| ParseError(e.to_string()))?;
    let task = MulticastTask::new(source, dests, sfc).map_err(|e| ParseError(e.to_string()))?;
    // --delay-budget <ms>: cap the end-to-end source→destination delay of
    // every accepted route; solves that cannot meet it fail structurally.
    let task = match args.get("delay-budget") {
        None => task,
        Some(raw) => {
            let budget: f64 = raw
                .parse()
                .map_err(|_| ParseError(format!("cannot parse --delay-budget value `{raw}`")))?;
            task.with_delay_budget(budget)
                .map_err(|e| ParseError(e.to_string()))?
        }
    };
    Ok((network, task))
}

/// `sft info`: topology statistics.
///
/// # Errors
///
/// [`ParseError`] for bad flags or topology specs.
pub fn info(args: &Args) -> Result<String, ParseError> {
    let seed: u64 = args.parse_or("seed", 0)?;
    let graph = topology_spec::build(args.require("topology")?, seed)?;
    // The aggregates stream one Dijkstra row at a time, so `info` stays
    // viable at scale without an n x n matrix.
    let dist = LazyDistances::new(&graph);
    let mut out = String::new();
    let _ = writeln!(out, "nodes      : {}", graph.node_count());
    let _ = writeln!(out, "edges      : {}", graph.edge_count());
    let degrees: Vec<usize> = graph.nodes().map(|n| graph.degree(n)).collect();
    let _ = writeln!(
        out,
        "degree     : min {} / avg {:.2} / max {}",
        degrees.iter().min().unwrap_or(&0),
        degrees.iter().sum::<usize>() as f64 / degrees.len().max(1) as f64,
        degrees.iter().max().unwrap_or(&0)
    );
    let _ = writeln!(out, "connected  : {}", graph.is_connected());
    let _ = writeln!(out, "avg dist   : {:.2} (l_G)", dist.average_distance());
    let _ = writeln!(out, "diameter   : {:.2}", dist.diameter());
    Ok(out)
}

/// `sft solve`: run the two-stage embedding.
///
/// # Errors
///
/// [`ParseError`] for bad flags, topology specs, or solve failures.
pub fn solve(args: &Args) -> Result<String, ParseError> {
    let (network, task) = setup(args)?;
    let strategy = match args.get("strategy").unwrap_or("msa") {
        "msa" => Strategy::Msa,
        "sca" => Strategy::Sca,
        "rsa" => Strategy::Rsa,
        other => return Err(ParseError(format!("unknown strategy `{other}`"))),
    };
    let stage2 = if args.flag("no-opa") {
        StageTwo::Skip
    } else {
        StageTwo::Opa
    };
    let options = SolveOptions {
        strategy,
        stage_two: stage2,
        seed: args.parse_or("seed", 0)?,
        ..SolveOptions::default()
    };
    let start = Instant::now();
    let result =
        sft_core::solve(&network, &task, &options).map_err(|e| ParseError(e.to_string()))?;
    let ms = start.elapsed().as_secs_f64() * 1e3;

    let mut out = String::new();
    let _ = writeln!(out, "strategy   : {strategy:?} (stage 2: {stage2:?})");
    let _ = writeln!(out, "cost       : {:.2}", result.cost.total());
    let _ = writeln!(out, "  setup    : {:.2}", result.cost.setup);
    let _ = writeln!(out, "  links    : {:.2}", result.cost.link);
    let _ = writeln!(out, "stage1 cost: {:.2}", result.stage1_cost);
    if let (Some(delay), Some(budget)) = (result.max_path_delay, task.delay_budget()) {
        let _ = writeln!(out, "max delay  : {delay:.2} (budget {budget:.2})");
    }
    let _ = writeln!(out, "runtime    : {ms:.2} ms");
    let _ = writeln!(out, "chain      : {:?}", result.chain.placement);
    for (stage, node) in result.embedding.instances() {
        let f = task.sfc().stage(stage);
        let status = if network.is_deployed(f, node) {
            "reused"
        } else {
            "new"
        };
        let _ = writeln!(out, "instance   : stage {stage} on node {node} [{status}]");
    }
    let issues = sft_core::validate::validate(&network, &task, &result.embedding);
    let _ = writeln!(
        out,
        "validator  : {}",
        if issues.is_empty() { "OK" } else { "FAILED" }
    );

    if args.flag("stats") {
        let s = sft_core::EmbeddingStats::collect(&network, &task, &result.embedding)
            .map_err(|e| ParseError(e.to_string()))?;
        let _ = writeln!(out, "stats      :");
        let _ = writeln!(
            out,
            "  instances: {} used, {} new (reuse {:.0}%)",
            s.instances_used,
            s.instances_new,
            100.0 * s.reuse_ratio()
        );
        let _ = writeln!(
            out,
            "  hops     : mean {:.1}, max {}",
            s.mean_route_hops, s.max_route_hops
        );
        let _ = writeln!(out, "  branching: {}", s.is_branching);
        let per_seg: Vec<String> = s
            .segment_link_costs
            .iter()
            .map(|c| format!("{c:.1}"))
            .collect();
        let _ = writeln!(out, "  segments : [{}]", per_seg.join(", "));
        let _ = writeln!(out, "  per stage: {:?}", &s.instances_per_stage[1..]);
    }

    if let Some(path) = args.get("dot") {
        let dot = viz::embedding_dot(&network, &task, &result.embedding)
            .map_err(|e| ParseError(e.to_string()))?;
        std::fs::write(path, dot).map_err(|e| ParseError(format!("cannot write {path}: {e}")))?;
        let _ = writeln!(out, "dot        : wrote {path}");
    }
    if let Some(path) = args.get("sft-dot") {
        let tree =
            SftTree::extract(&task, &result.embedding).map_err(|e| ParseError(e.to_string()))?;
        std::fs::write(path, viz::sft_dot(&tree))
            .map_err(|e| ParseError(format!("cannot write {path}: {e}")))?;
        let _ = writeln!(out, "sft-dot    : wrote {path}");
    }
    Ok(out)
}

/// `sft exact`: heuristic + exact ILP with approximation ratio.
///
/// # Errors
///
/// [`ParseError`] for bad flags, oversized instances, or solver errors.
pub fn exact(args: &Args) -> Result<String, ParseError> {
    let (network, task) = setup(args)?;
    let heuristic = sft_core::solve(&network, &task, &SolveOptions::default())
        .map_err(|e| ParseError(e.to_string()))?;

    let model = IlpModel::build(&network, &task).map_err(|e| ParseError(e.to_string()))?;
    let backend: BackendChoice = args.parse_or("lp-backend", BackendChoice::Auto)?;
    let mip = MipConfig {
        max_nodes: args.parse_or("max-nodes", 4000)?,
        time_limit: Some(Duration::from_secs(args.parse_or("time-limit", 120)?)),
        warm_start: model.warm_start(&network, &task, &heuristic.embedding),
        backend,
        ..MipConfig::default()
    };
    let start = Instant::now();
    let outc = model
        .solve(&network, &task, &mip)
        .map_err(|e| ParseError(e.to_string()))?;
    let ms = start.elapsed().as_secs_f64() * 1e3;

    let mut out = String::new();
    let _ = writeln!(out, "heuristic  : {:.2}", heuristic.cost.total());
    let _ = writeln!(
        out,
        "ILP        : {} variables, {} constraints",
        model.problem().var_count(),
        model.problem().constraint_count()
    );
    let _ = writeln!(
        out,
        "status     : {:?} ({} B&B nodes, {ms:.1} ms)",
        outc.status, outc.nodes
    );
    let _ = writeln!(out, "lp backend : {backend} ({})", outc.lp_stats);
    match outc.objective {
        Some(obj) => {
            let _ = writeln!(out, "optimum    : {obj:.2}");
            let _ = writeln!(
                out,
                "ratio      : {:.4}",
                heuristic.cost.total() / obj.max(1e-12)
            );
            let _ = writeln!(out, "bound      : {:.2}", outc.bound);
        }
        None => {
            let _ = writeln!(
                out,
                "optimum    : not found within budget (bound {:.2})",
                outc.bound
            );
        }
    }
    Ok(out)
}

/// Builds the long-running service `batch` / `serve` operate on. `--sfc`
/// sets the catalog size (each JSONL task names its own chain from types
/// `0..k`).
fn build_service(args: &Args) -> Result<EmbedService, ParseError> {
    let (network, _k) = build_network(args)?;
    let strategy = match args.get("strategy").unwrap_or("msa") {
        "msa" => Strategy::Msa,
        "sca" => Strategy::Sca,
        other => {
            return Err(ParseError(format!(
                "unknown service strategy `{other}` (msa or sca)"
            )))
        }
    };
    let options = SolveOptions {
        stage_two: if args.flag("no-opa") {
            StageTwo::Skip
        } else {
            StageTwo::Opa
        },
        parallelism: Parallelism::new(args.parse_or("threads", 0usize)?),
        ..SolveOptions::default()
    };
    let svc =
        EmbedService::new(network, strategy, options).map_err(|e| ParseError(e.to_string()))?;
    Ok(match args.get("cache-cap") {
        Some(raw) => {
            let cap: usize = raw
                .parse()
                .map_err(|_| ParseError(format!("cannot parse --cache-cap value `{raw}`")))?;
            svc.with_cache_capacity(cap)
        }
        None => svc,
    })
}

/// Quotes a JSONL stream as one independent batch
/// ([`EmbedService::submit_batch`]) and renders one canonical protocol
/// response line per input line (id = the request's `id`, or its 1-based
/// line number), followed by the service statistics. Malformed or
/// infeasible lines are reported as structured error responses in place;
/// the stream keeps going.
fn quote_batch(svc: &EmbedService, text: &str) -> String {
    enum Line {
        Task { id: Option<u64>, index: usize },
        Done(EmbedResponse),
    }
    let mut tasks = Vec::new();
    let mut lines = Vec::new();
    for (lineno, parsed) in protocol::parse_stream(text) {
        let line_id = Some(lineno as u64);
        match parsed {
            Ok(Request::Embed(req)) => {
                let id = req.id.or(line_id);
                match req.to_task() {
                    Ok(task) => {
                        lines.push(Line::Task {
                            id,
                            index: tasks.len(),
                        });
                        tasks.push(task);
                    }
                    Err(e) => {
                        lines.push(Line::Done(EmbedResponse::failure(
                            id,
                            &ServiceError::Core(e),
                        )));
                    }
                }
            }
            Ok(Request::Shutdown { id, .. }) => {
                // A shutdown line ends the stream after what came before.
                lines.push(Line::Done(EmbedResponse::draining(id.or(line_id))));
                break;
            }
            // Independent quotes commit nothing, so there is no session
            // to release.
            Ok(Request::Release { id, .. }) => {
                lines.push(Line::Done(EmbedResponse::wire_failure(
                    id.or(line_id),
                    protocol::WireError {
                        code: protocol::ErrorCode::ParseError,
                        message: "an independent batch keeps no sessions; send release lines \
                                  to sft batch --mode sequential or sft serve"
                            .to_string(),
                    },
                )));
            }
            Err(e) => lines.push(Line::Done(EmbedResponse::wire_failure(line_id, e))),
        }
    }
    let results = svc.submit_batch(&tasks);
    let mut out = String::new();
    for line in lines {
        let resp = match line {
            Line::Task { id, index } => match &results[index] {
                Ok(r) => EmbedResponse::success(id, r, false),
                Err(e) => EmbedResponse::failure(id, e),
            },
            Line::Done(resp) => resp,
        };
        let _ = writeln!(out, "{}", resp.to_json());
    }
    let _ = writeln!(out, "\n{}", svc.stats().render().trim_end());
    out
}

/// `sft batch`: run a JSONL task file through one shared network.
/// `--mode sequential` (the default) answers the file line by line as
/// stdin `sft serve` would, with commit semantics; `--mode independent`
/// quotes every task against the starting network.
///
/// # Errors
///
/// [`ParseError`] for bad flags, topology specs, or an unreadable task
/// file. Per-task failures are reported inline, not as errors.
pub fn batch(args: &Args) -> Result<String, ParseError> {
    let svc = build_service(args)?;
    let path = args.require("tasks")?;
    let cannot_read = |e: std::io::Error| ParseError(format!("cannot read {path}: {e}"));
    match args.get("mode").unwrap_or("sequential") {
        "sequential" => {
            let file = std::fs::File::open(path).map_err(cannot_read)?;
            let config = ServerConfig {
                default_mode: RequestMode::Commit,
                ..ServerConfig::default()
            };
            let handle = ServerHandle::inline(svc, config);
            let mut out = Vec::new();
            handle.answer_lines(file, &mut out).map_err(cannot_read)?;
            let mut out = String::from_utf8(out).expect("response lines are UTF-8");
            let _ = writeln!(out, "\n{}", handle.stats().render().trim_end());
            Ok(out)
        }
        "independent" => {
            let text = std::fs::read_to_string(path).map_err(cannot_read)?;
            Ok(quote_batch(&svc, &text))
        }
        other => Err(ParseError(format!(
            "unknown mode `{other}` (sequential or independent)"
        ))),
    }
}

/// The server configuration of `sft serve`, on either channel: the
/// socket's worker pool, queue and commit retries, and the default
/// deadline and mode every request without its own gets.
fn server_config(args: &Args, default_mode: &str) -> Result<ServerConfig, ParseError> {
    Ok(ServerConfig {
        workers: args.parse_or("workers", 4usize)?.max(1),
        admission: AdmissionConfig {
            queue_bound: args.parse_or("queue-bound", 128usize)?,
            default_deadline_ms: args
                .get("deadline-ms")
                .map(|raw| {
                    raw.parse::<u64>().map_err(|_| {
                        ParseError(format!("cannot parse --deadline-ms value `{raw}`"))
                    })
                })
                .transpose()?,
            capacity_check: true,
        },
        default_mode: parse_request_mode(args.get("default-mode").unwrap_or(default_mode))?,
        commit_retries: args.parse_or("commit-retries", 3usize)?.max(1),
        defrag_every: args
            .get("defrag-every-ms")
            .map(|raw| {
                raw.parse::<u64>().map_err(|_| {
                    ParseError(format!("cannot parse --defrag-every-ms value `{raw}`"))
                })
            })
            .transpose()?
            .map(std::time::Duration::from_millis),
    })
}

/// The in-process server stdin `sft serve` answers through: commit is its
/// default mode.
fn stdin_server(args: &Args) -> Result<ServerHandle, ParseError> {
    Ok(ServerHandle::inline(
        build_service(args)?,
        server_config(args, "commit")?,
    ))
}

/// `sft serve --listen <addr>`: the socket front-end.
fn serve_socket(args: &Args, addr: &str) -> Result<String, ParseError> {
    let svc = build_service(args)?;
    let config = server_config(args, "quote")?;
    let mut handle = sft_service::serve(svc, addr, config)
        .map_err(|e| ParseError(format!("cannot listen on {addr}: {e}")))?;
    match handle.local_addr() {
        Some(a) => eprintln!("sft serve: listening on {a}"),
        None => eprintln!("sft serve: listening on {addr}"),
    }
    handle.join(); // until a client sends {"op":"shutdown"}
    Ok(format!("{}\n", handle.stats().render().trim_end()))
}

fn parse_request_mode(raw: &str) -> Result<RequestMode, ParseError> {
    match raw {
        "quote" => Ok(RequestMode::Quote),
        "commit" => Ok(RequestMode::Commit),
        other => Err(ParseError(format!(
            "unknown request mode `{other}` (quote or commit)"
        ))),
    }
}

/// `sft serve`: with `--listen <addr>`, serve the versioned protocol over
/// TCP (`host:port`) or a Unix socket (`unix:<path>`) until a client
/// sends `{"op":"shutdown"}`. Without it, stream JSONL request lines from
/// stdin, answering each as it arrives with commit semantics (each
/// success updates the network, the paper's §IV-D online regime). Both
/// channels answer through the same admission, commit and release code;
/// stdin answers one line at a time on this thread.
///
/// # Errors
///
/// [`ParseError`] for bad flags, topology specs, or stdin I/O failures.
pub fn serve(args: &Args) -> Result<String, ParseError> {
    if let Some(addr) = args.get("listen") {
        let addr = addr.to_string();
        return serve_socket(args, &addr);
    }
    let handle = stdin_server(args)?;
    handle
        .answer_lines(std::io::stdin().lock(), &mut std::io::stdout().lock())
        .map_err(|e| ParseError(format!("stream I/O error: {e}")))?;
    Ok(format!("\n{}\n", handle.stats().render().trim_end()))
}

/// `sft workload`: generate a long-horizon arrival/departure session
/// stream as protocol JSONL — Poisson arrivals (exponential
/// inter-arrival times at `--rate`), exponential holding times with mean
/// `--hold`, one commit-mode embed per arrival and one `release` op per
/// departure, merged in event-time order. Piping the output into
/// `sft serve` or `sft client` drives the full session lifecycle; over a
/// long horizon the offered load is `rate * hold` Erlangs, so residual
/// capacity fluctuates around a steady state instead of draining
/// monotonically. With `--bandwidth <max>` each session also carries a
/// per-session bandwidth demand drawn uniformly from `(0, max]` —
/// deterministic under `--seed`, and omitted entirely without the flag
/// so legacy streams stay byte-identical. With `--delay-budget <max>`
/// each session additionally carries a QoS delay budget drawn uniformly
/// from `(max/2, max]` milliseconds, under the same determinism and
/// omission rules.
///
/// # Errors
///
/// [`ParseError`] for bad flags or unsupported distribution names
/// (`--arrivals poisson` and `--holding exp` are the current models).
pub fn workload(args: &Args) -> Result<String, ParseError> {
    let (network, k) = build_network(args)?;
    let n = network.node_count();
    match args.get("arrivals").unwrap_or("poisson") {
        "poisson" => {}
        other => {
            return Err(ParseError(format!(
                "unknown arrival process `{other}` (poisson)"
            )))
        }
    }
    match args.get("holding").unwrap_or("exp") {
        "exp" => {}
        other => {
            return Err(ParseError(format!(
                "unknown holding distribution `{other}` (exp)"
            )))
        }
    }
    let count: usize = args.parse_or("count", 100)?;
    let rate: f64 = args.parse_or("rate", 1.0)?;
    let hold: f64 = args.parse_or("hold", 10.0)?;
    let positive = |x: f64| x.is_finite() && x > 0.0;
    if !positive(rate) || !positive(hold) {
        return Err(ParseError("--rate and --hold must be positive".into()));
    }
    let max_dests: usize = args.parse_or("dests", 3)?;
    if max_dests == 0 || max_dests >= n {
        return Err(ParseError(format!(
            "--dests must be in 1..{n} for this topology"
        )));
    }
    // --bandwidth <max>: give each session a per-session bandwidth demand
    // drawn uniformly from (0, max], deterministic under --seed. Without
    // the flag no demand is drawn and no `bandwidth` field is emitted, so
    // legacy streams stay byte-identical.
    let max_bandwidth: Option<f64> = args
        .get("bandwidth")
        .map(|raw| {
            raw.parse::<f64>()
                .ok()
                .filter(|b| b.is_finite() && *b > 0.0)
                .ok_or_else(|| ParseError(format!("cannot parse --bandwidth value `{raw}`")))
        })
        .transpose()?;
    // --delay-budget <max>: give each session a QoS delay budget drawn
    // uniformly from (max/2, max], deterministic under --seed. Budgets
    // come from their own split-off RNG stream, so adding the flag never
    // reshuffles the arrival/bandwidth draws; without it no budget is
    // drawn and no `delay_budget_ms` field is emitted, keeping legacy
    // streams byte-identical. The lower half is excluded so generated
    // workloads exercise the constraint without collapsing into
    // all-infeasible streams.
    let max_delay_budget: Option<f64> = args
        .get("delay-budget")
        .map(|raw| {
            raw.parse::<f64>()
                .ok()
                .filter(|b| b.is_finite() && *b > 0.0)
                .ok_or_else(|| ParseError(format!("cannot parse --delay-budget value `{raw}`")))
        })
        .transpose()?;
    let seed: u64 = args.parse_or("seed", 0)?;
    let mut rng = StdRng::seed_from_u64(seed);
    // A fixed offset keys the budget stream off the same --seed without
    // colliding with the main stream.
    let mut budget_rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    // Inverse-CDF exponential sampling; 1-u keeps the argument positive.
    let exp = |mean: f64, rng: &mut StdRng| -(1.0 - rng.random::<f64>()).ln() * mean;

    // (event time, tiebreak seq, line). A session's departure uses the
    // arrival's seq + count, so a zero holding time still orders the
    // release after its own commit.
    let mut events: Vec<(f64, usize, String)> = Vec::with_capacity(2 * count);
    let mut clock = 0.0;
    for i in 0..count {
        clock += exp(1.0 / rate, &mut rng);
        let session = i as u64 + 1;
        let source = rng.random_range(0..n);
        let mut others: Vec<usize> = (0..n).filter(|&v| v != source).collect();
        let dests = rng.random_range(1..=max_dests);
        for j in 0..dests {
            let pick = rng.random_range(j..others.len());
            others.swap(j, pick);
        }
        others.truncate(dests);
        let sfc: Vec<usize> = (0..rng.random_range(1..=k)).collect();
        let mut req = protocol::EmbedRequest::new(source, others, sfc);
        req.id = Some(session);
        req.mode = Some(RequestMode::Commit);
        if let Some(max) = max_bandwidth {
            // 1-u keeps the demand strictly positive; two-decimal rounding
            // keeps the JSONL readable, capped so it never exceeds `max`.
            let raw = max * (1.0 - rng.random::<f64>());
            req.bandwidth = Some(((raw * 100.0).ceil() / 100.0).min(max));
        }
        if let Some(max) = max_delay_budget {
            // Uniform over (max/2, max]: tight enough to bite, loose
            // enough that most sessions stay routable.
            let raw = max * (1.0 - 0.5 * budget_rng.random::<f64>());
            req.delay_budget_ms = Some(((raw * 100.0).ceil() / 100.0).min(max));
        }
        events.push((clock, i, req.to_json()));
        let release = Request::Release {
            v: protocol::PROTOCOL_VERSION,
            id: Some(count as u64 + session),
            session,
            deadline_ms: None,
        };
        events.push((clock + exp(hold, &mut rng), count + i, release.to_json()));
    }
    events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));

    let mut out = String::new();
    let bw_note = match max_bandwidth {
        Some(max) => format!(", bandwidth (0, {max}]"),
        None => String::new(),
    };
    let delay_note = match max_delay_budget {
        Some(max) => format!(", delay budget ({}, {max}] ms", max / 2.0),
        None => String::new(),
    };
    let _ = writeln!(
        out,
        "# {count} sessions, poisson arrivals (rate {rate}), exp holding (mean {hold}){bw_note}{delay_note}: {} Erlangs offered",
        rate * hold
    );
    for (_, _, line) in events {
        let _ = writeln!(out, "{line}");
    }
    Ok(out)
}

/// `sft client`: send a JSONL task file to a running `sft serve --listen`
/// server and print the responses ordered by id (ids default to 1-based
/// input line numbers, so the output lines up with `sft batch` on the
/// same file). Lines that fail to parse locally are reported as
/// structured error responses without being sent.
///
/// # Errors
///
/// [`ParseError`] for bad flags, an unreachable server, or connection I/O
/// failures. Per-request failures come back as structured responses, not
/// errors.
pub fn client(args: &Args) -> Result<String, ParseError> {
    let addr = args.require("connect")?;
    let path = args.require("tasks")?;
    let text = if path == "-" {
        let mut buf = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin(), &mut buf)
            .map_err(|e| ParseError(format!("cannot read stdin: {e}")))?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| ParseError(format!("cannot read {path}: {e}")))?
    };
    let override_mode = args.get("mode").map(parse_request_mode).transpose()?;
    let io_err = |e: std::io::Error| ParseError(format!("connection to {addr}: {e}"));
    let (reader, writer) = sft_service::connect(addr).map_err(io_err)?;
    let mut writer = std::io::BufWriter::new(writer);
    let mut responses = Vec::new();
    let mut expected = 0usize;
    for (lineno, parsed) in protocol::parse_stream(&text) {
        let line_id = Some(lineno as u64);
        match parsed {
            Ok(mut request) => {
                if let Request::Embed(req) = &mut request {
                    req.mode = req.mode.or(override_mode);
                }
                let request = request.with_default_id(line_id);
                writeln!(writer, "{}", request.to_json()).map_err(io_err)?;
                expected += 1;
            }
            Err(e) => responses.push(EmbedResponse::wire_failure(line_id, e)),
        }
    }
    writer.flush().map_err(io_err)?;
    let reader = std::io::BufReader::new(reader);
    for line in reader.lines().take(expected) {
        let line = line.map_err(io_err)?;
        let resp = protocol::parse_response(line.trim())
            .map_err(|e| ParseError(format!("bad response from {addr}: {e}")))?;
        responses.push(resp);
    }
    responses.sort_by_key(|r| r.id);
    let mut out = String::new();
    for resp in responses {
        let _ = writeln!(out, "{}", resp.to_json());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(cmdline: &str) -> Result<String, ParseError> {
        let argv: Vec<String> = cmdline.split_whitespace().map(String::from).collect();
        let args = Args::parse(&argv)?;
        match args.command.as_str() {
            "info" => info(&args),
            "solve" => solve(&args),
            "exact" => exact(&args),
            "batch" => batch(&args),
            "workload" => workload(&args),
            _ => unreachable!(),
        }
    }

    #[test]
    fn info_reports_palmetto_shape() {
        let out = run("info --topology palmetto").unwrap();
        assert!(out.contains("nodes      : 45"));
        assert!(out.contains("connected  : true"));
        assert!(out.contains("avg dist   : "), "{out}");
    }

    /// One solve runs on one thread, so `sft solve` takes no `--threads`
    /// and prints the same report run after run, on generated and
    /// committed topologies alike.
    #[test]
    fn solve_output_is_thread_count_invariant() {
        let strip = |s: &str| {
            s.lines()
                .filter(|line| !line.starts_with("runtime"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        for base in [
            "solve --topology waxman:40 --seed 2 --source 0 --dests 5,9 --sfc 2",
            "solve --topology palmetto --source 0 --dests 17,30,44 --sfc 2",
        ] {
            let one = run(base).unwrap();
            assert!(one.contains("validator  : OK"), "{one}");
            assert_eq!(strip(&one), strip(&run(base).unwrap()), "{base}");
            let err = run(&format!("{base} --threads 2")).unwrap_err();
            assert!(
                err.0.contains("--threads") && err.0.contains("sft solve"),
                "{err}"
            );
        }
    }

    #[test]
    fn solve_on_grid_validates() {
        let out = run("solve --topology grid:3x4 --source 0 --dests 7,11 --sfc 2").unwrap();
        assert!(out.contains("validator  : OK"), "{out}");
        assert!(out.contains("cost       :"));
        assert!(out.contains("instance   : stage 1"));
    }

    #[test]
    fn solve_reports_and_enforces_the_delay_budget() {
        let plain = run("solve --topology grid:3x4 --source 0 --dests 7,11 --sfc 2").unwrap();
        assert!(
            !plain.contains("max delay"),
            "budget-free solves keep the legacy report: {plain}"
        );
        let base = "solve --topology grid:3x4 --link-latency 1 --source 0 --dests 7,11 --sfc 2";
        let loose = run(&format!("{base} --delay-budget 50")).unwrap();
        assert!(loose.contains("validator  : OK"), "{loose}");
        assert!(loose.contains("max delay  :"), "{loose}");
        assert!(loose.contains("(budget 50.00)"), "{loose}");
        // Node 11 is five hops from the source at latency 1 per hop, so
        // half a unit of budget is structurally unreachable.
        let err = run(&format!("{base} --delay-budget 0.5")).unwrap_err();
        assert!(err.0.contains("delay budget"), "{err}");
        assert!(run(&format!("{base} --delay-budget -3")).is_err());
        assert!(run(&format!("{base} --delay-budget never")).is_err());
        assert!(
            run("solve --topology grid:3x4 --link-latency bad --source 0 --dests 7 --sfc 1")
                .is_err()
        );
    }

    #[test]
    fn solve_strategies_and_no_opa() {
        for strat in ["msa", "sca", "rsa"] {
            let out = run(&format!(
                "solve --topology er:25 --seed 3 --source 0 --dests 5,9 --sfc 2 --strategy {strat}"
            ))
            .unwrap();
            assert!(out.contains("validator  : OK"), "{strat}: {out}");
        }
        let out =
            run("solve --topology er:25 --seed 3 --source 0 --dests 5,9 --sfc 2 --no-opa").unwrap();
        assert!(out.contains("Skip"));
    }

    #[test]
    fn threads_flag_never_changes_the_answer() {
        // `sft batch --mode independent` is the flag's only reader.
        let dir = std::env::temp_dir().join("sft_cli_threads_flag");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("t.jsonl");
        std::fs::write(
            &file,
            "{\"source\": 0, \"dests\": [5, 9], \"sfc\": [0, 1]}\n\
             {\"source\": 3, \"dests\": [7, 12, 20], \"sfc\": [1, 2]}\n\
             {\"source\": 0, \"dests\": [5, 9], \"sfc\": [0, 1]}\n\
             {\"source\": 11, \"dests\": [2], \"sfc\": [2, 0, 1]}\n",
        )
        .unwrap();
        let batch = format!(
            "batch --topology er:25 --seed 3 --tasks {} --mode independent",
            file.display()
        );
        // The response lines must match verbatim; the stats block times.
        let responses = |threads: &str| {
            let out = run(&format!("{batch} --threads {threads}")).unwrap();
            let lines: Vec<String> = out
                .lines()
                .filter(|l| l.starts_with('{'))
                .map(String::from)
                .collect();
            assert_eq!(lines.len(), 4, "{out}");
            lines
        };
        let reference = responses("1");
        for threads in ["0", "2", "4"] {
            assert_eq!(reference, responses(threads), "--threads {threads}");
        }
        assert!(run(&format!("{batch} --threads x")).is_err());
        // One solve runs on one thread: `sft solve` has no such flag.
        let solve = "solve --topology er:25 --seed 3 --source 0 --dests 5,9 --sfc 2";
        assert!(run(&format!("{solve} --threads 1")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exact_certifies_small_instances() {
        let out = run("exact --topology grid:3x3 --source 0 --dests 8 --sfc 1").unwrap();
        assert!(out.contains("status     : Optimal"), "{out}");
        assert!(out.contains("ratio      : 1.0000"), "{out}");
        assert!(out.contains("lp backend : auto"), "{out}");
    }

    #[test]
    fn exact_backends_agree_on_the_optimum() {
        let base = "exact --topology palmetto:10 --source 0 --dests 6,9 --sfc 1";
        let mut optima = Vec::new();
        for backend in ["dense", "revised", "auto"] {
            let out = run(&format!("{base} --lp-backend {backend}")).unwrap();
            assert!(out.contains("status     : Optimal"), "{backend}: {out}");
            assert!(
                out.contains(&format!("lp backend : {backend}")),
                "{backend}: {out}"
            );
            let obj = out
                .lines()
                .find(|l| l.starts_with("optimum"))
                .and_then(|l| l.split(':').nth(1))
                .and_then(|v| v.trim().parse::<f64>().ok())
                .unwrap_or_else(|| panic!("{backend}: no optimum in {out}"));
            optima.push(obj);
        }
        for pair in optima.windows(2) {
            assert!((pair[0] - pair[1]).abs() < 1e-6, "{optima:?}");
        }
        assert!(run(&format!("{base} --lp-backend fancy")).is_err());
    }

    #[test]
    fn solve_rejects_bad_inputs_gracefully() {
        assert!(run("solve --topology grid:3x4 --dests 7").is_err()); // no source
        assert!(run("solve --topology grid:3x4 --source 0").is_err()); // no dests
        assert!(run("solve --topology nope --source 0 --dests 1").is_err());
        assert!(run("solve --topology grid:2x2 --source 0 --dests 3 --sfc 0").is_err());
        assert!(run("solve --topology grid:2x2 --source 0 --dests 3 --strategy magic").is_err());
    }

    #[test]
    fn stats_flag_prints_statistics() {
        let out = run("solve --topology grid:3x4 --source 0 --dests 7,11 --sfc 2 --stats").unwrap();
        assert!(out.contains("stats      :"), "{out}");
        assert!(out.contains("instances:"));
        assert!(out.contains("hops"));
        assert!(out.contains("segments"));
    }

    #[test]
    fn batch_runs_a_jsonl_stream_and_reports_stats() {
        let dir = std::env::temp_dir().join("sft_cli_batch_test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("tasks.jsonl");
        std::fs::write(
            &file,
            "# demo\n\
             {\"source\": 0, \"dests\": [7, 11], \"sfc\": [0, 1]}\n\
             {\"source\": 0, \"dests\": [7, 11], \"sfc\": [0, 1]}\n\
             {\"source\": 3, \"dests\": [8], \"sfc\": [2]}\n\
             not json at all\n",
        )
        .unwrap();
        for mode in ["sequential", "independent"] {
            let out = run(&format!(
                "batch --topology grid:3x4 --tasks {} --mode {mode}",
                file.display()
            ))
            .unwrap();
            // One canonical protocol response per input line, id = lineno.
            assert!(
                out.contains("{\"v\":1,\"id\":2,\"status\":\"ok\""),
                "{mode}: {out}"
            );
            assert!(
                out.contains("{\"v\":1,\"id\":5,\"status\":\"error\""),
                "{mode}: {out}"
            );
            assert!(out.contains("\"code\":\"parse_error\""), "{mode}: {out}");
            assert!(out.contains("tasks served   : 3"), "{mode}: {out}");
            // The duplicate task guarantees Steiner-cache hits.
            assert!(!out.contains("hit rate 0.0%"), "{mode}: {out}");
        }
        // Sequential mode commits, so the repeated task pays no setup.
        let seq = run(&format!(
            "batch --topology grid:3x4 --tasks {}",
            file.display()
        ))
        .unwrap();
        assert!(seq.contains("commits        : 3"), "{seq}");
        assert!(seq.contains("\"committed\":true"), "{seq}");
        assert!(
            seq.contains("\"id\":3,\"status\":\"ok\",\"cost\":{\"total\":"),
            "{seq}"
        );
        // Every response line parses back through the shared protocol.
        for line in seq.lines().take_while(|l| !l.is_empty()) {
            sft_service::parse_response(line).unwrap();
        }
        // A capacity-1 cache still serves the stream; evictions show up.
        let capped = run(&format!(
            "batch --topology grid:3x4 --tasks {} --cache-cap 1",
            file.display()
        ))
        .unwrap();
        assert!(capped.contains("tasks served   : 3"), "{capped}");
        assert!(!capped.contains(", 0 evictions"), "{capped}");
        assert!(run(&format!(
            "batch --topology grid:3x4 --tasks {} --cache-cap lots",
            file.display()
        ))
        .is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `--servers <n>` restricts VNF placement to a stride-spaced subset,
    /// which is what keeps the distance engine's working set independent of
    /// the substrate size: a quote touches rows for servers, sources and
    /// destinations, not all `n`.
    #[test]
    fn a_server_subset_keeps_the_lazy_working_set_small() {
        let dir = std::env::temp_dir().join("sft_cli_servers_test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("tasks.jsonl");
        std::fs::write(
            &file,
            "{\"source\": 3, \"dests\": [120, 199], \"sfc\": [0, 1]}\n",
        )
        .unwrap();
        let out = run(&format!(
            "batch --topology waxman:200 --seed 1 --servers 8 --tasks {}",
            file.display()
        ))
        .unwrap();
        assert!(out.contains("\"id\":1,\"status\":\"ok\""), "{out}");
        let line = out
            .lines()
            .find_map(|l| l.strip_prefix("distance layer : "))
            .unwrap_or_else(|| panic!("missing distance layer line: {out}"));
        let rows: usize = line
            .split(", ")
            .next()
            .and_then(|s| s.strip_suffix(" rows resident"))
            .expect("rows resident field")
            .parse()
            .unwrap();
        assert!(rows < 100, "working set should be << 200 rows: {line}");
        // 0 (and an over-count) fall back to every node being a server.
        let all = run(&format!(
            "batch --topology waxman:200 --seed 1 --servers 0 --tasks {}",
            file.display()
        ))
        .unwrap();
        assert!(all.contains("\"id\":1,\"status\":\"ok\""), "{all}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_rejects_bad_flags() {
        assert!(run("batch --topology grid:3x4").is_err()); // no --tasks
        assert!(run("batch --topology grid:3x4 --tasks /nonexistent.jsonl").is_err());
        let dir = std::env::temp_dir().join("sft_cli_batch_flags");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("t.jsonl");
        std::fs::write(&file, "{\"source\": 0, \"dests\": [3], \"sfc\": [0]}\n").unwrap();
        assert!(run(&format!(
            "batch --topology grid:2x2 --tasks {} --mode warp",
            file.display()
        ))
        .is_err());
        assert!(run(&format!(
            "batch --topology grid:2x2 --tasks {} --strategy rsa",
            file.display()
        ))
        .is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The in-process server stdin `sft serve` runs for `cmdline`.
    fn stdin_server_for(cmdline: &str) -> ServerHandle {
        let argv: Vec<String> = cmdline.split_whitespace().map(String::from).collect();
        stdin_server(&Args::parse(&argv).unwrap()).unwrap()
    }

    /// What stdin `sft serve` prints for `input`, response lines only.
    fn answers(handle: &ServerHandle, input: impl std::io::Read) -> String {
        let mut out = Vec::new();
        handle.answer_lines(input, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn stdin_serve_answers_each_line_and_survives_bad_ones() {
        let handle = stdin_server_for("serve --topology grid:3x4");
        let input = "{\"source\": 0, \"dests\": [7, 11], \"sfc\": [0, 1]}\n\
                     this is not json\n\
                     {\"source\": 0, \"dests\": [7, 11], \"sfc\": [0, 1]}\n\
                     {\"op\": \"shutdown\"}\n\
                     {\"source\": 3, \"dests\": [8], \"sfc\": [2]}\n";
        let out = answers(&handle, input.as_bytes());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "shutdown ends the stream: {out}");
        assert!(lines[0].contains("\"id\":1,\"status\":\"ok\""), "{out}");
        // The malformed line yields a structured error, not a dead stream.
        assert!(lines[1].contains("\"id\":2,\"status\":\"error\""), "{out}");
        assert!(lines[1].contains("\"code\":\"parse_error\""), "{out}");
        // The repeated committed task pays no setup the second time.
        assert!(lines[2].contains("\"setup\":0"), "{out}");
        assert!(lines[3].contains("\"status\":\"draining\""), "{out}");
        assert_eq!(handle.stats().commits, 2);
    }

    #[test]
    fn workload_bandwidth_flag_adds_deterministic_demands() {
        let base = "workload --topology grid:3x4 --count 15 --seed 4 --rate 2 --hold 3";
        let plain = run(base).unwrap();
        assert!(
            !plain.contains("bandwidth"),
            "legacy streams carry no bandwidth field: {plain}"
        );
        let capped = run(&format!("{base} --bandwidth 2.5")).unwrap();
        let mut demands = 0usize;
        for line in capped.lines().filter(|l| !l.starts_with('#')) {
            if let Request::Embed(req) = protocol::parse_request(line).unwrap() {
                let bw = req.bandwidth.expect("every session carries a demand");
                assert!(bw > 0.0 && bw <= 2.5, "demand out of range: {bw}");
                demands += 1;
            }
        }
        assert_eq!(demands, 15);
        assert_eq!(capped, run(&format!("{base} --bandwidth 2.5")).unwrap());
        assert_ne!(capped, run(&format!("{base} --bandwidth 1.0")).unwrap());
        assert!(run(&format!("{base} --bandwidth 0")).is_err());
        assert!(run(&format!("{base} --bandwidth lots")).is_err());
    }

    #[test]
    fn workload_delay_budget_flag_adds_deterministic_budgets() {
        let base = "workload --topology grid:3x4 --count 15 --seed 4 --rate 2 --hold 3";
        let plain = run(base).unwrap();
        assert!(
            !plain.contains("delay_budget_ms"),
            "legacy streams carry no delay budget field: {plain}"
        );
        let budgeted = run(&format!("{base} --delay-budget 20")).unwrap();
        let mut budgets = 0usize;
        for line in budgeted.lines().filter(|l| !l.starts_with('#')) {
            if let Request::Embed(req) = protocol::parse_request(line).unwrap() {
                let b = req.delay_budget_ms.expect("every session carries a budget");
                assert!(b > 10.0 && b <= 20.0, "budget out of range: {b}");
                budgets += 1;
            }
        }
        assert_eq!(budgets, 15);
        assert_eq!(budgeted, run(&format!("{base} --delay-budget 20")).unwrap());
        // Adding --delay-budget leaves the bandwidth stream untouched:
        // every session's demand matches the budget-free run's.
        let capped = run(&format!("{base} --bandwidth 2.5")).unwrap();
        let both = run(&format!("{base} --bandwidth 2.5 --delay-budget 20")).unwrap();
        let demands = |text: &str| -> Vec<f64> {
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| match protocol::parse_request(l).unwrap() {
                    Request::Embed(req) => req.bandwidth,
                    _ => None,
                })
                .collect()
        };
        assert_eq!(demands(&capped), demands(&both));
        assert!(run(&format!("{base} --delay-budget 0")).is_err());
        assert!(run(&format!("{base} --delay-budget soon")).is_err());
    }

    /// The narrow-link lifecycle on the stdin channel: with `--link-bw`
    /// saturating the only link, a second concurrent session is refused,
    /// and releasing the first (freeing its bandwidth on the wire as
    /// `bw_freed`) lets the same task commit again.
    #[test]
    fn link_bw_flag_saturates_refuses_and_recovers_on_release() {
        let handle = stdin_server_for("serve --topology grid:1x2 --link-bw 1");
        let input = "{\"id\": 1, \"source\": 0, \"dests\": [1], \"sfc\": [0], \"bandwidth\": 0.6}\n\
                     {\"id\": 2, \"source\": 0, \"dests\": [1], \"sfc\": [0], \"bandwidth\": 0.6}\n\
                     {\"op\": \"release\", \"session\": 1}\n\
                     {\"id\": 4, \"source\": 0, \"dests\": [1], \"sfc\": [0], \"bandwidth\": 0.6}\n";
        let out = answers(&handle, input.as_bytes());
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains("\"id\":1,\"status\":\"ok\""), "{out}");
        // The saturated link cannot carry a second 0.6 demand: refused,
        // not oversubscribed.
        assert!(lines[1].contains("\"status\":\"error\""), "{out}");
        assert!(
            lines[1].contains("\"code\":\"infeasible\"")
                || lines[1].contains("\"code\":\"insufficient_capacity\""),
            "{out}"
        );
        // Releasing session 1 reports its bandwidth back on the wire.
        assert!(lines[2].contains("\"status\":\"released\""), "{out}");
        assert!(lines[2].contains("\"bw_freed\":0.6"), "{out}");
        // The freed link admits the same demand again.
        assert!(lines[3].contains("\"id\":4,\"status\":\"ok\""), "{out}");
        let stats = handle.stats();
        assert_eq!(stats.link_edges, 1, "one capacitated edge");
        assert!(stats.render().contains("link util"), "{}", stats.render());
    }

    #[test]
    fn workload_emits_paired_commits_and_releases_in_event_order() {
        let out =
            run("workload --topology grid:3x4 --count 20 --seed 5 --rate 2 --hold 3").unwrap();
        let lines: Vec<&str> = out.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(lines.len(), 40, "{out}");
        let mut commits = 0usize;
        let mut releases = 0usize;
        let mut live = std::collections::BTreeSet::new();
        for line in &lines {
            match protocol::parse_request(line).unwrap() {
                Request::Embed(req) => {
                    assert_eq!(req.mode, Some(RequestMode::Commit), "{line}");
                    assert!(live.insert(req.id.unwrap()), "session ids are unique");
                    commits += 1;
                }
                Request::Release { session, .. } => {
                    assert!(live.remove(&session), "release follows its own commit");
                    releases += 1;
                }
                other => panic!("unexpected request {other:?}"),
            }
        }
        assert_eq!((commits, releases), (20, 20));
        assert!(live.is_empty(), "every session departs");
        // Deterministic under a seed; different under another.
        let again =
            run("workload --topology grid:3x4 --count 20 --seed 5 --rate 2 --hold 3").unwrap();
        assert_eq!(out, again);
        let other =
            run("workload --topology grid:3x4 --count 20 --seed 6 --rate 2 --hold 3").unwrap();
        assert_ne!(out, other);
        // Unsupported models are named errors, not silent fallbacks.
        assert!(run("workload --topology grid:3x4 --arrivals uniform").is_err());
        assert!(run("workload --topology grid:3x4 --holding pareto").is_err());
        assert!(run("workload --topology grid:3x4 --rate 0").is_err());
    }

    /// The leak-proof lifecycle end to end on the stdin channel: a full
    /// workload of arrivals and departures leaves the network exactly at
    /// its seed state once every session has departed.
    #[test]
    fn workload_through_stdin_serve_returns_to_the_seed_network() {
        let stream =
            run("workload --topology grid:3x4 --count 30 --seed 9 --rate 4 --hold 2").unwrap();
        let handle = stdin_server_for("serve --topology grid:3x4");
        let seed = handle.network();
        let out = answers(&handle, stream.as_bytes());
        let mut committed = 0usize;
        let mut released = 0usize;
        for line in out.lines() {
            let resp = sft_service::parse_response(line).unwrap();
            match resp.body {
                sft_service::ResponseBody::Ok { committed: c, .. } => committed += usize::from(c),
                sft_service::ResponseBody::Released { .. } => released += 1,
                ref other => panic!("unexpected body {other:?} in {line}"),
            }
        }
        assert_eq!(committed, 30, "{out}");
        assert_eq!(released, 30, "{out}");
        assert_eq!(
            handle.network().deployment_refcounts(),
            seed.deployment_refcounts()
        );
        assert_eq!(
            handle.network().total_residual_capacity(),
            seed.total_residual_capacity()
        );
        let stats = handle.stats();
        assert_eq!(stats.commits, 30);
        assert_eq!(stats.releases, 30);
    }

    /// A line that is not UTF-8 is refused like any malformed line, and
    /// the stream goes on, to a last line that stdin answers although no
    /// newline ends it.
    #[test]
    fn stdin_serve_refuses_a_non_utf8_line_and_serves_the_next() {
        let handle = stdin_server_for("serve --topology grid:3x4");
        let mut input = b"{\"source\": \xff\xfe}\n".to_vec();
        input.extend_from_slice(b"{\"source\": 0, \"dests\": [7, 11], \"sfc\": [0, 1]}");
        let out = answers(&handle, &input[..]);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out}");
        assert!(
            lines[0].contains("\"id\":1,\"status\":\"error\"")
                && lines[0].contains("\"code\":\"parse_error\""),
            "{out}"
        );
        assert!(lines[1].contains("\"id\":2,\"status\":\"ok\""), "{out}");
    }

    /// A reader that counts the bytes taken from it.
    struct Counted<'a, R>(R, &'a std::cell::Cell<u64>);

    impl<R: std::io::Read> std::io::Read for Counted<'_, R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.0.read(buf)?;
            self.1.set(self.1.get() + n as u64);
            Ok(n)
        }
    }

    /// A line over the 1 MiB cap is refused and ends the stream: the rest
    /// of it, and every later line, stays unread.
    #[test]
    fn stdin_serve_refuses_an_over_long_line_without_reading_it_whole() {
        use std::io::Read as _;
        let handle = stdin_server_for("serve --topology grid:3x4");
        let read = std::cell::Cell::new(0);
        let huge = std::io::repeat(b'x').take(64 << 20);
        let next = &b"\n{\"source\": 0, \"dests\": [7, 11], \"sfc\": [0, 1]}\n"[..];
        let out = answers(&handle, Counted(huge.chain(next), &read));
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 1, "{out}");
        assert!(lines[0].contains("\"id\":1,\"status\":\"error\""), "{out}");
        assert!(lines[0].contains("\"code\":\"parse_error\""), "{out}");
        assert!(lines[0].contains("exceeds"), "{out}");
        assert!(read.get() < 2 << 20, "read {} bytes", read.get());
        assert_eq!(handle.stats().tasks_served, 0);
    }

    /// A commit whose deadline has already passed when it is answered is
    /// refused `deadline_exceeded`, as on the socket, and changes nothing.
    #[test]
    fn stdin_serve_honours_a_zero_deadline() {
        let handle = stdin_server_for("serve --topology grid:3x4");
        let seed = handle.network();
        let out = answers(
            &handle,
            &b"{\"id\": 1, \"source\": 0, \"dests\": [7, 11], \"sfc\": [0, 1], \"deadline_ms\": 0}\n"[..],
        );
        assert!(out.contains("\"code\":\"deadline_exceeded\""), "{out}");
        let network = handle.network();
        assert_eq!(network.deployment_refcounts(), seed.deployment_refcounts());
        assert_eq!(
            network.total_residual_capacity(),
            seed.total_residual_capacity()
        );
        assert!(handle.commit_log().is_empty());
        assert_eq!(handle.stats().commits, 0);
    }

    /// Sequential `sft batch` keeps sessions: a release line tears down
    /// the session an earlier line committed.
    #[test]
    fn sequential_batch_serves_release_lines() {
        let dir = std::env::temp_dir().join("sft_cli_batch_release");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("tasks.jsonl");
        std::fs::write(
            &file,
            "{\"id\": 7, \"source\": 0, \"dests\": [7, 11], \"sfc\": [0, 1]}\n\
             {\"op\": \"release\", \"session\": 7}\n",
        )
        .unwrap();
        let out = run(&format!(
            "batch --topology grid:3x4 --tasks {}",
            file.display()
        ))
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains("\"id\":7,\"status\":\"ok\""), "{out}");
        assert!(
            lines[1].contains("\"id\":2,\"status\":\"released\",\"session\":7"),
            "{out}"
        );
        assert!(out.contains("releases       : 1"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn client_and_socket_serve_match_batch_output() {
        let dir = std::env::temp_dir().join("sft_cli_socket_test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("tasks.jsonl");
        std::fs::write(
            &file,
            "{\"source\": 0, \"dests\": [7, 11], \"sfc\": [0, 1]}\n\
             oops\n\
             {\"source\": 3, \"dests\": [8], \"sfc\": [2]}\n",
        )
        .unwrap();
        let batch = run(&format!(
            "batch --topology grid:3x4 --tasks {} --mode independent",
            file.display()
        ))
        .unwrap();
        let batch_lines: Vec<&str> = batch.lines().take_while(|l| !l.is_empty()).collect();

        let argv: Vec<String> = "serve --topology grid:3x4"
            .split_whitespace()
            .map(String::from)
            .collect();
        let svc = build_service(&Args::parse(&argv).unwrap()).unwrap();
        let mut handle =
            sft_service::serve(svc, "127.0.0.1:0", sft_service::ServerConfig::default()).unwrap();
        let addr = handle.local_addr().unwrap().to_string();
        let argv: Vec<String> = format!("client --connect {addr} --tasks {}", file.display())
            .split_whitespace()
            .map(String::from)
            .collect();
        let out = client(&Args::parse(&argv).unwrap()).unwrap();
        assert_eq!(out.lines().collect::<Vec<_>>(), batch_lines, "{out}");
        handle.shutdown();
        handle.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dot_exports_write_files() {
        let dir = std::env::temp_dir().join("sft_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let dot = dir.join("emb.dot");
        let sft = dir.join("sft.dot");
        let out = run(&format!(
            "solve --topology grid:3x3 --source 0 --dests 8 --sfc 1 --dot {} --sft-dot {}",
            dot.display(),
            sft.display()
        ))
        .unwrap();
        assert!(out.contains("dot        : wrote"));
        assert!(std::fs::read_to_string(&dot)
            .unwrap()
            .starts_with("graph embedding"));
        assert!(std::fs::read_to_string(&sft)
            .unwrap()
            .starts_with("digraph sft"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
