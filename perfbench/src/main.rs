//! The repository benchmark: one command per workload.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <palmetto_quote|bw_churn|lazy_delay_churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats episodes until `--seconds` of timed load. An episode
//! builds the workload's fixed topology, starts the socket server in this
//! process on 127.0.0.1 with `sft serve --listen`'s defaults, and drives
//! it over two connections in a closed loop with one request in flight
//! per connection: an untimed warm-up, then a timed window of a fixed
//! number of requests, checking every answer; then it drains and checks
//! the server's state. Two in-flight requests cannot fill four workers, so
//! the loop builds no queue; queueing and overload need an open-loop
//! workload, which this benchmark does not have. With `--trace 1` the run
//! then replays the first episode's generated requests in process through
//! each layer's public entry points ([`replay`]), writes the spans to
//! `perfbench/out/`, and prints the per-layer metrics instead of the
//! end-to-end ones.
//!
//! `BENCHMARK.json` gates `palmetto_quote` and `lazy_delay_churn`.
//! `bw_churn` runs the same way but is not gated, because requests fail in
//! every run of it: 2 to 7 commits per 20-s run are answered `conflict`
//! (all three solve attempts lost while a slow bandwidth-view solve races
//! the other connection's commits). `lazy_delay_churn` meets the same
//! answer far more rarely: one request in 3 of 31 runs of 30 s, about one
//! in 270,000. Both are counted as failed requests, never hidden.
//!
//! The last line of standard output is the result:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! A broken correctness gate prints `"correct":false` and exits 1.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! An "embed" request is a quote or a commit. Times are client-side round
//! trips, from the write until the full answer line has been read.
//! `p50_ms`, `goodput_rps`, `cpu_ms_per_req` and `tail_ms` (below) are
//! taken per episode over its timed window and reported as the median
//! over the run's episodes.
//!
//! | metric | unit | better | meaning |
//! |---|---|---|---|
//! | `setup_s` | s | lower | median over the run's episodes of the time from the start of `Network::build` on the generated topology until a first connection to the server is established (see `load::set_up` for why not its first answer) |
//! | `p50_ms` | ms | lower | median embed round trip |
//! | `goodput_rps` | 1/s | higher | answers `ok` or `released` within the workload's latency limit, per second of load |
//! | `admit_frac` | ratio | higher | embeds answered `ok` over embeds sent (1 − blocking rate) |
//! | `cost_mean` | cost | lower | mean `cost.total` of `ok` embeds: the paper's delivery-cost objective, so a faster solver with worse trees shows |
//! | `peak_rss_mb` | MB | lower | peak resident memory of this process (server included) after the first episode; later episodes reuse heap the allocator kept from earlier servers, so the peak after the whole run grows with how many episodes fit in it, that is with the server's speed |
//! | `cpu_ms_per_req` | ms | lower | process CPU (user + sys, load generator included) during the timed windows, per request answered in them |
//!
//! Three further end-to-end figures are reported with the per-layer
//! metrics instead, which carry no regression bound. `tail_ms` (the
//! highest of p99, p95 and p90 of the embed round trips with ≥ 10 samples
//! beyond it; its percentile is printed) is not steady enough on a shared
//! two-core host to hold a bound: over ten seeds `palmetto_quote`'s ranged
//! from 2.4 to 14 ms, because other guests slow whole runs and a
//! sub-millisecond quote's p99 follows them, while in calm stretches it
//! repeated within 3%. `release_p50_ms` (median `release` round trip;
//! `palmetto_quote` sends none) and `fail_frac` (share of sent requests
//! that got no answer, an unstructured one, or an error other than
//! `insufficient_capacity`, `infeasible` and `delay_infeasible`; 0 on a
//! healthy run) cannot be bounded because an end-to-end metric must be
//! measured on every workload and never read 0. The result line's
//! `failed`/`attempted` carry `fail_frac` on every run.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! `_us` metrics are medians per request of the named calls' self time;
//! a `.share` is that layer's self time over the replay's total (the main
//! pipeline, twin excluded): the most optimising the layer can save there.
//! Layers are the repository's modules: sft-service `protocol`, `server`,
//! `admission`, `ledger`, `service`; sft-core `network`, `msa`, `opa`,
//! `api`; sft-graph `provider`, `cache`.
//!
//! * `protocol.parse_us` (`parse_request` + `to_task`), `protocol.encode_us`
//!   (`EmbedResponse` + `to_json`), `protocol.share`.
//! * `server.floor_us`: round trip of a line the connection reader answers
//!   itself (`parse_error`); `server.handoff_us`: round trip of a release of
//!   an unknown session (a worker answers without solving) minus the
//!   floor; both probed outside the timed load. `server.overhead_us`: the
//!   median wire round trip of the embeds the replay re-runs minus the
//!   median of their untraced in-process pipeline.
//!   `server.shed`: jobs shed in the timed run (all episodes).
//! * `admission.check_us`; `admission.early_frac`: refusals answered by
//!   admission over all refusals (a refusal after a solve wasted it).
//! * `service.solve_us`: `solve_uncommitted`.
//! * `network.view_us` (twin `bandwidth_view`, over the calls that built a
//!   view), `network.delta_us` (`commit_delta`), `network.apply_us`
//!   (`apply_commit`), `network.release_us` (`apply_release`),
//!   `network.share`; `network.view_frac`: solves that built a view.
//! * `msa.stage1_us` (twin stage-1 sweep), `msa.share`.
//! * `cache.steiner_hit_rate`, `cache.steiner_misses` (the replay's main
//!   service, after the warm-up).
//! * `opa.optimize_us`, `opa.share`.
//! * `api.finish_us`: the solve minus view, stage 1 and OPA (delay repair,
//!   costing); `api.delay_refused`: `delay_infeasible` refusals; `api.share`.
//! * `provider.row_misses`, `provider.rows_peak` (main network's rows).
//! * `ledger.validate_us`, `ledger.confirm_us` (`confirm_with_task`),
//!   `ledger.release_us` (`release_usage` + `confirm_release`),
//!   `ledger.share`, `ledger.spans` (ledger calls traced);
//!   `ledger.conflict_frac`: the timed run's re-solves
//!   (`ServiceStats::commit_conflicts`, all episodes) over commits sent.
//! * `trace.overhead_frac`: traced over untraced replay time, minus 1.
//!
//! # Which end-to-end metric each layer should move
//!
//! | layer metrics | should move | on | predicted unchanged on |
//! |---|---|---|---|
//! | `protocol.*`, `server.*` | `p50_ms`, `goodput_rps`, `cpu_ms_per_req` | `palmetto_quote` | churn workloads, where these layers are a small share |
//! | `msa.*`, `cache.*` | `p50_ms`, `cpu_ms_per_req` | `palmetto_quote` (warm cache), `lazy_delay_churn` (cold cache over lazy rows) | — |
//! | `opa.*` | `p50_ms`; `cost_mean` guards its quality | all | — |
//! | `network.view_us`, `network.view_frac` | `tail_ms`, `goodput_rps`, `cpu_ms_per_req` | `bw_churn` | `palmetto_quote`, `lazy_delay_churn` |
//! | `provider.*` | `peak_rss_mb`, `p50_ms`, `tail_ms` | `lazy_delay_churn` | the dense workloads; there a row-engine change shows in `setup_s` and `peak_rss_mb` |
//! | `api.*` | `p50_ms`, `admit_frac` | `lazy_delay_churn` | the other two, which carry no delay budgets |
//! | `admission.*`, `ledger.*`, `network.delta_us`, `network.apply_us`, `network.release_us` | `p50_ms`, `release_p50_ms`, `fail_frac` | both churn workloads | `palmetto_quote`, which runs only the admission check |
//!
//! # Correctness gates
//!
//! Every request gets exactly one structured answer addressed to it (a
//! sentinel probe after each connection's last request must be answered
//! next). Every `palmetto_quote` wire answer is byte-identical to the
//! in-process encoding of its group's answer, and in traced runs to the
//! replay's answer. Every embedding the replay returns passes
//! `sft_core::validate::validate` (delay budgets included). The server's
//! commit log, replayed serially onto a freshly built network, reproduces
//! the server's network (refcounts, node residuals, edge usage) before
//! and after the drain; after the drain both equal the seed network and
//! `commits == releases`.

mod checks;
mod load;
mod replay;
mod report;
mod trace;
mod workload;

use load::{Outcome, Sample};
use report::{median, metric, Metric};
use sft_service::protocol::{parse_request, EmbedResponse, Request};
use sft_service::{CapacityLedger, EmbedService};
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::Barrier;
use std::time::Instant;
use workload::{Kind, Stream, CONNECTIONS};

/// Probe pairs (floor + hand-off) sent before a traced run's load.
const PROBE_ROUNDS: usize = 200;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad(()))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad(()))?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad(()))? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((correct, line)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The expected answer bodies (after the id) of the pool's quotes,
/// computed in process through the server's call sequence.
fn expected_quotes(recipe: &workload::Recipe, pool: &[String]) -> Result<Vec<String>, String> {
    let service = EmbedService::with_defaults(recipe.build());
    let ledger = CapacityLedger::new(service.network());
    pool.iter()
        .map(|rest| {
            let line = workload::line_with_id(0, rest);
            let Ok(Request::Embed(mut req)) = parse_request(line.trim_end()) else {
                return Err(format!("pool line does not parse: {line}"));
            };
            req.id = None;
            let task = req.to_task().map_err(|e| format!("pool task: {e}"))?;
            let response = match ledger
                .check_capacity(&task)
                .and_then(|()| service.solve_uncommitted(&task))
            {
                Ok(result) => EmbedResponse::success(None, &result, false),
                Err(e) => EmbedResponse::failure(None, &e),
            };
            let head = format!("{{\"v\":{}", response.v);
            Ok(response.to_json()[head.len()..].to_string())
        })
        .collect()
}

fn run(args: &Args) -> Result<(bool, String), String> {
    let workload =
        workload::by_name(&args.workload).ok_or(format!("unknown workload `{}`", args.workload))?;
    let recipe = workload::recipe(&workload)?;
    let pool: Vec<String> = match workload.kind {
        Kind::Quote => workload::palmetto_pool()?
            .iter()
            .map(workload::rest_after_id)
            .collect(),
        Kind::Churn { .. } => Vec::new(),
    };
    let expected = expected_quotes(&recipe, &pool)?;
    let mut episodes: Vec<Episode> = Vec::new();
    let mut first_plans = Vec::new();
    let mut load_s = 0.0;
    let mut first_peak_rss_mb = 0.0;
    while load_s < args.seconds {
        let e = episodes.len();
        let plans = workload::plans(&workload, &recipe, args.seed, e);
        // Episodes run whole, so all do the same work; the run's load can
        // exceed `--seconds` by part of one episode.
        let budget = load::Budget {
            warmup: workload.warmup_steps,
            steps: workload.warmup_steps + workload.episode_steps,
            seconds: args.seconds,
        };
        let traced = args.trace && e == 0;
        let ep = episode(&recipe, &plans, &pool, &expected, &budget, traced)?;
        load_s += ep.load_s;
        // A broken gate fails the run; a broken server could otherwise end
        // each episode at once and keep the loop going.
        let broken = !ep.violations.is_empty();
        episodes.push(ep);
        if e == 0 {
            first_plans = plans;
            first_peak_rss_mb = report::peak_rss_mb();
        }
        if broken {
            break;
        }
    }
    let summary = summarize(&workload, args, &episodes, first_peak_rss_mb);
    let mut violations: Vec<String> = episodes.iter().flat_map(|e| e.violations.clone()).collect();
    let metrics = match episodes[0].probes {
        None => summary.metrics,
        Some(probes) => {
            let (metrics, replay_violations) = traced_run(
                args,
                &workload,
                &recipe,
                &first_plans,
                &pool,
                &episodes,
                &summary,
                probes,
            )?;
            violations.extend(replay_violations);
            metrics
        }
    };
    for v in &violations {
        eprintln!("perfbench: correctness gate failed: {v}");
    }
    let correct = violations.is_empty();
    Ok((
        correct,
        report::result_line(correct, summary.attempted, summary.failed, &metrics),
    ))
}

/// What one episode of the timed socket run produced.
struct Episode {
    /// Set-up time (s) of this episode's server.
    setup_s: f64,
    logs: Vec<load::ConnLog>,
    stats: sft_service::ServiceStats,
    /// Length of the timed window (s) and the process CPU (ms) spent in it.
    load_s: f64,
    cpu_ms: f64,
    /// Floor and hand-off probe medians (µs); traced runs only.
    probes: Option<(f64, f64)>,
    violations: Vec<String>,
}

/// One episode: sets a fresh server up, warms it, probes it (traced
/// runs), drives the closed loop for the budget, drains, and checks the
/// server's state.
fn episode(
    recipe: &workload::Recipe,
    plans: &[workload::Plan],
    pool: &[String],
    expected: &[String],
    budget: &load::Budget,
    traced: bool,
) -> Result<Episode, String> {
    let mut violations = Vec::new();
    let (server, mut first, setup_s) = load::set_up(recipe)?;
    let expect = |group: usize, id: u64, answer: &str| {
        answer
            .strip_prefix("{\"v\":1,\"id\":")
            .and_then(|rest| rest.strip_prefix(id.to_string().as_str()))
            == Some(expected[group].as_str())
    };
    // Warm-up: each pool group quoted once before timing starts.
    for (g, rest) in pool.iter().enumerate() {
        let id = workload::WARMUP_ID_BASE + g as u64;
        let (answer, _) = first.round_trip(&workload::line_with_id(id, rest))?;
        if !expect(g, id, answer) {
            violations.push(format!("warm-up quote {g} differs: {answer}"));
        }
    }
    let probes = if traced {
        Some(load::probe(&mut first, PROBE_ROUNDS)?)
    } else {
        None
    };
    let clients = vec![first, load::open(&server)?];
    let start = Barrier::new(CONNECTIONS + 1);
    let window_done = Barrier::new(CONNECTIONS + 1);
    let drain = Barrier::new(CONNECTIONS + 1);
    let stop = AtomicBool::new(false);
    let (mut load_s, mut cpu_ms) = (0.0, 0.0);
    let mut live_check = Ok(());
    let logs: Vec<load::ConnLog> = std::thread::scope(|s| {
        let threads: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                let stream = Stream::new(c, &plans[c], pool);
                let barriers = [&start, &window_done, &drain];
                let (stop, expect) = (&stop, &expect);
                s.spawn(move || load::drive(client, stream, barriers, stop, budget, traced, expect))
            })
            .collect();
        start.wait();
        let begin = Instant::now();
        let cpu_start = report::cpu_ms();
        window_done.wait();
        load_s = begin.elapsed().as_secs_f64();
        cpu_ms = report::cpu_ms() - cpu_start;
        // Live sessions are still held here: the log must already replay.
        live_check = checks::replay_commit_log(recipe, &server.handle).map(|_| ());
        drain.wait();
        threads
            .into_iter()
            .map(|t| t.join().expect("load threads do not panic"))
            .collect()
    });
    if let Err(e) = live_check {
        violations.push(format!("before the drain: {e}"));
    }
    let stats = server.handle.stats();
    match checks::replay_commit_log(recipe, &server.handle) {
        Ok(replayed) => {
            if let Some(diff) = checks::state_diff(&recipe.build(), &replayed) {
                violations.push(format!(
                    "after the drain the network differs from the seed: {diff}"
                ));
            }
        }
        Err(e) => violations.push(format!("after the drain: {e}")),
    }
    if stats.commits != stats.releases {
        violations.push(format!(
            "after the drain commits ({}) != releases ({})",
            stats.commits, stats.releases
        ));
    }
    server.stop();
    for log in &logs {
        violations.extend(log.violations.iter().cloned());
    }
    Ok(Episode {
        setup_s,
        logs,
        stats,
        load_s,
        cpu_ms,
        probes,
        violations,
    })
}

/// The end-to-end metrics of a timed run and the counts behind them.
struct Summary {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    tail_ms: f64,
    release_p50_ms: f64,
    /// Embed requests sent, warm-ups and drains included.
    embeds_sent: usize,
}

/// Computes the end-to-end metrics and prints them with their context.
fn summarize(
    workload: &workload::Workload,
    args: &Args,
    episodes: &[Episode],
    peak_rss_mb: f64,
) -> Summary {
    let samples: Vec<&Sample> = episodes
        .iter()
        .flat_map(|e| e.logs.iter().flat_map(|l| &l.samples))
        .collect();
    let failures: Vec<&str> = samples
        .iter()
        .filter_map(|s| match s.outcome {
            Outcome::Failed(code) => Some(code.map_or("no structured answer", |c| c.as_str())),
            _ => None,
        })
        .collect();
    let timed: Vec<&Sample> = samples.iter().copied().filter(|s| s.timed).collect();
    let ms = |s: &Sample| s.rtt_ns as f64 / 1e6;
    let embeds = timed.iter().filter(|s| s.embed).count();
    let mut release_ms: Vec<f64> = timed.iter().filter(|s| !s.embed).map(|s| ms(s)).collect();
    let release_p50_ms = median(&mut release_ms);

    // The timing figures of one stretch of load.
    struct Timing {
        p50_ms: f64,
        tail_p: u32,
        tail_ms: f64,
        goodput_rps: f64,
        cpu_ms_per_req: f64,
    }
    let timing = |samples: &[&Sample], load_s: f64, cpu_ms: f64| {
        let mut embed_ms: Vec<f64> = samples.iter().filter(|s| s.embed).map(|s| ms(s)).collect();
        embed_ms.sort_by(f64::total_cmp);
        let (tail_p, tail_ms, _) = report::tail(&embed_ms);
        let good = samples
            .iter()
            .filter(|s| {
                matches!(s.outcome, Outcome::Ok | Outcome::Released)
                    && ms(s) <= workload.latency_limit_ms
            })
            .count();
        Timing {
            p50_ms: median(&mut embed_ms),
            tail_p,
            tail_ms,
            goodput_rps: good as f64 / load_s,
            cpu_ms_per_req: cpu_ms / samples.len().max(1) as f64,
        }
    };
    // Each timing metric is the median over the run's episodes, which all
    // do the same work. Other guests on a shared host slow it in stretches
    // of seconds to minutes; a figure pooled over the whole run follows
    // every such stretch, the median over episodes only those that cover
    // most of the run. Over ten seeds on a contended two-core host,
    // `lazy_delay_churn`'s tail spread 0.33 (interquartile range over
    // median) pooled and 0.16 as the median over episodes.
    let per_episode: Vec<Timing> = episodes
        .iter()
        .map(|e| {
            let window: Vec<&Sample> = e
                .logs
                .iter()
                .flat_map(|l| &l.samples)
                .filter(|s| s.timed)
                .collect();
            timing(&window, e.load_s, e.cpu_ms)
        })
        .collect();
    let over_episodes =
        |f: fn(&Timing) -> f64| median(&mut per_episode.iter().map(f).collect::<Vec<_>>());
    let load_s: f64 = episodes.iter().map(|e| e.load_s).sum();
    let mut tail_ps: Vec<u32> = per_episode.iter().map(|t| t.tail_p).collect();
    tail_ps.sort_unstable();
    tail_ps.dedup();
    let costs: Vec<f64> = timed.iter().filter_map(|s| s.cost).collect();
    let admitted = timed
        .iter()
        .filter(|s| s.embed && s.outcome == Outcome::Ok)
        .count();
    let mut setups: Vec<f64> = episodes.iter().map(|e| e.setup_s).collect();
    println!("set-ups (s): {setups:.5?}");
    let metrics = vec![
        metric("setup_s", median(&mut setups), "s"),
        metric("p50_ms", over_episodes(|t| t.p50_ms), "ms"),
        metric("goodput_rps", over_episodes(|t| t.goodput_rps), "1/s"),
        metric(
            "admit_frac",
            admitted as f64 / embeds.max(1) as f64,
            "ratio",
        ),
        metric(
            "cost_mean",
            costs.iter().sum::<f64>() / costs.len().max(1) as f64,
            "cost",
        ),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
        metric("cpu_ms_per_req", over_episodes(|t| t.cpu_ms_per_req), "ms"),
    ];

    let refused = |code| {
        timed
            .iter()
            .filter(|s| s.outcome == Outcome::Refused(code))
            .count()
    };
    use sft_service::ErrorCode::{DelayInfeasible, Infeasible, InsufficientCapacity};
    println!(
        "{} seed {} | {} episodes, {load_s:.2} s of load, {} requests in the windows ({embeds} embed, {} release), {} in warm-ups and drains",
        workload.name,
        args.seed,
        episodes.len(),
        timed.len(),
        timed.len() - embeds,
        samples.len() - timed.len()
    );
    println!(
        "refusals: insufficient_capacity {} | infeasible {} | delay_infeasible {} | failed {} of {} {failures:?}",
        refused(InsufficientCapacity),
        refused(Infeasible),
        refused(DelayInfeasible),
        failures.len(),
        samples.len()
    );
    println!(
        "tail_ms {:.4} is the median over episodes of each one's p{tail_ps:?} (the highest of p99, p95 and p90 with at least 10 of its embeds beyond it); release_p50_ms {release_p50_ms:.4}; latency limit {} ms",
        over_episodes(|t| t.tail_ms),
        workload.latency_limit_ms
    );
    for m in &metrics {
        println!("  {:<16} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let total = |f: &dyn Fn(&sft_service::ServiceStats) -> u64| -> u64 {
        episodes.iter().map(|e| f(&e.stats)).sum()
    };
    println!(
        "server stats (public telemetry, summed over episodes): steiner hits {} misses {} | rows resident {} hits {} misses {} ({}) | conflicts {} | shed {} | commits {} releases {} | served {} failures {}",
        total(&|s| s.cache_hits),
        total(&|s| s.cache_misses),
        total(&|s| s.distance_rows),
        total(&|s| s.distance_row_hits),
        total(&|s| s.distance_row_misses),
        episodes[0].stats.distance_provider,
        total(&|s| s.commit_conflicts),
        total(&|s| s.jobs_shed),
        total(&|s| s.commits),
        total(&|s| s.releases),
        total(&|s| s.tasks_served),
        total(&|s| s.failures)
    );
    Summary {
        metrics,
        attempted: samples.len() as u64,
        failed: failures.len() as u64,
        tail_ms: over_episodes(|t| t.tail_ms),
        release_p50_ms,
        embeds_sent: samples.iter().filter(|s| s.embed).count(),
    }
}

/// Replays the first episode's generated requests in process, untraced
/// and traced, checks the replay, writes the spans, and returns the
/// per-layer metrics with any broken gates.
#[allow(clippy::too_many_arguments)]
fn traced_run(
    args: &Args,
    workload: &workload::Workload,
    recipe: &workload::Recipe,
    plans: &[workload::Plan],
    pool: &[String],
    episodes: &[Episode],
    summary: &Summary,
    (floor_us, handoff_us): (f64, f64),
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let timed = &episodes[0];
    // Each connection's whole budget, whether or not the socket run sent
    // its last few steps before the other connection stopped it, so the
    // replay's counts do not depend on timing.
    let steps = [workload.warmup_steps + workload.episode_steps; CONNECTIONS];
    // The wire p50 of the requests the replay re-runs (warm-up included),
    // so the overhead compares like with like.
    let mut replayed_ms: Vec<f64> = timed
        .logs
        .iter()
        .flat_map(|log| log.samples.iter().take(log.steps))
        .filter(|s| s.embed)
        .map(|s| s.rtt_ns as f64 / 1e6)
        .collect();
    let replayed_p50_ms = median(&mut replayed_ms);
    let untraced = replay::run(recipe, plans, pool, &steps, false);
    let traced = replay::run(recipe, plans, pool, &steps, true);
    let mut violations: Vec<String> = untraced
        .violations
        .iter()
        .chain(&traced.violations)
        .cloned()
        .collect();
    if matches!(workload.kind, Kind::Quote) {
        for (c, log) in timed.logs.iter().enumerate() {
            let n = log.answers.len().min(traced.answers[c].len());
            if log.answers[..n] != traced.answers[c][..n] {
                violations.push(format!(
                    "connection {c}: wire answers differ from the replay's"
                ));
            }
        }
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{}.jsonl", workload.name, args.seed));
    trace::write_spans(&path, &traced.spans)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "spans: {} written to {}",
        traced.spans.len(),
        path.display()
    );
    // Which counts repeat exactly across runs of one seed (two runs of
    // seed 5 on a two-core host): every replay count does, except the lazy
    // provider's row hits and misses, since the two stage-1 sweep threads
    // can race to fill one row (2267 and 2264 misses). The server's own
    // counts follow how many requests fit in the timed windows and do not
    // repeat; even `palmetto_quote`'s Steiner misses, which all come from
    // the warm-ups, differed by one.
    let c = &traced.counts;
    println!(
        "replay counts ({} steps/connection): steiner hits {} misses {} | rows resident {} peak {} hits {} misses {} | solves {} views {} | refusals {} (admission {}, delay {}) | commits {} releases {}",
        steps[0],
        c.steiner_hits,
        c.steiner_misses,
        c.rows_resident,
        c.rows_peak,
        c.row_hits,
        c.row_misses,
        c.solves,
        c.views,
        c.refusals,
        c.early_refusals,
        c.delay_refused,
        c.commits,
        c.releases
    );
    // Churn embeds are all commits; quote workloads send none.
    let commits_sent = match workload.kind {
        Kind::Churn { .. } => summary.embeds_sent,
        Kind::Quote => 0,
    };
    let conflicts: u64 = episodes.iter().map(|e| e.stats.commit_conflicts).sum();
    let shed: u64 = episodes.iter().map(|e| e.stats.jobs_shed).sum();
    let mut metrics = layers(&traced, &untraced);
    metrics.extend([
        metric("server.floor_us", floor_us, "us"),
        metric("server.handoff_us", handoff_us, "us"),
        metric(
            "server.overhead_us",
            replayed_p50_ms * 1e3 - pipeline_median_us(&untraced),
            "us",
        ),
        metric("server.shed", shed as f64, "count"),
        metric(
            "ledger.conflict_frac",
            conflicts as f64 / commits_sent.max(1) as f64,
            "ratio",
        ),
        metric("tail_ms", summary.tail_ms, "ms"),
        metric("release_p50_ms", summary.release_p50_ms, "ms"),
        metric(
            "fail_frac",
            summary.failed as f64 / summary.attempted.max(1) as f64,
            "ratio",
        ),
    ]);
    for m in &metrics {
        println!("  {:<24} {:>14.4} {}", m.name, m.value, m.unit);
    }
    Ok((metrics, violations))
}

/// Median main-pipeline time of the replay's embed requests, in µs.
fn pipeline_median_us(replay: &replay::Replay) -> f64 {
    let mut us: Vec<f64> = replay
        .records
        .iter()
        .filter(|r| r.embed)
        .map(|r| r.pipeline_ns as f64 / 1e3)
        .collect();
    median(&mut us)
}

/// The per-layer metrics computed from the traced replay's spans.
fn layers(traced: &replay::Replay, untraced: &replay::Replay) -> Vec<Metric> {
    use std::collections::HashMap;
    let self_ns = trace::self_times(&traced.spans);
    // Per request, self time by call name.
    let mut by_request: HashMap<(u64, &str), f64> = HashMap::new();
    let mut by_layer: HashMap<&str, f64> = HashMap::new();
    let mut total = 0.0;
    let mut ledger_spans = 0u64;
    for (span, &ns) in traced.spans.iter().zip(&self_ns) {
        let us = ns as f64 / 1e3;
        *by_request.entry((span.request, span.name)).or_default() += us;
        match span.name {
            "request" => total += (span.end_ns - span.start_ns) as f64 / 1e3,
            "twin" => {}
            name => {
                let layer = name.split('.').next().unwrap_or(name);
                *by_layer.entry(layer).or_default() += us;
                ledger_spans += u64::from(layer == "ledger");
            }
        }
    }
    let per_request = |names: &[&str], keep: &dyn Fn(&replay::Record) -> bool| {
        let mut values: Vec<f64> = traced
            .records
            .iter()
            .filter(|r| keep(r))
            .filter_map(|r| {
                let parts: Vec<f64> = names
                    .iter()
                    .filter_map(|n| by_request.get(&(r.request, *n)).copied())
                    .collect();
                (!parts.is_empty()).then(|| parts.iter().sum())
            })
            .collect();
        median(&mut values)
    };
    let all = |_: &replay::Record| true;
    let solved = |r: &replay::Record| r.solved;
    let layer = |name: &str| by_layer.get(name).copied().unwrap_or(0.0);
    // The twin's parts, taken out of the main solve.
    let parts = ["network.bandwidth_view", "msa.stage_one", "opa.optimize"];
    let mut finish: Vec<f64> = traced
        .records
        .iter()
        .filter(|r| r.solved)
        .map(|r| {
            let get = |n: &str| by_request.get(&(r.request, n)).copied().unwrap_or(0.0);
            get("service.solve_uncommitted") - parts.iter().map(|p| get(p)).sum::<f64>()
        })
        .collect();
    // What is left of the solves: the rest of `api::solve_with_cache`.
    let api_total: f64 = finish.iter().sum();
    let share = |v: f64| v / total.max(1e-9);
    let c = &traced.counts;
    let untraced_total: f64 = untraced.records.iter().map(|r| r.pipeline_ns as f64).sum();
    let traced_total: f64 = traced.records.iter().map(|r| r.pipeline_ns as f64).sum();
    let lookups = (c.steiner_hits + c.steiner_misses).max(1);
    vec![
        metric(
            "protocol.parse_us",
            per_request(&["protocol.parse_request", "protocol.to_task"], &all),
            "us",
        ),
        metric(
            "protocol.encode_us",
            per_request(&["protocol.response", "protocol.to_json"], &all),
            "us",
        ),
        metric("protocol.share", share(layer("protocol")), "ratio"),
        metric(
            "admission.check_us",
            per_request(&["admission.check_capacity"], &all),
            "us",
        ),
        metric(
            "admission.early_frac",
            c.early_refusals as f64 / c.refusals.max(1) as f64,
            "ratio",
        ),
        metric(
            "service.solve_us",
            per_request(&["service.solve_uncommitted"], &solved),
            "us",
        ),
        metric(
            "network.view_us",
            per_request(&["network.bandwidth_view"], &|r| r.view_built),
            "us",
        ),
        metric(
            "network.delta_us",
            per_request(&["network.commit_delta"], &all),
            "us",
        ),
        metric(
            "network.apply_us",
            per_request(&["network.apply"], &all),
            "us",
        ),
        metric(
            "network.release_us",
            per_request(&["network.release"], &all),
            "us",
        ),
        metric("network.share", share(layer("network")), "ratio"),
        metric(
            "network.view_frac",
            c.views as f64 / c.solves.max(1) as f64,
            "ratio",
        ),
        metric(
            "msa.stage1_us",
            per_request(&["msa.stage_one"], &solved),
            "us",
        ),
        metric("msa.share", share(layer("msa")), "ratio"),
        metric(
            "cache.steiner_hit_rate",
            c.steiner_hits as f64 / lookups as f64,
            "ratio",
        ),
        metric("cache.steiner_misses", c.steiner_misses as f64, "count"),
        metric(
            "opa.optimize_us",
            per_request(&["opa.optimize"], &solved),
            "us",
        ),
        metric("opa.share", share(layer("opa")), "ratio"),
        metric("api.finish_us", median(&mut finish), "us"),
        metric("api.delay_refused", c.delay_refused as f64, "count"),
        metric("api.share", share(api_total), "ratio"),
        metric("provider.row_misses", c.row_misses as f64, "count"),
        metric("provider.rows_peak", c.rows_peak as f64, "count"),
        metric(
            "ledger.validate_us",
            per_request(&["ledger.validate"], &all),
            "us",
        ),
        metric(
            "ledger.confirm_us",
            per_request(&["ledger.confirm_with_task"], &all),
            "us",
        ),
        metric(
            "ledger.release_us",
            per_request(&["ledger.release_usage", "ledger.confirm_release"], &all),
            "us",
        ),
        metric("ledger.share", share(layer("ledger")), "ratio"),
        metric("ledger.spans", ledger_spans as f64, "count"),
        metric(
            "trace.overhead_frac",
            traced_total / untraced_total.max(1.0) - 1.0,
            "ratio",
        ),
    ]
}
