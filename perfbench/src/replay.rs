//! The in-process replay behind the per-layer metrics.
//!
//! The replay re-runs the first episode's generated streams in one
//! thread, interleaving the two connections' streams round-robin, and
//! makes the public calls the server makes, in the server's order:
//!
//! * embed: `protocol::parse_request`, `EmbedRequest::to_task`,
//!   `CapacityLedger::check_capacity`, then for a commit a ledger
//!   snapshot, `EmbedService::solve_uncommitted`, `Network::commit_delta`,
//!   `CapacityLedger::validate`, `EmbedService::apply_commit` and
//!   `CapacityLedger::confirm_with_task`, and finally the `EmbedResponse`
//!   and its `to_json`;
//! * release: `parse_request`, the admission credit
//!   (`note_queued_release`), `release_usage`, `apply_release`,
//!   `confirm_release`, the `EmbedResponse` and its `to_json`.
//!
//! The solve is split into its parts on a twin service that has received
//! the identical request history, so its Steiner cache, distance rows and
//! deployments are in the state the main service's were before the
//! solve. On the twin the replay calls `Network::bandwidth_view`, the MSA
//! stage-1 entry `solve_with_cache` would take (the shared-cache sweep, or
//! the per-solve sweep on a bandwidth view), and `opa::optimize`. What is
//! left of the main solve after those three is the rest of
//! `api::solve_with_cache`: delay repair, costing and bookkeeping.

use crate::trace::{Span, Tracer};
use crate::workload::{line_with_id, Plan, Recipe, Step, Stream, CONNECTIONS, WARMUP_ID_BASE};
use sft_core::msa::{self, SteinerMethod};
use sft_core::validate::validate;
use sft_core::{opa, CoreError, Network, Parallelism, SolveOptions, Strategy};
use sft_service::protocol::{parse_request, EmbedResponse, Request, RequestMode};
use sft_service::{CapacityLedger, EmbedService, ServiceError};
use std::time::Instant;

/// One replayed request.
pub struct Record {
    pub request: u64,
    pub embed: bool,
    /// Reached `solve_uncommitted` (admission let it through).
    pub solved: bool,
    /// The twin's `bandwidth_view` built a filtered network.
    pub view_built: bool,
    /// Wall time of the main pipeline (twin work excluded), in ns.
    pub pipeline_ns: u64,
}

/// Counts taken where the work happens.
#[derive(Default, Debug)]
pub struct Counts {
    pub solves: u64,
    pub views: u64,
    pub refusals: u64,
    /// Refusals answered by admission, before any solve.
    pub early_refusals: u64,
    pub delay_refused: u64,
    pub commits: u64,
    pub releases: u64,
    pub steiner_hits: u64,
    pub steiner_misses: u64,
    pub row_hits: u64,
    pub row_misses: u64,
    pub rows_resident: u64,
    pub rows_peak: u64,
}

pub struct Replay {
    pub spans: Vec<Span>,
    pub records: Vec<Record>,
    /// Embed answers per connection, in send order.
    pub answers: Vec<Vec<String>>,
    pub counts: Counts,
    pub violations: Vec<String>,
}

struct Runner {
    tr: Tracer,
    main: EmbedService,
    twin: EmbedService,
    ledger: CapacityLedger,
    parallelism: Parallelism,
    recording: bool,
    records: Vec<Record>,
    counts: Counts,
    violations: Vec<String>,
}

fn service(network: Network) -> EmbedService {
    EmbedService::new(network, Strategy::Msa, SolveOptions::default())
        .expect("MSA is a supported service strategy")
}

/// Replays the first `steps[c]` requests of each connection's stream,
/// then drains every live session; quote workloads first quote each pool
/// group once, untraced, as the timed run's warm-up did.
pub fn run(
    recipe: &Recipe,
    plans: &[Plan],
    pool: &[String],
    steps: &[usize],
    traced: bool,
) -> Replay {
    let main = service(recipe.build());
    let mut runner = Runner {
        tr: Tracer::new(false),
        ledger: CapacityLedger::new(main.network()),
        main,
        twin: service(recipe.build()),
        parallelism: SolveOptions::default().parallelism,
        recording: false,
        records: Vec::new(),
        counts: Counts::default(),
        violations: Vec::new(),
    };
    for (g, rest) in pool.iter().enumerate() {
        let id = WARMUP_ID_BASE + g as u64;
        runner.embed(id, &line_with_id(id, rest));
    }
    runner.counts = Counts::default();
    let warm = runner.main.cache().stats();
    runner.tr.set_on(traced);
    runner.recording = true;

    let mut streams: Vec<Stream<'_>> = plans
        .iter()
        .enumerate()
        .map(|(c, plan)| Stream::new(c, plan, pool))
        .collect();
    let mut left = steps.to_vec();
    let mut answers = vec![Vec::new(); CONNECTIONS];
    while left.iter().any(|&l| l > 0) {
        for c in 0..CONNECTIONS {
            if left[c] == 0 {
                continue;
            }
            left[c] -= 1;
            match streams[c].next() {
                Some(step) => {
                    if let Some(answer) = runner.step(step, &mut streams[c]) {
                        answers[c].push(answer);
                    }
                }
                None => left[c] = 0,
            }
        }
    }
    for stream in &mut streams {
        for step in stream.drain() {
            runner.step(step, stream);
        }
    }

    let cache = runner.main.cache().stats();
    let dist = runner.main.network().dist();
    let mut counts = std::mem::take(&mut runner.counts);
    counts.steiner_hits = cache.hits - warm.hits;
    counts.steiner_misses = cache.misses - warm.misses;
    counts.row_hits = dist.row_hits();
    counts.row_misses = dist.row_misses();
    counts.rows_resident = dist.rows_materialized();
    counts.rows_peak = dist.peak_rows();
    runner.check_drained(recipe);
    Replay {
        spans: runner.tr.into_spans(),
        records: runner.records,
        answers,
        counts,
        violations: runner.violations,
    }
}

impl Runner {
    /// Runs one step; returns an embed's wire answer.
    fn step(&mut self, step: Step, stream: &mut Stream<'_>) -> Option<String> {
        match step {
            Step::Embed { id, line, .. } => {
                let (answer, committed) = self.embed(id, &line);
                if committed {
                    stream.committed(id);
                }
                Some(answer)
            }
            Step::Release { id, line, .. } => {
                self.release(id, &line);
                None
            }
        }
    }

    /// One embed request through the server's call sequence; returns the
    /// encoded answer and whether it committed.
    fn embed(&mut self, id: u64, line: &str) -> (String, bool) {
        let Runner {
            tr,
            main,
            twin,
            ledger,
            parallelism,
            counts,
            violations,
            ..
        } = self;
        let start = Instant::now();
        let root = tr.enter("request", id);
        let parsed = tr.call("protocol.parse_request", id, || {
            parse_request(line.trim_end())
        });
        let Ok(Request::Embed(req)) = parsed else {
            tr.exit(root);
            violations.push(format!("replay: request {id} is not an embed: {parsed:?}"));
            return (String::new(), false);
        };
        let task = match tr.call("protocol.to_task", id, || req.to_task()) {
            Ok(task) => task,
            Err(e) => {
                tr.exit(root);
                violations.push(format!("replay: request {id} has an invalid task: {e}"));
                return (String::new(), false);
            }
        };
        let admitted = tr.call("admission.check_capacity", id, || {
            ledger.check_capacity(&task)
        });
        let commit = req.mode.unwrap_or(RequestMode::Quote) == RequestMode::Commit;
        let mut solved = None;
        let mut delta = None;
        let response = match admitted {
            Err(e) => {
                counts.refusals += 1;
                counts.early_refusals += 1;
                tr.call("protocol.response", id, || {
                    EmbedResponse::failure(req.id, &e)
                })
            }
            Ok(()) => {
                let snapshot = commit.then(|| tr.call("ledger.snapshot", id, || ledger.snapshot()));
                let result = tr.call("service.solve_uncommitted", id, || {
                    main.solve_uncommitted(&task)
                });
                let response = match (&result, snapshot) {
                    (Ok(r), Some(snapshot)) => {
                        let d = tr.call("network.commit_delta", id, || {
                            main.network().commit_delta(&task, &r.embedding)
                        });
                        if let Err(e) = tr.call("ledger.validate", id, || {
                            ledger.validate(&snapshot, &d, false)
                        }) {
                            violations
                                .push(format!("replay: commit {id} failed validation: {e:?}"));
                        }
                        // `EmbedService::apply_commit` is a thin wrapper over
                        // `Network::apply_delta`, so it counts as network time.
                        match tr.call("network.apply", id, || main.apply_commit(&d)) {
                            Ok(()) => {
                                tr.call("ledger.confirm_with_task", id, || {
                                    ledger.confirm_with_task(req.id, &d, Some(task.clone()))
                                });
                                delta = Some(d);
                                tr.call("protocol.response", id, || {
                                    EmbedResponse::success(req.id, r, true)
                                })
                            }
                            Err(e) => {
                                violations
                                    .push(format!("replay: commit {id} failed to apply: {e}"));
                                tr.call("protocol.response", id, || {
                                    EmbedResponse::failure(req.id, &e)
                                })
                            }
                        }
                    }
                    (Ok(r), None) => tr.call("protocol.response", id, || {
                        EmbedResponse::success(req.id, r, false)
                    }),
                    (Err(e), _) => {
                        counts.refusals += 1;
                        if matches!(e, ServiceError::Core(CoreError::DelayInfeasible { .. })) {
                            counts.delay_refused += 1;
                        }
                        tr.call("protocol.response", id, || {
                            EmbedResponse::failure(req.id, e)
                        })
                    }
                };
                solved = Some(result);
                response
            }
        };
        let answer = tr.call("protocol.to_json", id, || response.to_json());
        tr.exit(root);
        let pipeline_ns = start.elapsed().as_nanos() as u64;

        let mut view_built = false;
        if let Some(result) = &solved {
            counts.solves += 1;
            let twin_root = tr.enter("twin", id);
            let view = tr.call("network.bandwidth_view", id, || {
                twin.network().bandwidth_view(task.bandwidth())
            });
            let view = view.unwrap_or_else(|e| {
                violations.push(format!("replay: bandwidth view for {id}: {e}"));
                None
            });
            let net = view.as_ref().unwrap_or(twin.network());
            let chain = tr.call("msa.stage_one", id, || match &view {
                Some(v) => msa::stage_one_cancellable(
                    v,
                    &task,
                    SteinerMethod::default(),
                    *parallelism,
                    None,
                ),
                None => msa::stage_one_with_cache_cancellable(
                    twin.network(),
                    &task,
                    SteinerMethod::default(),
                    *parallelism,
                    twin.cache(),
                    None,
                ),
            });
            if let Ok(chain) = &chain {
                let _ = tr.call("opa.optimize", id, || opa::optimize(net, &task, chain));
            }
            tr.exit(twin_root);
            view_built = view.is_some();
            counts.views += u64::from(view_built);

            if let Ok(r) = result {
                let issues = validate(twin.network(), &task, &r.embedding);
                if !issues.is_empty() {
                    violations.push(format!("replay: embedding {id} is invalid: {issues:?}"));
                }
            }
            if let Some(d) = &delta {
                counts.commits += 1;
                if let Err(e) = twin.apply_commit(d) {
                    violations.push(format!("replay: twin could not apply commit {id}: {e}"));
                }
            }
        }
        if self.recording {
            self.records.push(Record {
                request: id,
                embed: true,
                solved: solved.is_some(),
                view_built,
                pipeline_ns,
            });
        }
        (answer, delta.is_some())
    }

    /// One release request through the server's call sequence.
    fn release(&mut self, id: u64, line: &str) {
        let Runner {
            tr,
            main,
            twin,
            ledger,
            counts,
            violations,
            ..
        } = self;
        let start = Instant::now();
        let root = tr.enter("request", id);
        let parsed = tr.call("protocol.parse_request", id, || {
            parse_request(line.trim_end())
        });
        let Ok(Request::Release {
            id: rid, session, ..
        }) = parsed
        else {
            tr.exit(root);
            violations.push(format!("replay: request {id} is not a release: {parsed:?}"));
            return;
        };
        tr.call("admission.note_queued_release", id, || {
            ledger.note_queued_release(session)
        });
        let usage = tr.call("ledger.release_usage", id, || ledger.release_usage(session));
        let (response, usage) = match usage {
            Ok(usage) => match tr.call("network.release", id, || main.apply_release(&usage)) {
                Ok(freed) => {
                    if let Err(e) = tr.call("ledger.confirm_release", id, || {
                        ledger.confirm_release(session)
                    }) {
                        violations.push(format!("replay: release {id} did not confirm: {e}"));
                    }
                    let shared = usage.deploys().len() + usage.refs().len() - freed.len();
                    let response = tr.call("protocol.response", id, || {
                        EmbedResponse::released(
                            rid,
                            session,
                            freed.iter().map(|&(f, v)| (f.0, v.0)).collect(),
                            shared,
                            usage.total_bandwidth(),
                        )
                    });
                    (response, Some(usage))
                }
                Err(e) => {
                    ledger.clear_queued_release(session);
                    violations.push(format!("replay: release {id} failed to apply: {e}"));
                    (EmbedResponse::failure(rid, &e), None)
                }
            },
            Err(e) => {
                ledger.clear_queued_release(session);
                violations.push(format!("replay: release {id} of session {session}: {e}"));
                (EmbedResponse::failure(rid, &e), None)
            }
        };
        let _ = tr.call("protocol.to_json", id, || response.to_json());
        tr.exit(root);
        let pipeline_ns = start.elapsed().as_nanos() as u64;
        if let Some(usage) = usage {
            counts.releases += 1;
            if let Err(e) = twin.apply_release(&usage) {
                violations.push(format!("replay: twin could not apply release {id}: {e}"));
            }
        }
        if self.recording {
            self.records.push(Record {
                request: id,
                embed: false,
                solved: false,
                view_built: false,
                pipeline_ns,
            });
        }
    }

    /// After the drain both replay networks equal the seed network.
    fn check_drained(&mut self, recipe: &Recipe) {
        let seed = recipe.build();
        for (name, network) in [("main", self.main.network()), ("twin", self.twin.network())] {
            if let Some(diff) = crate::checks::state_diff(&seed, network) {
                self.violations.push(format!(
                    "replay: drained {name} network differs from the seed: {diff}"
                ));
            }
        }
        if !self.ledger.live_sessions().is_empty() {
            self.violations
                .push("replay: sessions still live after the drain".into());
        }
    }
}
