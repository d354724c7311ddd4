//! Arrival/departure churn: the session-lifecycle experiment.
//!
//! The paper's evaluation embeds each task once into a progressively
//! fuller network; a production service instead faces *churn* — sessions
//! arrive (Poisson), hold capacity for an exponentially distributed
//! lifetime, and depart, releasing what they held. This module sweeps
//! offered load (Erlangs = arrival rate × mean holding time) over a
//! long session stream and reports the steady-state behaviour the
//! lifecycle work enables:
//!
//! * **blocking probability** — the share of arrivals bounced for
//!   capacity, which now stabilises with load instead of climbing to
//!   1.0 as the network drains monotonically;
//! * **mean live sessions** (time-averaged) against the offered load,
//!   the Erlang-style occupancy curve;
//! * **leak check** — after the last departure, per-node *and* per-link
//!   residuals must be bit-identical to the seed network.
//!
//! With [`ChurnConfig::link_bw`] and [`ChurnConfig::bandwidth`] set, the
//! same stream runs bandwidth-constrained: every link carries a capacity
//! and every session a demand, so blocking reflects both resources.
//!
//! Everything is in-process and fully deterministic in the seed: arrivals
//! are commit requests and departures release requests, answered by one
//! [`ServerHandle::inline`] server through the same admission, commit and
//! release code as `sft serve`, with no socket and no thread.

use crate::ExperimentError;
use rand::{rngs::StdRng, RngExt, SeedableRng};
use sft_core::{Network, VnfCatalog};
use sft_graph::{Graph, NodeId};
use sft_service::protocol::{EmbedRequest, Request, RequestMode, ResponseBody, PROTOCOL_VERSION};
use sft_service::{EmbedService, ServerConfig, ServerHandle};
use std::collections::BTreeMap;

/// One churn run's parameters.
#[derive(Copy, Clone, Debug)]
pub struct ChurnConfig {
    /// Ring size (every node a server).
    pub nodes: usize,
    /// Per-server capacity (uniform catalog: every instance demands 1.0).
    pub capacity: f64,
    /// VNF catalog size; chains use types `0..len` for `len ≤ sfc_types`.
    pub sfc_types: usize,
    /// Sessions in the stream.
    pub sessions: usize,
    /// Poisson arrival rate (sessions per unit time).
    pub rate: f64,
    /// Mean exponential holding time.
    pub hold: f64,
    /// Maximum destinations per task.
    pub dests: usize,
    /// RNG seed for arrivals, holding times, and task shapes.
    pub seed: u64,
    /// Uniform link bandwidth; `None` leaves every link uncapacitated
    /// (the legacy bandwidth-free model, bit-identical streams).
    pub link_bw: Option<f64>,
    /// Per-session bandwidth-demand ceiling: each session draws its
    /// demand uniformly from `(0, this]`. `None` disables demands and
    /// keeps the task stream byte-identical to the legacy one.
    pub bandwidth: Option<f64>,
    /// Uniform link propagation latency; `None` leaves links latency-free
    /// (delay math falls back to edge weights).
    pub link_latency: Option<f64>,
    /// Per-session delay-budget ceiling: each session draws its budget
    /// uniformly from `(this/2, this]`. `None` disables budgets and
    /// keeps the task stream byte-identical to the legacy one.
    pub delay_budget: Option<f64>,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            nodes: 12,
            capacity: 3.0,
            sfc_types: 3,
            sessions: 400,
            rate: 1.0,
            hold: 10.0,
            dests: 3,
            seed: 0,
            link_bw: None,
            bandwidth: None,
            link_latency: None,
            delay_budget: None,
        }
    }
}

/// Steady-state measurements of one churn run.
#[derive(Copy, Clone, Debug)]
pub struct ChurnPoint {
    /// Offered load `rate * hold` in Erlangs.
    pub offered_erlangs: f64,
    /// Arrivals admitted (committed).
    pub admitted: usize,
    /// Arrivals bounced (`insufficient_capacity` / infeasible).
    pub blocked: usize,
    /// `blocked / (admitted + blocked)`.
    pub blocking_probability: f64,
    /// Time-averaged number of live sessions.
    pub mean_live: f64,
    /// Peak simultaneous live sessions.
    pub peak_live: usize,
    /// Whether the drained network matched the seed bit-for-bit.
    pub leak_free: bool,
}

/// An event in virtual time; departures at an equal timestamp sort after
/// the arrival that created them via the sequence tiebreak.
#[derive(Copy, Clone, Debug, PartialEq)]
struct Event {
    time: f64,
    tiebreak: usize,
    session: u64,
    kind: EventKind,
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum EventKind {
    Arrive,
    Depart,
}

fn ring_network(config: &ChurnConfig) -> Result<Network, ExperimentError> {
    let mut g = Graph::new(config.nodes);
    for i in 0..config.nodes {
        let e = g.add_edge_with_capacity(
            NodeId(i),
            NodeId((i + 1) % config.nodes),
            1.0,
            config.link_bw,
        )?;
        if config.link_latency.is_some() {
            g.set_edge_latency(e, config.link_latency)?;
        }
    }
    Ok(Network::builder(g, VnfCatalog::uniform(config.sfc_types))
        .all_servers(config.capacity)?
        .uniform_setup_cost(2.0)?
        .build()?)
}

/// Runs one arrival/departure stream through a fresh service.
///
/// # Errors
///
/// [`ExperimentError`] on a bad configuration or a network-build failure
/// (admission rejections are *data*, not errors).
pub fn run(config: &ChurnConfig) -> Result<ChurnPoint, ExperimentError> {
    if config.rate <= 0.0 || config.hold <= 0.0 {
        return Err(ExperimentError::Config(
            "churn rate and hold must be positive".into(),
        ));
    }
    if config.dests == 0 || config.dests >= config.nodes {
        return Err(ExperimentError::Config(format!(
            "churn dests must be in 1..{}",
            config.nodes
        )));
    }
    let seed_network = ring_network(config)?;
    let server = ServerHandle::inline(
        EmbedService::with_defaults(seed_network.clone()),
        ServerConfig::default(),
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let exp = |rng: &mut StdRng, mean: f64| -> f64 {
        let u: f64 = rng.random::<f64>();
        -(1.0 - u).ln() * mean
    };

    // Generate the full event stream up front (arrival order == id order).
    let mut events = Vec::with_capacity(config.sessions * 2);
    let mut clock = 0.0;
    for s in 0..config.sessions {
        clock += exp(&mut rng, 1.0 / config.rate);
        let depart = clock + exp(&mut rng, config.hold);
        let session = s as u64 + 1;
        events.push(Event {
            time: clock,
            tiebreak: s,
            session,
            kind: EventKind::Arrive,
        });
        events.push(Event {
            time: depart,
            tiebreak: config.sessions + s,
            session,
            kind: EventKind::Depart,
        });
    }
    let mut shapes = BTreeMap::new();
    for s in 0..config.sessions {
        let source = rng.random_range(0..config.nodes);
        let count = rng.random_range(1..=config.dests);
        let mut dests = Vec::with_capacity(count);
        while dests.len() < count {
            let d = rng.random_range(0..config.nodes);
            if d != source && !dests.contains(&d) {
                dests.push(d);
            }
        }
        let len = rng.random_range(1..=config.sfc_types);
        // Drawn only when demands/budgets are enabled — and always in
        // this order — so configs without them consume exactly the
        // legacy RNG stream.
        let demand = config
            .bandwidth
            .map(|max| (max * (1.0 - rng.random::<f64>())).max(max * 1e-3));
        // (max/2, max]: tight enough to bite on long routes, loose
        // enough that the stream is not all-infeasible.
        let budget = config
            .delay_budget
            .map(|max| max * (1.0 - 0.5 * rng.random::<f64>()));
        shapes.insert(
            s as u64 + 1,
            (source, dests, (0..len).collect::<Vec<_>>(), demand, budget),
        );
    }
    events.sort_by(|a, b| {
        a.time
            .partial_cmp(&b.time)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.tiebreak.cmp(&b.tiebreak))
    });

    // Replay the stream, time-averaging the live-session count.
    let mut live = 0usize;
    let mut admitted = 0usize;
    let mut blocked = 0usize;
    let mut peak_live = 0usize;
    let mut live_area = 0.0;
    let mut last_time = 0.0;
    for event in &events {
        live_area += live as f64 * (event.time - last_time);
        last_time = event.time;
        let request = match event.kind {
            EventKind::Arrive => {
                let (source, dests, sfc, demand, budget) = shapes[&event.session].clone();
                let mut req = EmbedRequest::new(source, dests, sfc);
                req.id = Some(event.session);
                req.mode = Some(RequestMode::Commit);
                req.bandwidth = demand;
                req.delay_budget_ms = budget;
                Request::Embed(req)
            }
            // Blocked arrivals still depart; their release answers
            // `unknown_session` and changes nothing.
            EventKind::Depart => Request::Release {
                v: PROTOCOL_VERSION,
                id: None,
                session: event.session,
                deadline_ms: None,
            },
        };
        match (event.kind, server.answer(request).body) {
            (EventKind::Arrive, ResponseBody::Ok { .. }) => {
                admitted += 1;
                live += 1;
                peak_live = peak_live.max(live);
            }
            (EventKind::Arrive, _) => blocked += 1,
            (EventKind::Depart, ResponseBody::Released { .. }) => live -= 1,
            (EventKind::Depart, _) => {}
        }
    }

    let leak_free = {
        let network = server.network();
        network.deployment_refcounts() == seed_network.deployment_refcounts()
            && (0..config.nodes).all(|v| {
                network.residual_capacity(NodeId(v)) == seed_network.residual_capacity(NodeId(v))
            })
            && network.edge_usage().is_empty()
            && network
                .graph()
                .edge_ids()
                .all(|e| network.edge_residual(e) == seed_network.edge_residual(e))
    };
    let horizon = last_time.max(f64::MIN_POSITIVE);
    Ok(ChurnPoint {
        offered_erlangs: config.rate * config.hold,
        admitted,
        blocked,
        blocking_probability: blocked as f64 / (admitted + blocked).max(1) as f64,
        mean_live: live_area / horizon,
        peak_live,
        leak_free,
    })
}

/// Sweeps offered load (by scaling the arrival rate at fixed holding
/// time) and returns one [`ChurnPoint`] per load level, plus a final
/// delay-constrained point: the mid-load stream replayed on a ring with
/// per-link latency and per-session delay budgets, so the sweep also
/// exercises QoS refusals (and their leak-free release path).
///
/// # Errors
///
/// [`ExperimentError`] from any individual run.
pub fn sweep(quick: bool) -> Result<Vec<ChurnPoint>, ExperimentError> {
    let sessions = if quick { 150 } else { 1000 };
    let mut points: Vec<ChurnPoint> = [0.2, 0.5, 1.0, 2.0, 4.0]
        .iter()
        .map(|&rate| {
            run(&ChurnConfig {
                sessions,
                rate,
                ..ChurnConfig::default()
            })
        })
        .collect::<Result<_, _>>()?;
    points.push(run(&ChurnConfig {
        sessions,
        rate: 1.0,
        link_latency: Some(1.0),
        delay_budget: Some(8.0),
        ..ChurnConfig::default()
    })?);
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_run_is_deterministic_and_leak_free() {
        let config = ChurnConfig {
            sessions: 120,
            ..ChurnConfig::default()
        };
        let a = run(&config).unwrap();
        let b = run(&config).unwrap();
        assert!(a.leak_free, "drained network must match the seed");
        assert_eq!(a.admitted, b.admitted);
        assert_eq!(a.blocked, b.blocked);
        assert_eq!(a.mean_live, b.mean_live);
        assert_eq!(a.admitted + a.blocked, 120);
    }

    #[test]
    fn blocking_rises_with_offered_load() {
        let light = run(&ChurnConfig {
            sessions: 150,
            rate: 0.2,
            ..ChurnConfig::default()
        })
        .unwrap();
        let heavy = run(&ChurnConfig {
            sessions: 150,
            rate: 8.0,
            ..ChurnConfig::default()
        })
        .unwrap();
        assert!(light.leak_free && heavy.leak_free);
        assert!(
            heavy.blocking_probability >= light.blocking_probability,
            "heavier load cannot block less: {light:?} vs {heavy:?}"
        );
        assert!(heavy.mean_live >= light.mean_live);
    }

    #[test]
    fn bandwidth_constrained_churn_is_leak_free_and_blocks_no_less() {
        let base = ChurnConfig {
            sessions: 120,
            rate: 2.0,
            ..ChurnConfig::default()
        };
        let plain = run(&base).unwrap();
        let constrained = ChurnConfig {
            link_bw: Some(1.5),
            bandwidth: Some(1.0),
            ..base
        };
        let a = run(&constrained).unwrap();
        let b = run(&constrained).unwrap();
        assert!(a.leak_free, "drained links must return to seed bandwidth");
        assert_eq!(a.admitted, b.admitted, "bandwidth churn is deterministic");
        assert_eq!(a.mean_live, b.mean_live);
        assert_eq!(a.admitted + a.blocked, 120);
        assert!(
            a.blocked >= plain.blocked,
            "adding a second constraint cannot unblock arrivals: {a:?} vs {plain:?}"
        );
    }

    #[test]
    fn delay_constrained_churn_is_leak_free_and_blocks_no_less() {
        let base = ChurnConfig {
            sessions: 120,
            rate: 2.0,
            ..ChurnConfig::default()
        };
        let plain = run(&base).unwrap();
        let constrained = ChurnConfig {
            link_latency: Some(1.0),
            delay_budget: Some(6.0),
            ..base
        };
        let a = run(&constrained).unwrap();
        let b = run(&constrained).unwrap();
        assert!(a.leak_free, "delay refusals must not leak capacity");
        assert_eq!(a.admitted, b.admitted, "delay churn is deterministic");
        assert_eq!(a.mean_live, b.mean_live);
        assert_eq!(a.admitted + a.blocked, 120);
        assert!(
            a.blocked >= plain.blocked,
            "adding a delay constraint cannot unblock arrivals: {a:?} vs {plain:?}"
        );
    }

    #[test]
    fn bad_configs_are_rejected() {
        assert!(run(&ChurnConfig {
            rate: 0.0,
            ..ChurnConfig::default()
        })
        .is_err());
        assert!(run(&ChurnConfig {
            dests: 12,
            ..ChurnConfig::default()
        })
        .is_err());
    }
}
