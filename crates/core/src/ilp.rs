//! The paper's ILP formulation (1a)–(1f) and its exact solution via the
//! `sft-lp` branch-and-bound (the CPLEX substitute, §V-C).
//!
//! Variables (paper §III-C):
//! * `ω_{j,u}` — a new instance of stage `j`'s VNF is placed on `u`
//!   (omitted where the instance is pre-deployed, i.e. `π = 1`);
//! * `ϕ_{d,j,u}` — destination `d`'s flow is served by stage `j` on `u`;
//! * `τ_{d,j,(u,v)}` — arc `(u,v)` carries destination `d`'s segment-`j`
//!   flow;
//! * `ψ_{j,e}` — edge `e` is used by segment `j` (by *any* destination);
//!   relaxed to continuous since the binaries pin it.
//!
//! Constraints: (1b) every destination is served once per stage; the
//! implicit service-requires-instance link `ϕ ≤ π + ω` (the paper leaves it
//! implicit; without it the ILP would place flows through non-existent
//! instances); (1d) capacity; (1e) per-segment flow conservation with the
//! source/destination indicators folded in as constants; (1f) multicast
//! dedup `ψ ≥ τ`, taken per *undirected* edge to match the canonical cost
//! model (see DESIGN.md §5).

use crate::embedding::{DestinationRoute, Embedding};
use crate::network::Network;
use crate::task::MulticastTask;
use crate::CoreError;
use sft_graph::{EdgeId, NodeId};
use sft_lp::{solve_mip, Cmp, MipConfig, MipSolution, MipStatus, Problem, SimplexStats, VarId};
use std::collections::{BTreeMap, VecDeque};

/// A built ILP instance with its variable maps, ready to solve.
#[derive(Clone, Debug)]
pub struct IlpModel {
    problem: Problem,
    k: usize,
    /// Directed arcs: both orientations of every edge.
    arcs: Vec<(NodeId, NodeId, EdgeId)>,
    omega: BTreeMap<(usize, NodeId), VarId>,
    phi: BTreeMap<(usize, usize, NodeId), VarId>,
    tau: BTreeMap<(usize, usize, usize), VarId>,
    psi: BTreeMap<(usize, EdgeId), VarId>,
}

/// Result of an exact (or budget-limited) ILP solve.
#[derive(Clone, Debug)]
pub struct IlpOutcome {
    /// Solver status (Optimal / Feasible / Infeasible / Unknown).
    pub status: MipStatus,
    /// Objective of the best integral solution, if any.
    pub objective: Option<f64>,
    /// Best proven lower bound on the optimum.
    pub bound: f64,
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
    /// LP work accumulated across every node relaxation (iterations,
    /// refactorizations, fill-in).
    pub lp_stats: SimplexStats,
    /// The decoded embedding of the best solution, if any.
    pub embedding: Option<Embedding>,
}

impl IlpModel {
    /// Builds the ILP for a network and task.
    ///
    /// # Errors
    ///
    /// Task/network mismatches, or LP model-building errors.
    pub fn build(network: &Network, task: &MulticastTask) -> Result<Self, CoreError> {
        task.check_against(network)?;
        let sfc = task.sfc();
        let k = sfc.len();
        let nd = task.destination_count();
        let servers: Vec<NodeId> = network.servers().collect();
        let graph = network.graph();

        let mut arcs = Vec::with_capacity(2 * graph.edge_count());
        for id in graph.edge_ids() {
            let e = graph.edge(id);
            arcs.push((e.u, e.v, id));
            arcs.push((e.v, e.u, id));
        }

        let mut p = Problem::minimize();
        let mut omega = BTreeMap::new();
        let mut phi = BTreeMap::new();
        let mut tau = BTreeMap::new();
        let mut psi = BTreeMap::new();

        // Variables.
        for j in 1..=k {
            let f = sfc.stage(j);
            for &s in &servers {
                if !network.is_deployed(f, s) {
                    let v = p.add_binary(format!("w_{j}_{s}"), network.setup_cost(f, s))?;
                    omega.insert((j, s), v);
                }
            }
        }
        for d in 0..nd {
            for j in 1..=k {
                for &s in &servers {
                    let v = p.add_binary(format!("phi_{d}_{j}_{s}"), 0.0)?;
                    phi.insert((d, j, s), v);
                }
            }
        }
        for d in 0..nd {
            for j in 0..=k {
                for (ai, _) in arcs.iter().enumerate() {
                    let v = p.add_binary(format!("tau_{d}_{j}_{ai}"), 0.0)?;
                    tau.insert((d, j, ai), v);
                }
            }
        }
        for j in 0..=k {
            for id in graph.edge_ids() {
                let v = p.add_continuous(
                    format!("psi_{j}_{}", id.index()),
                    0.0,
                    1.0,
                    graph.weight(id),
                )?;
                psi.insert((j, id), v);
            }
        }

        // (1b) every destination is served exactly once per stage.
        for d in 0..nd {
            for j in 1..=k {
                let terms: Vec<(VarId, f64)> =
                    servers.iter().map(|&s| (phi[&(d, j, s)], 1.0)).collect();
                p.add_constraint(format!("assign_{d}_{j}"), terms, Cmp::Eq, 1.0)?;
            }
        }

        // Service requires an instance: ϕ ≤ π + ω.
        for d in 0..nd {
            for j in 1..=k {
                let f = sfc.stage(j);
                for &s in &servers {
                    if network.is_deployed(f, s) {
                        continue; // π = 1 makes the constraint vacuous
                    }
                    p.add_constraint(
                        format!("inst_{d}_{j}_{s}"),
                        [(phi[&(d, j, s)], 1.0), (omega[&(j, s)], -1.0)],
                        Cmp::Le,
                        0.0,
                    )?;
                }
            }
        }

        // (1d) capacity: new instances fit in the residual budget.
        for &s in &servers {
            let terms: Vec<(VarId, f64)> = (1..=k)
                .filter_map(|j| {
                    omega
                        .get(&(j, s))
                        .map(|&v| (v, network.catalog().demand(sfc.stage(j))))
                })
                .collect();
            if !terms.is_empty() {
                p.add_constraint(
                    format!("cap_{s}"),
                    terms,
                    Cmp::Le,
                    network.residual_capacity(s),
                )?;
            }
        }

        // (1e) flow conservation per destination, segment, and node.
        // out(u) - in(u) >= phi_j(u) - phi_{j+1}(u), with stage 0 pinned to
        // the source and stage k+1 to the destination.
        for (d, &dest) in task.destinations().iter().enumerate() {
            for j in 0..=k {
                for u in graph.nodes() {
                    let mut terms: Vec<(VarId, f64)> = Vec::new();
                    for (ai, &(from, to, _)) in arcs.iter().enumerate() {
                        if from == u {
                            terms.push((tau[&(d, j, ai)], 1.0));
                        } else if to == u {
                            terms.push((tau[&(d, j, ai)], -1.0));
                        }
                    }
                    let mut rhs = 0.0;
                    if j == 0 {
                        if u == task.source() {
                            rhs += 1.0;
                        }
                    } else if let Some(&v) = phi.get(&(d, j, u)) {
                        terms.push((v, -1.0));
                    }
                    if j == k {
                        if u == dest {
                            rhs -= 1.0;
                        }
                    } else if let Some(&v) = phi.get(&(d, j + 1, u)) {
                        terms.push((v, 1.0));
                    }
                    if terms.is_empty() && rhs <= 0.0 {
                        continue; // trivially satisfied
                    }
                    p.add_constraint(format!("flow_{d}_{j}_{u}"), terms, Cmp::Ge, rhs)?;
                }
            }
        }

        // (1f) ψ dominates τ per undirected edge and segment.
        for d in 0..nd {
            for j in 0..=k {
                for (ai, &(_, _, e)) in arcs.iter().enumerate() {
                    p.add_constraint(
                        format!("dedup_{d}_{j}_{ai}"),
                        [(tau[&(d, j, ai)], 1.0), (psi[&(j, e)], -1.0)],
                        Cmp::Le,
                        0.0,
                    )?;
                }
            }
        }

        // Delay rows: each destination's route — all segments together —
        // accumulates at most the task's delay budget of effective edge
        // latency. Prices every selected τ arc by its edge's latency, so
        // the exact solver certifies delay-feasible optima.
        if let Some(budget) = task.delay_budget() {
            for d in 0..nd {
                let terms: Vec<(VarId, f64)> = (0..=k)
                    .flat_map(|j| {
                        arcs.iter()
                            .enumerate()
                            .map(move |(ai, &(_, _, e))| (j, ai, e))
                    })
                    .map(|(j, ai, e)| (tau[&(d, j, ai)], graph.effective_latency(e)))
                    .collect();
                p.add_constraint(format!("delay_{d}"), terms, Cmp::Le, budget)?;
            }
        }

        Ok(IlpModel {
            problem: p,
            k,
            arcs,
            omega,
            phi,
            tau,
            psi,
        })
    }

    /// The underlying LP problem (exposed for inspection and relaxation
    /// experiments).
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// Builds a warm-start assignment from a heuristic embedding: stage
    /// nodes come from the embedding, segment flows follow shortest paths
    /// between consecutive stage nodes (always simple, hence always
    /// ILP-feasible).
    ///
    /// Returns `None` if the embedding is malformed for this task.
    pub fn warm_start(
        &self,
        network: &Network,
        task: &MulticastTask,
        embedding: &Embedding,
    ) -> Option<Vec<f64>> {
        let mut values = vec![0.0; self.problem.var_count()];
        let dist = network.dist();
        // Arc lookup by (from, to).
        let arc_index: BTreeMap<(NodeId, NodeId), usize> = self
            .arcs
            .iter()
            .enumerate()
            .map(|(i, &(a, b, _))| ((a, b), i))
            .collect();

        for (d, route) in embedding.routes().iter().enumerate() {
            let mut nodes = vec![task.source()];
            for j in 1..=self.k {
                nodes.push(route.instance_node(j)?);
            }
            nodes.push(*task.destinations().get(d)?);
            for j in 0..=self.k {
                if j >= 1 {
                    let v = self.phi.get(&(d, j, nodes[j]))?;
                    values[v.index()] = 1.0;
                    if let Some(w) = self.omega.get(&(j, nodes[j])) {
                        values[w.index()] = 1.0;
                    }
                }
                let path = dist.path(nodes[j], nodes[j + 1])?;
                for step in path.windows(2) {
                    let ai = arc_index.get(&(step[0], step[1]))?;
                    values[self.tau.get(&(d, j, *ai))?.index()] = 1.0;
                    let e = network.graph().find_edge(step[0], step[1])?;
                    values[self.psi.get(&(j, e))?.index()] = 1.0;
                }
            }
        }
        Some(values)
    }

    /// Solves the ILP with the given branch-and-bound configuration.
    ///
    /// # Errors
    ///
    /// [`CoreError::Lp`] on solver resource exhaustion.
    pub fn solve(
        &self,
        network: &Network,
        task: &MulticastTask,
        config: &MipConfig,
    ) -> Result<IlpOutcome, CoreError> {
        let out = solve_mip(&self.problem, config)?;
        let embedding = out
            .best
            .as_ref()
            .map(|best| self.decode(network, task, best))
            .transpose()?;
        Ok(IlpOutcome {
            status: out.status,
            objective: out.best.as_ref().map(|b| b.objective),
            bound: out.best_bound,
            nodes: out.nodes_explored,
            lp_stats: out.lp_stats,
            embedding,
        })
    }

    /// Decodes a variable assignment into the canonical embedding: stage
    /// nodes from `ϕ`, segment walks from the selected `τ` arcs (falling
    /// back to shortest paths when the arc set does not trace cleanly).
    fn decode(
        &self,
        network: &Network,
        task: &MulticastTask,
        best: &MipSolution,
    ) -> Result<Embedding, CoreError> {
        let dist = network.dist();
        let mut routes = Vec::with_capacity(task.destination_count());
        for (d, &dest) in task.destinations().iter().enumerate() {
            let mut nodes = vec![task.source()];
            for j in 1..=self.k {
                // `get` (not `value`) so a stale id from a model/solution
                // mismatch surfaces as Infeasible instead of a panic.
                let s = self
                    .phi
                    .iter()
                    .find(|((dd, jj, _), v)| {
                        *dd == d && *jj == j && best.get(**v).is_some_and(|x| x > 0.5)
                    })
                    .map(|((_, _, s), _)| *s)
                    .ok_or_else(|| CoreError::Infeasible {
                        reason: format!(
                            "ILP solution assigns no stage-{j} server to destination {d}"
                        ),
                    })?;
                nodes.push(s);
            }
            nodes.push(dest);

            let mut segments = Vec::with_capacity(self.k + 1);
            for j in 0..=self.k {
                let selected: Vec<(NodeId, NodeId)> = self
                    .arcs
                    .iter()
                    .enumerate()
                    .filter(|(ai, _)| best.get(self.tau[&(d, j, *ai)]).is_some_and(|x| x > 0.5))
                    .map(|(_, &(a, b, _))| (a, b))
                    .collect();
                let seg = trace_path(&selected, nodes[j], nodes[j + 1])
                    .or_else(|| dist.path(nodes[j], nodes[j + 1]))
                    .ok_or_else(|| CoreError::Infeasible {
                        reason: format!("cannot trace segment {j} for destination {d}"),
                    })?;
                segments.push(seg);
            }
            routes.push(DestinationRoute::new(segments));
        }
        Ok(Embedding::new(routes))
    }
}

/// BFS over a selected arc set from `start` to `goal`.
fn trace_path(arcs: &[(NodeId, NodeId)], start: NodeId, goal: NodeId) -> Option<Vec<NodeId>> {
    if start == goal {
        return Some(vec![start]);
    }
    let mut adj: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
    for &(a, b) in arcs {
        adj.entry(a).or_default().push(b);
    }
    let mut pred: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    let mut queue = VecDeque::from([start]);
    while let Some(u) = queue.pop_front() {
        if u == goal {
            let mut path = vec![goal];
            let mut cur = goal;
            while cur != start {
                cur = pred[&cur];
                path.push(cur);
            }
            path.reverse();
            return Some(path);
        }
        for &v in adj.get(&u).into_iter().flatten() {
            if v != start && !pred.contains_key(&v) {
                pred.insert(v, u);
                queue.push_back(v);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::delivery_cost;
    use crate::validate::is_valid;
    use crate::vnf::{Sfc, VnfCatalog, VnfId};
    use sft_graph::Graph;

    /// Small diamond network: 0-1-3 / 0-2-3, plus a tail 3-4.
    fn small() -> (Network, MulticastTask) {
        let mut g = Graph::new(5);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(3), 1.0).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 2.0).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 2.0).unwrap();
        g.add_edge(NodeId(3), NodeId(4), 1.0).unwrap();
        let net = Network::builder(g, VnfCatalog::uniform(2))
            .all_servers(2.0)
            .unwrap()
            .uniform_setup_cost(1.0)
            .unwrap()
            .build()
            .unwrap();
        let task = MulticastTask::new(
            NodeId(0),
            vec![NodeId(4)],
            Sfc::new(vec![VnfId(0)]).unwrap(),
        )
        .unwrap();
        (net, task)
    }

    #[test]
    fn ilp_matches_hand_computed_optimum() {
        let (net, task) = small();
        let model = IlpModel::build(&net, &task).unwrap();
        let out = model.solve(&net, &task, &MipConfig::default()).unwrap();
        assert_eq!(out.status, MipStatus::Optimal);
        // Optimal: f0 anywhere on the short path 0-1-3-4; setup 1 + links 3.
        let obj = out.objective.unwrap();
        assert!((obj - 4.0).abs() < 1e-6, "objective {obj}");
        let emb = out.embedding.unwrap();
        assert!(is_valid(&net, &task, &emb));
        let cost = delivery_cost(&net, &task, &emb).unwrap().total();
        assert!(cost <= obj + 1e-6);
    }

    #[test]
    fn ilp_reuses_deployed_instances() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        let net = Network::builder(g, VnfCatalog::uniform(1))
            .all_servers(1.0)
            .unwrap()
            .uniform_setup_cost(100.0)
            .unwrap()
            .deploy(VnfId(0), NodeId(1))
            .unwrap()
            .build()
            .unwrap();
        let task = MulticastTask::new(
            NodeId(0),
            vec![NodeId(2)],
            Sfc::new(vec![VnfId(0)]).unwrap(),
        )
        .unwrap();
        let model = IlpModel::build(&net, &task).unwrap();
        let out = model.solve(&net, &task, &MipConfig::default()).unwrap();
        assert_eq!(out.status, MipStatus::Optimal);
        assert!((out.objective.unwrap() - 2.0).abs() < 1e-6); // links only
    }

    #[test]
    fn ilp_never_beats_its_own_bound_and_heuristic_respects_it() {
        let (net, task) = small();
        let model = IlpModel::build(&net, &task).unwrap();
        let out = model.solve(&net, &task, &MipConfig::default()).unwrap();
        let opt = out.objective.unwrap();
        let heuristic = crate::solve(&net, &task, &crate::SolveOptions::default()).unwrap();
        assert!(heuristic.cost.total() >= opt - 1e-6);
        assert!(out.bound <= opt + 1e-6);
    }

    #[test]
    fn warm_start_round_trips_through_the_model() {
        let (net, task) = small();
        let heuristic = crate::solve(&net, &task, &crate::SolveOptions::default()).unwrap();
        let model = IlpModel::build(&net, &task).unwrap();
        let ws = model
            .warm_start(&net, &task, &heuristic.embedding)
            .expect("warm start");
        assert!(
            model.problem().is_feasible(&ws, 1e-6),
            "warm start must satisfy the ILP"
        );
        let cfg = MipConfig {
            warm_start: Some(ws),
            ..MipConfig::default()
        };
        let out = model.solve(&net, &task, &cfg).unwrap();
        assert_eq!(out.status, MipStatus::Optimal);
    }

    #[test]
    fn multicast_dedup_shares_segment_edges() {
        // Y-shape: source 0, stem 0-1, arms 1-2 and 1-3. One VNF at 1.
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 10.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(3), 1.0).unwrap();
        let net = Network::builder(g, VnfCatalog::uniform(1))
            .all_servers(1.0)
            .unwrap()
            .uniform_setup_cost(1.0)
            .unwrap()
            .build()
            .unwrap();
        let task = MulticastTask::new(
            NodeId(0),
            vec![NodeId(2), NodeId(3)],
            Sfc::new(vec![VnfId(0)]).unwrap(),
        )
        .unwrap();
        let model = IlpModel::build(&net, &task).unwrap();
        let out = model.solve(&net, &task, &MipConfig::default()).unwrap();
        // Stem paid once (10), arms 1+1, one setup 1 -> 13. Without dedup
        // it would be 23.
        assert!((out.objective.unwrap() - 13.0).abs() < 1e-6);
    }

    /// The diamond of [`small`] with latencies decoupled from weights:
    /// the cheap arm 0-1-3 is slow (delay 5+5), the expensive arm 0-2-3
    /// fast (delay 2+2, the weight default).
    fn small_with_latencies() -> (Network, MulticastTask) {
        let mut g = Graph::new(5);
        let slow1 = g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        let slow2 = g.add_edge(NodeId(1), NodeId(3), 1.0).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 2.0).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 2.0).unwrap();
        g.add_edge(NodeId(3), NodeId(4), 1.0).unwrap();
        g.set_edge_latency(slow1, Some(5.0)).unwrap();
        g.set_edge_latency(slow2, Some(5.0)).unwrap();
        let net = Network::builder(g, VnfCatalog::uniform(2))
            .all_servers(2.0)
            .unwrap()
            .uniform_setup_cost(1.0)
            .unwrap()
            .build()
            .unwrap();
        let task = MulticastTask::new(
            NodeId(0),
            vec![NodeId(4)],
            Sfc::new(vec![VnfId(0)]).unwrap(),
        )
        .unwrap();
        (net, task)
    }

    #[test]
    fn delay_rows_steer_the_exact_optimum_onto_the_fast_arm() {
        let (net, task) = small_with_latencies();
        // Unconstrained: the slow-but-cheap arm wins (objective 4).
        let free = IlpModel::build(&net, &task).unwrap();
        let out = free.solve(&net, &task, &MipConfig::default()).unwrap();
        assert!((out.objective.unwrap() - 4.0).abs() < 1e-6);

        // Budget 6 rules out the slow arm (delay 11): the optimum pays
        // for the fast arm — links 2+2+1 plus one setup = 6.
        let task6 = task.clone().with_delay_budget(6.0).unwrap();
        let model = IlpModel::build(&net, &task6).unwrap();
        let out = model.solve(&net, &task6, &MipConfig::default()).unwrap();
        assert_eq!(out.status, MipStatus::Optimal);
        assert!((out.objective.unwrap() - 6.0).abs() < 1e-6);
        let emb = out.embedding.unwrap();
        assert!(is_valid(&net, &task6, &emb));
    }

    #[test]
    fn delay_rows_certify_infeasibility_and_agree_with_the_heuristics() {
        let (net, task) = small_with_latencies();
        // Budget 3 is below the graph's minimum achievable delay (5):
        // both the exact solver and the heuristic pipeline must refuse.
        let tight = task.clone().with_delay_budget(3.0).unwrap();
        let model = IlpModel::build(&net, &tight).unwrap();
        let out = model.solve(&net, &tight, &MipConfig::default()).unwrap();
        assert_eq!(out.status, MipStatus::Infeasible);
        assert!(matches!(
            crate::solve(&net, &tight, &crate::SolveOptions::default()),
            Err(CoreError::DelayInfeasible { .. })
        ));

        // Budget 6 is feasible for both, and the heuristic respects it.
        let loose = task.with_delay_budget(6.0).unwrap();
        let h = crate::solve(&net, &loose, &crate::SolveOptions::default()).unwrap();
        assert!(is_valid(&net, &loose, &h.embedding));
        assert!(h.max_path_delay.unwrap() <= 6.0 + 1e-9);
    }

    #[test]
    fn infeasible_when_capacity_cannot_host_chain() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        let net = Network::builder(g, VnfCatalog::uniform(2))
            .all_servers(1.0)
            .unwrap()
            .server(NodeId(1), 0.0)
            .unwrap()
            .build()
            .unwrap();
        // Two stages, total demand 2, but only node 0 has capacity 1.
        let task = MulticastTask::new(
            NodeId(0),
            vec![NodeId(1)],
            Sfc::new(vec![VnfId(0), VnfId(1)]).unwrap(),
        )
        .unwrap();
        let model = IlpModel::build(&net, &task).unwrap();
        let out = model.solve(&net, &task, &MipConfig::default()).unwrap();
        assert_eq!(out.status, MipStatus::Infeasible);
    }
}
