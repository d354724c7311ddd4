//! The target network: topology, server nodes, capacities, VNF setup costs
//! and pre-deployed instances.
//!
//! Mirrors the paper's §III-B model: `G = (V, E)` with `V = V_M ∪ V_S`
//! (servers and switches), per-server capacity `cap(v)`, per-edge link
//! connection cost `c_uv`, per-(VNF, node) setup cost `γ_{f,u}`, and the
//! deployment indicator `π_{f,u}` for instances that already exist (whose
//! reuse is free, §IV-D).

use crate::api::RerouteTrees;
use crate::vnf::{VnfCatalog, VnfId};
use crate::CoreError;
use sft_graph::numeric::exceeds;
use sft_graph::{EdgeId, Graph, LazyDistances, NodeId};
use std::sync::{Arc, OnceLock};

/// The exact state mutation committing one embedding applies: the set of
/// `(VNF, node)` pairs that need a **new** instance (`deploys`) plus the
/// pairs the embedding *reuses* (`refs`), each in canonical (sorted)
/// order. A delta is computed against a snapshot of the network
/// ([`Network::commit_delta`]), can be validated against any later state
/// without mutating it ([`Network::validate_delta`]), and is applied
/// all-or-nothing ([`Network::apply_delta`]) — the split transactional
/// commit pipelines (solve against a snapshot, validate-and-apply under a
/// short critical section) are built from.
///
/// Deployments are reference counted: every pair in `deploys` ∪ `refs`
/// adds one reference on apply, and [`Network::apply_release`] applies
/// the exact inverse, so an instance shared by two sessions survives the
/// first release and its capacity is freed only when the last reference
/// drops.
///
/// A delta also carries sorted **edge deltas** — the second half of the
/// unified resource model: `(edge, bandwidth)` entries charging the
/// session's bandwidth demand once per distinct capacitated tree edge,
/// applied and released with exactly the same all-or-nothing discipline
/// as node deltas. Uncapacitated edges never appear (their residual is
/// infinite), so bandwidth-free tasks produce the same delta as before.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct CommitDelta {
    deploys: Vec<(VnfId, NodeId)>,
    refs: Vec<(VnfId, NodeId)>,
    edges: Vec<(EdgeId, f64)>,
}

impl CommitDelta {
    /// A delta from explicit new-deployment `(VNF, node)` pairs
    /// (deduplicated, sorted), with no reused pairs.
    pub fn new(deploys: Vec<(VnfId, NodeId)>) -> Self {
        CommitDelta::with_refs(deploys, Vec::new())
    }

    /// A delta from new-deployment pairs plus reused-instance pairs. Both
    /// sides are canonicalized; a pair listed in both is kept on the
    /// `deploys` side only (a new instance is trivially also referenced).
    pub fn with_refs(deploys: Vec<(VnfId, NodeId)>, refs: Vec<(VnfId, NodeId)>) -> Self {
        CommitDelta::with_usage(deploys, refs, Vec::new())
    }

    /// The fully general constructor: node deltas plus `(edge, bandwidth)`
    /// edge deltas. All three sides are canonicalized (sorted, exact
    /// duplicates removed).
    pub fn with_usage(
        mut deploys: Vec<(VnfId, NodeId)>,
        mut refs: Vec<(VnfId, NodeId)>,
        mut edges: Vec<(EdgeId, f64)>,
    ) -> Self {
        deploys.sort_unstable();
        deploys.dedup();
        refs.sort_unstable();
        refs.dedup();
        refs.retain(|p| deploys.binary_search(p).is_err());
        edges.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        edges.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
        CommitDelta {
            deploys,
            refs,
            edges,
        }
    }

    /// The `(edge, bandwidth)` deltas, in canonical [`EdgeId`] order.
    pub fn edges(&self) -> &[(EdgeId, f64)] {
        &self.edges
    }

    /// The distinct edges this delta touches, ascending — the edge
    /// analogue of [`CommitDelta::touched_nodes`] for version-vector
    /// conflict detection.
    pub fn touched_edges(&self) -> Vec<EdgeId> {
        let mut out: Vec<EdgeId> = self.edges.iter().map(|&(e, _)| e).collect();
        out.dedup();
        out
    }

    /// The new deployments, in canonical `(VnfId, NodeId)` order.
    pub fn deploys(&self) -> &[(VnfId, NodeId)] {
        &self.deploys
    }

    /// The reused (reference-only) instances, in canonical order. These
    /// consume no capacity but pin their instance against release.
    pub fn refs(&self) -> &[(VnfId, NodeId)] {
        &self.refs
    }

    /// Every pair the delta references — `deploys` then `refs`, each in
    /// canonical order. This is the set whose reference counts change.
    pub fn usage(&self) -> impl Iterator<Item = (VnfId, NodeId)> + '_ {
        self.deploys.iter().chain(self.refs.iter()).copied()
    }

    /// Whether the commit would change anything (a fully-reused embedding
    /// with no pinned references and no bandwidth charge has an empty
    /// delta).
    pub fn is_empty(&self) -> bool {
        self.deploys.is_empty() && self.refs.is_empty() && self.edges.is_empty()
    }

    /// The distinct nodes this delta touches (new deployments *and*
    /// reused references — a reuse conflicts with a concurrent release of
    /// the instance it rides on), ascending.
    pub fn touched_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.usage().map(|(_, v)| v).collect();
        nodes.sort_unstable_by_key(|v| v.0);
        nodes.dedup();
        nodes
    }

    /// Total capacity the delta consumes under `catalog` demands (new
    /// deployments only; reuse is capacity-free).
    pub fn total_demand(&self, catalog: &VnfCatalog) -> f64 {
        self.deploys.iter().map(|&(f, _)| catalog.demand(f)).sum()
    }

    /// Total bandwidth the delta charges, summed over all edges — what a
    /// release gives back to the links in aggregate (the wire protocol's
    /// `bw_freed`).
    pub fn total_bandwidth(&self) -> f64 {
        self.edges.iter().map(|&(_, b)| b).sum()
    }
}

/// An immutable (apart from explicit deployment commits) view of the target
/// network with everything the embedding algorithms need, including a
/// shared [`LazyDistances`] engine over the link-connection costs.
#[derive(Clone, Debug)]
pub struct Network {
    /// Immutable after build, so clones share it like `dist`.
    graph: Arc<Graph>,
    dist: Arc<LazyDistances>,
    servers: Vec<bool>,
    capacity: Vec<f64>,
    catalog: VnfCatalog,
    setup_cost: Vec<Vec<f64>>,
    /// Per-(VNF, node) live reference counts, node-major: the count of
    /// `f` on `v` sits at `v * k + f` for a catalog of `k` types, so a
    /// node's counts are one contiguous run. An instance exists iff its
    /// count is positive; capacity is consumed once per live instance,
    /// not per reference. Builder pre-deployments enter with one pinned
    /// reference that no session owns, so they are never released.
    deployed: Vec<u32>,
    /// Per-edge committed bandwidth, index-aligned with the graph's dense
    /// edge ids (0.0 for uncapacitated edges, which are never charged).
    edge_used: Vec<f64>,
    /// Per-edge live session counts — the bandwidth analogue of the
    /// instance refcounts. When the last session on an edge departs its
    /// usage snaps back to exactly 0.0, so a fully drained link always
    /// reports its full capacity regardless of float rounding.
    edge_sessions: Vec<u32>,
    /// Memos indexed by server. Like `dist`, they read only the graph and
    /// the server set, so clones share them and a bandwidth view (a
    /// different graph) gets its own.
    memo: Arc<ServerMemo>,
}

/// What every solve on one graph can share, indexed by server and filled
/// on first use: the server-to-server cost distances MSA's MOD network
/// reads, and the delay repair's per-(rung, server) trees.
#[derive(Debug)]
struct ServerMemo {
    /// Server nodes in index order.
    servers: Vec<NodeId>,
    /// `block[a * |S| + b]`: the cost distance from `servers[a]` to
    /// `servers[b]`, `INFINITY` when unreachable.
    block: OnceLock<Box<[f64]>>,
    reroute: RerouteTrees,
}

impl ServerMemo {
    fn new(servers: Vec<NodeId>) -> Arc<ServerMemo> {
        Arc::new(ServerMemo {
            reroute: RerouteTrees::new(servers.len()),
            servers,
            block: OnceLock::new(),
        })
    }
}

impl Network {
    /// Starts building a network over a topology and a VNF catalog.
    pub fn builder(graph: Graph, catalog: VnfCatalog) -> NetworkBuilder {
        let n = graph.node_count();
        let nf = catalog.len();
        NetworkBuilder {
            graph,
            catalog,
            servers: vec![false; n],
            capacity: vec![0.0; n],
            setup_cost: vec![vec![1.0; n]; nf],
            deployed: vec![vec![false; n]; nf],
        }
    }

    /// The underlying topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of nodes (servers + switches).
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Shortest paths over link-connection costs, computed one source row
    /// at a time on first query and shared by every clone of this network.
    pub fn dist(&self) -> &LazyDistances {
        &self.dist
    }

    /// The delay repair's memoized per-(rung, server) trees.
    pub(crate) fn reroute_trees(&self) -> &RerouteTrees {
        &self.memo.reroute
    }

    /// The server nodes, in index order ([`Network::servers`], collected
    /// once per network).
    pub(crate) fn server_list(&self) -> &[NodeId] {
        &self.memo.servers
    }

    /// The cost distance between every ordered pair of servers, row-major
    /// over [`Network::server_list`] (`INFINITY` when unreachable): the
    /// arcs between columns of the MOD network. The first call reads every
    /// server's distance row; clones share the result.
    pub(crate) fn server_block(&self) -> &[f64] {
        self.memo.block.get_or_init(|| {
            let servers = &self.memo.servers;
            servers
                .iter()
                .flat_map(|&a| {
                    servers
                        .iter()
                        .map(move |&b| self.dist.distance(a, b).unwrap_or(f64::INFINITY))
                })
                .collect()
        })
    }

    /// The VNF catalog.
    pub fn catalog(&self) -> &VnfCatalog {
        &self.catalog
    }

    /// Whether `v` is a server node (member of `V_M`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn is_server(&self, v: NodeId) -> bool {
        self.servers[v.0]
    }

    /// Iterator over all server nodes, in index order.
    pub fn servers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.servers
            .iter()
            .enumerate()
            .filter(|(_, &s)| s)
            .map(|(i, _)| NodeId(i))
    }

    /// Number of server nodes.
    pub fn server_count(&self) -> usize {
        self.servers.iter().filter(|&&s| s).count()
    }

    /// Deployment capacity `cap(v)` of a node (0 for switches).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn capacity(&self, v: NodeId) -> f64 {
        self.capacity[v.0]
    }

    /// Total resource demand of the instances already deployed on `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn deployed_load(&self, v: NodeId) -> f64 {
        self.refs_on(v)
            .iter()
            .zip(self.catalog.ids())
            .filter(|&(&refs, _)| refs > 0)
            .map(|(_, f)| self.catalog.demand(f))
            .sum()
    }

    /// The reference counts of every catalog type on `v`, in type order.
    fn refs_on(&self, v: NodeId) -> &[u32] {
        let k = self.catalog.len();
        &self.deployed[v.0 * k..(v.0 + 1) * k]
    }

    /// The reference count of `f` on `v`.
    fn refs_mut(&mut self, f: VnfId, v: NodeId) -> &mut u32 {
        let k = self.catalog.len();
        &mut self.deployed[v.0 * k..(v.0 + 1) * k][f.0]
    }

    /// Capacity left on `v` after accounting for already-deployed
    /// instances — the budget available to *new* instances (constraint 1d).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn residual_capacity(&self, v: NodeId) -> f64 {
        self.capacity[v.0] - self.deployed_load(v)
    }

    /// Total capacity left across all servers after accounting for every
    /// deployed instance — the network-wide budget available to new
    /// instances. Admission layers compare this against
    /// [`Network::min_new_demand`] to shed tasks that cannot possibly fit.
    pub fn total_residual_capacity(&self) -> f64 {
        self.servers().map(|v| self.residual_capacity(v)).sum()
    }

    /// Residual bandwidth of an edge: its capacity minus the bandwidth
    /// committed by live sessions, or `f64::INFINITY` for uncapacitated
    /// edges.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of bounds.
    pub fn edge_residual(&self, e: EdgeId) -> f64 {
        match self.graph.edge_capacity(e) {
            Some(cap) => cap - self.edge_used[e.0],
            None => f64::INFINITY,
        }
    }

    /// Live sessions currently charging bandwidth on an edge.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of bounds.
    pub fn edge_session_count(&self, e: EdgeId) -> u32 {
        self.edge_sessions[e.0]
    }

    /// Every edge with live bandwidth charges, as canonical
    /// `(edge, used bandwidth, sessions)` triples — the edge analogue of
    /// [`Network::deployment_refcounts`], used by replay-identity tests to
    /// compare networks *including* link state.
    pub fn edge_usage(&self) -> Vec<(EdgeId, f64, u32)> {
        (0..self.edge_sessions.len())
            .filter(|&i| self.edge_sessions[i] > 0)
            .map(|i| (EdgeId(i), self.edge_used[i], self.edge_sessions[i]))
            .collect()
    }

    /// A filtered copy of the network for solving a task with bandwidth
    /// demand `bandwidth`: every edge whose residual bandwidth cannot
    /// carry the demand is dropped, so MSA/KMB/OPA and the capacity
    /// repair route around saturated links without per-algorithm changes.
    ///
    /// Returns `Ok(None)` when no filtering is needed — the demand is
    /// zero, or every edge still has room — in which case callers solve
    /// on `self` directly (and keep their shared Steiner cache; a
    /// filtered view has a *different topology* and must never touch it).
    /// Node ids are preserved, so an embedding computed on the view is
    /// valid verbatim on the original network; only the dense edge ids
    /// differ, which is why [`Network::commit_delta`] recovers edges from
    /// node pairs on `self`. The view gets its own distance engine, whose
    /// rows are computed on demand like the network's.
    ///
    /// # Errors
    ///
    /// None today: building the view cannot fail.
    pub fn bandwidth_view(&self, bandwidth: f64) -> Result<Option<Network>, CoreError> {
        if bandwidth <= 0.0 || !self.graph.has_edge_capacities() {
            return Ok(None);
        }
        let saturated = |e: EdgeId| exceeds(bandwidth, self.edge_residual(e));
        if !self.graph.edge_ids().any(saturated) {
            return Ok(None);
        }
        let mut filtered = Graph::new(self.graph.node_count());
        for e in self.graph.edge_ids() {
            if saturated(e) {
                continue;
            }
            let edge = self.graph.edge(e);
            let id = filtered
                .add_edge_with_capacity(edge.u, edge.v, edge.weight, edge.capacity)
                .expect("edges stay unique under filtering");
            filtered
                .set_edge_latency(id, edge.latency)
                .expect("a stored latency is always valid");
        }
        let edge_count = filtered.edge_count();
        Ok(Some(Network {
            dist: Arc::new(LazyDistances::new(&filtered)),
            graph: Arc::new(filtered),
            servers: self.servers.clone(),
            capacity: self.capacity.clone(),
            catalog: self.catalog.clone(),
            setup_cost: self.setup_cost.clone(),
            deployed: self.deployed.clone(),
            edge_used: vec![0.0; edge_count],
            edge_sessions: vec![0; edge_count],
            memo: ServerMemo::new(self.server_list().to_vec()),
        }))
    }

    /// A lower bound on the new capacity `task` must consume: the summed
    /// demand `μ_f` of every distinct chain VNF type with no deployed
    /// instance anywhere in the network. Such a type forces at least one
    /// new placement; types that are already deployed somewhere *may* be
    /// reused for free (§IV-D), so they contribute nothing to the bound.
    ///
    /// The bound is sound for admission control: it never exceeds the
    /// demand of any feasible embedding, so rejecting when it exceeds
    /// [`Network::total_residual_capacity`] never sheds a servable task.
    pub fn min_new_demand(&self, task: &crate::task::MulticastTask) -> f64 {
        self.undeployed_chain_types(task)
            .map(|f| self.catalog.demand(f))
            .sum()
    }

    /// The largest per-instance demand among the task's chain types that
    /// are deployed nowhere (0.0 when every type is reusable). Each new
    /// instance must fit on a single server, so admission compares this
    /// against the largest server residual.
    pub fn max_new_instance_demand(&self, task: &crate::task::MulticastTask) -> f64 {
        self.undeployed_chain_types(task)
            .map(|f| self.catalog.demand(f))
            .fold(0.0, f64::max)
    }

    /// Distinct chain VNF types of `task` with no deployed instance on any
    /// node. Out-of-catalog ids are skipped (task validation reports them).
    fn undeployed_chain_types<'a>(
        &'a self,
        task: &'a crate::task::MulticastTask,
    ) -> impl Iterator<Item = VnfId> + 'a {
        let k = self.catalog.len();
        self.catalog
            .ids()
            .filter(|&f| task.sfc().stages().contains(&f))
            .filter(move |&f| !self.deployed.iter().skip(f.0).step_by(k).any(|&r| r > 0))
    }

    /// Whether an instance of `f` is already deployed on `v` (`π_{f,v}`).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of bounds.
    pub fn is_deployed(&self, f: VnfId, v: NodeId) -> bool {
        self.refcount(f, v) > 0
    }

    /// The number of live references held against the instance of `f` on
    /// `v` (0 when no instance is deployed).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of bounds.
    pub fn refcount(&self, f: VnfId, v: NodeId) -> u32 {
        self.refs_on(v)[f.0]
    }

    /// Raw setup cost `γ_{f,v}` of placing a *new* instance of `f` on `v`,
    /// ignoring any existing deployment.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of bounds.
    pub fn setup_cost(&self, f: VnfId, v: NodeId) -> f64 {
        self.setup_cost[f.0][v.0]
    }

    /// Setup cost actually incurred by using `f` on `v`: zero when an
    /// instance is already deployed (§IV-D), `γ_{f,v}` otherwise.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of bounds.
    pub fn effective_setup_cost(&self, f: VnfId, v: NodeId) -> f64 {
        if self.is_deployed(f, v) {
            0.0
        } else {
            self.setup_cost[f.0][v.0]
        }
    }

    /// The paper's `l_G`: the average shortest-path cost of the network,
    /// used by Table I to scale VNF deployment costs.
    pub fn average_path_cost(&self) -> f64 {
        self.dist.average_distance()
    }

    /// Records a new deployment of `f` on `v` (e.g. after committing an
    /// embedding so later tasks can reuse its instances). Idempotent for
    /// already-deployed pairs.
    ///
    /// # Errors
    ///
    /// * [`CoreError::NotAServer`] if `v` is a switch.
    /// * [`CoreError::CapacityExceeded`] if the instance does not fit.
    /// * [`CoreError::VnfOutOfBounds`] / [`CoreError::NodeOutOfBounds`] for
    ///   invalid ids.
    pub fn deploy(&mut self, f: VnfId, v: NodeId) -> Result<(), CoreError> {
        self.check_node(v)?;
        self.catalog.check(f)?;
        if !self.servers[v.0] {
            return Err(CoreError::NotAServer { node: v.0 });
        }
        if self.is_deployed(f, v) {
            return Ok(());
        }
        let load = self.deployed_load(v) + self.catalog.demand(f);
        if exceeds(load, self.capacity[v.0]) {
            return Err(CoreError::CapacityExceeded {
                node: v.0,
                capacity: self.capacity[v.0],
                load,
            });
        }
        *self.refs_mut(f, v) = 1;
        Ok(())
    }

    /// The [`CommitDelta`] committing `embedding` would apply to the
    /// network **as it is right now**: every `(VNF, node)` instance the
    /// embedding uses, split into pairs that need a new instance
    /// (`deploys`) and pairs that reuse a live one (`refs`). Both sides
    /// take a reference on apply, so releasing the delta later gives back
    /// exactly what this session held — and nothing another session still
    /// uses.
    ///
    /// When `task` carries a bandwidth demand, the delta also charges it
    /// against every distinct *capacitated* edge the delivery routes
    /// traverse — once per edge per session, no matter how many
    /// destinations share the edge (tree edges are shared by design).
    /// Edges are recovered from consecutive node pairs on **this**
    /// network's graph, so deltas from a [`Network::bandwidth_view`]
    /// solve are valid here verbatim.
    pub fn commit_delta(
        &self,
        task: &crate::task::MulticastTask,
        embedding: &crate::embedding::Embedding,
    ) -> CommitDelta {
        let (deploys, refs) = embedding
            .typed_instances(task)
            .into_iter()
            .partition(|&(f, v)| !self.is_deployed(f, v));
        let mut edges = Vec::new();
        let bandwidth = task.bandwidth();
        if bandwidth > 0.0 && self.graph.has_edge_capacities() {
            for route in embedding.routes() {
                for segment in route.segments() {
                    for w in segment.windows(2) {
                        if w[0] == w[1] {
                            continue;
                        }
                        if let Some(e) = self.graph.find_edge(w[0], w[1]) {
                            if self.graph.edge_capacity(e).is_some() {
                                edges.push((e, bandwidth));
                            }
                        }
                    }
                }
            }
        }
        CommitDelta::with_usage(deploys, refs, edges)
    }

    /// Checks that `delta` can be applied to the **current** state without
    /// violating any invariant, mutating nothing. Pairs that are already
    /// deployed (a delta computed against an older snapshot) are treated
    /// as satisfied and consume no capacity.
    ///
    /// # Errors
    ///
    /// * [`CoreError::VnfOutOfBounds`] / [`CoreError::NodeOutOfBounds`]
    ///   for invalid ids.
    /// * [`CoreError::NotAServer`] if a pair targets a switch.
    /// * [`CoreError::CapacityExceeded`] if any node's aggregate new load
    ///   does not fit its residual capacity.
    /// * [`CoreError::EdgeOutOfBounds`] / [`CoreError::InvalidParameter`]
    ///   for invalid edge deltas.
    /// * [`CoreError::LinkCapacityExceeded`] if any edge's aggregate new
    ///   bandwidth does not fit its residual.
    pub fn validate_delta(&self, delta: &CommitDelta) -> Result<(), CoreError> {
        for (f, v) in delta.usage() {
            self.catalog.check(f)?;
            self.check_node(v)?;
            if !self.servers[v.0] {
                return Err(CoreError::NotAServer { node: v.0 });
            }
        }
        for v in delta.touched_nodes() {
            // A pair with no live instance consumes fresh capacity no
            // matter which side of the delta it sits on: a `ref` whose
            // instance has meanwhile been released re-creates it.
            let new_load: f64 = delta
                .usage()
                .filter(|&(f, u)| u == v && !self.is_deployed(f, u))
                .map(|(f, _)| self.catalog.demand(f))
                .sum();
            let load = self.deployed_load(v) + new_load;
            if exceeds(load, self.capacity[v.0]) {
                return Err(CoreError::CapacityExceeded {
                    node: v.0,
                    capacity: self.capacity[v.0],
                    load,
                });
            }
        }
        self.validate_edge_charges(delta)?;
        Ok(())
    }

    /// The edge half of [`Network::validate_delta`]: aggregate the charge
    /// per distinct edge (deltas are sorted, so groups are contiguous)
    /// and check it against the edge's residual bandwidth.
    fn validate_edge_charges(&self, delta: &CommitDelta) -> Result<(), CoreError> {
        let edges = delta.edges();
        let mut i = 0;
        while i < edges.len() {
            let e = edges[i].0;
            self.check_edge(e)?;
            let mut amount = 0.0;
            while i < edges.len() && edges[i].0 == e {
                let b = edges[i].1;
                if !b.is_finite() || b < 0.0 {
                    return Err(CoreError::InvalidParameter {
                        context: "edge bandwidth delta",
                        value: b,
                    });
                }
                amount += b;
                i += 1;
            }
            if let Some(cap) = self.graph.edge_capacity(e) {
                let load = self.edge_used[e.0] + amount;
                if exceeds(load, cap) {
                    return Err(CoreError::LinkCapacityExceeded {
                        edge: e.0,
                        capacity: cap,
                        load,
                    });
                }
            }
        }
        Ok(())
    }

    /// Applies `delta` atomically: validates every pair first, then adds
    /// one reference per used pair (creating instances where the count
    /// was zero) and charges every edge delta against its link. On error
    /// **nothing** is mutated — the all-or-nothing half of the
    /// transactional commit split.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Network::validate_delta`].
    pub fn apply_delta(&mut self, delta: &CommitDelta) -> Result<(), CoreError> {
        self.validate_delta(delta)?;
        for (f, v) in delta.usage() {
            *self.refs_mut(f, v) += 1;
        }
        for &(e, b) in delta.edges() {
            self.edge_used[e.0] += b;
            self.edge_sessions[e.0] += 1;
        }
        Ok(())
    }

    /// Checks that `delta` can be released against the **current** state:
    /// every pair it references (new deployments and reuses alike) must
    /// hold at least one live reference. Mutates nothing.
    ///
    /// # Errors
    ///
    /// * [`CoreError::VnfOutOfBounds`] / [`CoreError::NodeOutOfBounds`]
    ///   for invalid ids.
    /// * [`CoreError::InstanceNotDeployed`] if any referenced pair has no
    ///   live reference to give back.
    /// * [`CoreError::EdgeOutOfBounds`] for an invalid edge id.
    /// * [`CoreError::LinkCapacityExceeded`] if an edge delta would
    ///   release more sessions than the edge carries (the inverse
    ///   overflow: it would drive the usage below zero).
    pub fn validate_release(&self, delta: &CommitDelta) -> Result<(), CoreError> {
        for (f, v) in delta.usage() {
            self.catalog.check(f)?;
            self.check_node(v)?;
            if !self.is_deployed(f, v) {
                return Err(CoreError::InstanceNotDeployed {
                    vnf: f.0,
                    node: v.0,
                });
            }
        }
        let edges = delta.edges();
        let mut i = 0;
        while i < edges.len() {
            let e = edges[i].0;
            self.check_edge(e)?;
            let mut entries = 0u32;
            let mut amount = 0.0;
            while i < edges.len() && edges[i].0 == e {
                amount += edges[i].1;
                entries += 1;
                i += 1;
            }
            if self.edge_sessions[e.0] < entries {
                return Err(CoreError::LinkCapacityExceeded {
                    edge: e.0,
                    capacity: self.graph.edge_capacity(e).unwrap_or(f64::INFINITY),
                    load: self.edge_used[e.0] - amount,
                });
            }
        }
        Ok(())
    }

    /// Applies the exact inverse of [`Network::apply_delta`] atomically:
    /// drops one reference per pair the delta uses, removing instances
    /// whose count reaches zero. Returns the removed pairs in canonical
    /// order — only their capacity is freed; an instance another session
    /// still references survives untouched. On error nothing is mutated.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Network::validate_release`].
    pub fn apply_release(
        &mut self,
        delta: &CommitDelta,
    ) -> Result<Vec<(VnfId, NodeId)>, CoreError> {
        self.validate_release(delta)?;
        let mut freed = Vec::new();
        for (f, v) in delta.usage() {
            let refs = self.refs_mut(f, v);
            *refs -= 1;
            if *refs == 0 {
                freed.push((f, v));
            }
        }
        freed.sort_unstable();
        for &(e, b) in delta.edges() {
            self.edge_sessions[e.0] -= 1;
            if self.edge_sessions[e.0] == 0 {
                // Last session off the link: snap to exactly zero so the
                // full capacity is restored regardless of float rounding
                // across intervening commits and releases.
                self.edge_used[e.0] = 0.0;
            } else {
                self.edge_used[e.0] -= b;
            }
        }
        Ok(freed)
    }

    /// Commits every new instance of an embedding as a deployment, so that
    /// later multicast tasks can reuse them for free — the paper's
    /// "network with deployed VNFs" scenario (§IV-D) arises from exactly
    /// this kind of instance accretion across tasks. Implemented as
    /// [`Network::commit_delta`] + [`Network::apply_delta`], so the commit
    /// is all-or-nothing: on error the network is unchanged.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Network::validate_delta`].
    pub fn commit_embedding(
        &mut self,
        task: &crate::task::MulticastTask,
        embedding: &crate::embedding::Embedding,
    ) -> Result<(), CoreError> {
        let delta = self.commit_delta(task, embedding);
        self.apply_delta(&delta)
    }

    /// Every deployed `(VNF, node)` pair, in canonical order — the
    /// comparable fingerprint of the mutable network state (capacities and
    /// costs are immutable after build, so two networks built alike with
    /// equal deployment sets are byte-equivalent for every solver).
    pub fn deployed_pairs(&self) -> Vec<(VnfId, NodeId)> {
        self.deployment_refcounts()
            .into_iter()
            .map(|(f, v, _)| (f, v))
            .collect()
    }

    /// Every live `(VNF, node, refcount)` triple, in canonical order —
    /// the refcount-aware extension of [`Network::deployed_pairs`], used
    /// by replay-identity tests to compare networks *including* how many
    /// sessions share each instance.
    pub fn deployment_refcounts(&self) -> Vec<(VnfId, NodeId, u32)> {
        let mut out = Vec::new();
        for f in self.catalog.ids() {
            for v in self.graph.nodes() {
                let refs = self.refcount(f, v);
                if refs > 0 {
                    out.push((f, v, refs));
                }
            }
        }
        out
    }

    /// Validates an edge id against this network.
    ///
    /// # Errors
    ///
    /// [`CoreError::EdgeOutOfBounds`] otherwise.
    pub fn check_edge(&self, e: EdgeId) -> Result<(), CoreError> {
        if e.0 < self.graph.edge_count() {
            Ok(())
        } else {
            Err(CoreError::EdgeOutOfBounds {
                edge: e.0,
                len: self.graph.edge_count(),
            })
        }
    }

    /// Validates a node id against this network.
    ///
    /// # Errors
    ///
    /// [`CoreError::NodeOutOfBounds`] otherwise.
    pub fn check_node(&self, v: NodeId) -> Result<(), CoreError> {
        if v.0 < self.node_count() {
            Ok(())
        } else {
            Err(CoreError::NodeOutOfBounds {
                node: v.0,
                len: self.node_count(),
            })
        }
    }
}

/// Builder for [`Network`]. See [`Network::builder`].
#[derive(Clone, Debug)]
pub struct NetworkBuilder {
    graph: Graph,
    catalog: VnfCatalog,
    servers: Vec<bool>,
    capacity: Vec<f64>,
    setup_cost: Vec<Vec<f64>>,
    deployed: Vec<Vec<bool>>,
}

impl NetworkBuilder {
    /// Marks `v` as a server node with the given deployment capacity.
    ///
    /// # Errors
    ///
    /// * [`CoreError::NodeOutOfBounds`] for an invalid node.
    /// * [`CoreError::InvalidParameter`] for a negative or non-finite
    ///   capacity.
    pub fn server(mut self, v: NodeId, capacity: f64) -> Result<Self, CoreError> {
        if v.0 >= self.graph.node_count() {
            return Err(CoreError::NodeOutOfBounds {
                node: v.0,
                len: self.graph.node_count(),
            });
        }
        if !capacity.is_finite() || capacity < 0.0 {
            return Err(CoreError::InvalidParameter {
                context: "server capacity",
                value: capacity,
            });
        }
        self.servers[v.0] = true;
        self.capacity[v.0] = capacity;
        Ok(self)
    }

    /// Marks every node as a server with the same capacity — the common
    /// configuration in the paper's synthetic evaluation.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for a negative or non-finite
    /// capacity.
    pub fn all_servers(mut self, capacity: f64) -> Result<Self, CoreError> {
        if !capacity.is_finite() || capacity < 0.0 {
            return Err(CoreError::InvalidParameter {
                context: "server capacity",
                value: capacity,
            });
        }
        self.servers.iter_mut().for_each(|s| *s = true);
        self.capacity.iter_mut().for_each(|c| *c = capacity);
        Ok(self)
    }

    /// Sets the setup cost `γ_{f,v}` for one (VNF, node) pair.
    ///
    /// # Errors
    ///
    /// Invalid ids or a negative / non-finite cost.
    pub fn setup_cost(mut self, f: VnfId, v: NodeId, cost: f64) -> Result<Self, CoreError> {
        self.catalog.check(f)?;
        if v.0 >= self.graph.node_count() {
            return Err(CoreError::NodeOutOfBounds {
                node: v.0,
                len: self.graph.node_count(),
            });
        }
        if !cost.is_finite() || cost < 0.0 {
            return Err(CoreError::InvalidParameter {
                context: "VNF setup cost",
                value: cost,
            });
        }
        self.setup_cost[f.0][v.0] = cost;
        Ok(self)
    }

    /// Sets the same setup cost for every (VNF, node) pair.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for a negative / non-finite cost.
    pub fn uniform_setup_cost(mut self, cost: f64) -> Result<Self, CoreError> {
        if !cost.is_finite() || cost < 0.0 {
            return Err(CoreError::InvalidParameter {
                context: "VNF setup cost",
                value: cost,
            });
        }
        for row in &mut self.setup_cost {
            row.iter_mut().for_each(|c| *c = cost);
        }
        Ok(self)
    }

    /// Records a pre-deployed instance of `f` on `v` (the paper's
    /// `π_{f,v} = 1`). Capacity is validated at [`NetworkBuilder::build`].
    ///
    /// # Errors
    ///
    /// Invalid ids.
    pub fn deploy(mut self, f: VnfId, v: NodeId) -> Result<Self, CoreError> {
        self.catalog.check(f)?;
        if v.0 >= self.graph.node_count() {
            return Err(CoreError::NodeOutOfBounds {
                node: v.0,
                len: self.graph.node_count(),
            });
        }
        self.deployed[f.0][v.0] = true;
        Ok(self)
    }

    /// Finalizes the network: validates deployments against server flags
    /// and capacities, and snapshots the graph into its distance engine
    /// (no shortest paths are computed until a solve asks for a row).
    ///
    /// # Errors
    ///
    /// * [`CoreError::NotAServer`] if an instance is deployed on a switch.
    /// * [`CoreError::CapacityExceeded`] if pre-deployments overload a node.
    pub fn build(self) -> Result<Network, CoreError> {
        for f in self.catalog.ids() {
            for v in 0..self.graph.node_count() {
                if self.deployed[f.0][v] && !self.servers[v] {
                    return Err(CoreError::NotAServer { node: v });
                }
            }
        }
        for v in 0..self.graph.node_count() {
            let load: f64 = self
                .catalog
                .ids()
                .filter(|&f| self.deployed[f.0][v])
                .map(|f| self.catalog.demand(f))
                .sum();
            if exceeds(load, self.capacity[v]) {
                return Err(CoreError::CapacityExceeded {
                    node: v,
                    capacity: self.capacity[v],
                    load,
                });
            }
        }
        let k = self.catalog.len();
        let deployed = (0..self.graph.node_count() * k)
            .map(|i| u32::from(self.deployed[i % k][i / k]))
            .collect();
        let edge_count = self.graph.edge_count();
        let servers = (0..self.graph.node_count())
            .filter(|&v| self.servers[v])
            .map(NodeId)
            .collect();
        Ok(Network {
            memo: ServerMemo::new(servers),
            dist: Arc::new(LazyDistances::new(&self.graph)),
            graph: Arc::new(self.graph),
            servers: self.servers,
            capacity: self.capacity,
            catalog: self.catalog,
            setup_cost: self.setup_cost,
            deployed,
            edge_used: vec![0.0; edge_count],
            edge_sessions: vec![0; edge_count],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sft_graph::Graph;

    fn line_graph(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n - 1 {
            g.add_edge(NodeId(i), NodeId(i + 1), 1.0).unwrap();
        }
        g
    }

    #[test]
    fn commit_delta_sorts_dedups_and_aggregates() {
        let catalog = VnfCatalog::uniform(3);
        let delta = CommitDelta::new(vec![
            (VnfId(2), NodeId(1)),
            (VnfId(0), NodeId(3)),
            (VnfId(2), NodeId(1)), // duplicate
            (VnfId(1), NodeId(3)),
        ]);
        assert_eq!(
            delta.deploys(),
            &[
                (VnfId(0), NodeId(3)),
                (VnfId(1), NodeId(3)),
                (VnfId(2), NodeId(1))
            ]
        );
        assert_eq!(delta.touched_nodes(), vec![NodeId(1), NodeId(3)]);
        assert_eq!(delta.total_demand(&catalog), 3.0);
        assert!(CommitDelta::default().is_empty());
    }

    #[test]
    fn apply_delta_is_all_or_nothing() {
        let mut net = Network::builder(line_graph(3), VnfCatalog::uniform(2))
            .all_servers(1.0)
            .unwrap()
            .build()
            .unwrap();
        // Two unit-demand instances on one capacity-1.0 server: validation
        // must reject the aggregate even though each pair fits alone.
        let delta = CommitDelta::new(vec![(VnfId(0), NodeId(1)), (VnfId(1), NodeId(1))]);
        let err = net.apply_delta(&delta).unwrap_err();
        assert!(matches!(err, CoreError::CapacityExceeded { node: 1, .. }));
        assert!(net.deployed_pairs().is_empty(), "nothing may be committed");
        assert_eq!(net.residual_capacity(NodeId(1)), 1.0);

        // Split across servers the same pairs fit, and already-deployed
        // pairs are capacity-free on re-apply (a second reference, not a
        // second instance).
        let ok = CommitDelta::new(vec![(VnfId(0), NodeId(1)), (VnfId(1), NodeId(2))]);
        net.apply_delta(&ok).unwrap();
        assert_eq!(net.deployed_pairs(), ok.deploys().to_vec());
        net.apply_delta(&ok).unwrap();
        assert_eq!(net.residual_capacity(NodeId(1)), 0.0);
        assert_eq!(net.residual_capacity(NodeId(2)), 0.0);
        assert_eq!(net.refcount(VnfId(0), NodeId(1)), 2);
    }

    #[test]
    fn with_refs_canonicalizes_and_keeps_sides_disjoint() {
        let delta = CommitDelta::with_refs(
            vec![(VnfId(1), NodeId(0)), (VnfId(0), NodeId(2))],
            vec![
                (VnfId(1), NodeId(0)), // also a deploy: dropped from refs
                (VnfId(2), NodeId(1)),
                (VnfId(2), NodeId(1)), // duplicate
            ],
        );
        assert_eq!(
            delta.deploys(),
            &[(VnfId(0), NodeId(2)), (VnfId(1), NodeId(0))]
        );
        assert_eq!(delta.refs(), &[(VnfId(2), NodeId(1))]);
        assert_eq!(
            delta.touched_nodes(),
            vec![NodeId(0), NodeId(1), NodeId(2)],
            "reused nodes are touched too"
        );
        assert_eq!(delta.total_demand(&VnfCatalog::uniform(3)), 2.0);
    }

    #[test]
    fn release_frees_capacity_only_when_the_last_reference_drops() {
        let mut net = Network::builder(line_graph(3), VnfCatalog::uniform(2))
            .all_servers(2.0)
            .unwrap()
            .build()
            .unwrap();
        // Session A deploys f0@1; session B reuses it and deploys f1@1.
        let a = CommitDelta::new(vec![(VnfId(0), NodeId(1))]);
        net.apply_delta(&a).unwrap();
        let b = CommitDelta::with_refs(vec![(VnfId(1), NodeId(1))], vec![(VnfId(0), NodeId(1))]);
        net.apply_delta(&b).unwrap();
        assert_eq!(net.refcount(VnfId(0), NodeId(1)), 2);
        assert_eq!(net.residual_capacity(NodeId(1)), 0.0);

        // A departs: the shared instance survives (B still references it),
        // so only B's exclusive instance would free capacity — and here A
        // frees nothing at all.
        let freed = net.apply_release(&a).unwrap();
        assert!(freed.is_empty(), "shared instance must survive");
        assert!(net.is_deployed(VnfId(0), NodeId(1)));
        assert_eq!(net.residual_capacity(NodeId(1)), 0.0);

        // B departs: both instances drop to zero references and vanish.
        let freed = net.apply_release(&b).unwrap();
        assert_eq!(freed, vec![(VnfId(0), NodeId(1)), (VnfId(1), NodeId(1))]);
        assert!(net.deployed_pairs().is_empty());
        assert_eq!(net.residual_capacity(NodeId(1)), 2.0);
    }

    #[test]
    fn release_of_unreferenced_pairs_is_rejected_atomically() {
        let mut net = Network::builder(line_graph(3), VnfCatalog::uniform(2))
            .all_servers(2.0)
            .unwrap()
            .build()
            .unwrap();
        let live = CommitDelta::new(vec![(VnfId(0), NodeId(1))]);
        net.apply_delta(&live).unwrap();
        // One live pair + one dead pair: the whole release must be refused
        // and the live reference left untouched.
        let mixed = CommitDelta::new(vec![(VnfId(0), NodeId(1)), (VnfId(1), NodeId(2))]);
        assert!(matches!(
            net.apply_release(&mixed),
            Err(CoreError::InstanceNotDeployed { vnf: 1, node: 2 })
        ));
        assert_eq!(net.refcount(VnfId(0), NodeId(1)), 1);
    }

    #[test]
    fn commit_then_release_restores_the_network_exactly() {
        let mut net = Network::builder(line_graph(4), VnfCatalog::uniform(3))
            .all_servers(2.0)
            .unwrap()
            .deploy(VnfId(2), NodeId(3))
            .unwrap()
            .build()
            .unwrap();
        let before = net.deployment_refcounts();
        let delta = CommitDelta::with_refs(
            vec![(VnfId(0), NodeId(1)), (VnfId(1), NodeId(2))],
            vec![(VnfId(2), NodeId(3))],
        );
        net.apply_delta(&delta).unwrap();
        assert_eq!(net.refcount(VnfId(2), NodeId(3)), 2, "pinned + session");
        net.apply_release(&delta).unwrap();
        assert_eq!(net.deployment_refcounts(), before);
        assert!(
            net.is_deployed(VnfId(2), NodeId(3)),
            "builder pre-deployments are never released"
        );
    }

    #[test]
    fn validate_delta_rejects_switches_and_bad_ids() {
        let net = Network::builder(line_graph(3), VnfCatalog::uniform(2))
            .server(NodeId(1), 2.0)
            .unwrap()
            .build()
            .unwrap();
        let on_switch = CommitDelta::new(vec![(VnfId(0), NodeId(0))]);
        assert!(matches!(
            net.validate_delta(&on_switch),
            Err(CoreError::NotAServer { node: 0 })
        ));
        let bad_vnf = CommitDelta::new(vec![(VnfId(9), NodeId(1))]);
        assert!(matches!(
            net.validate_delta(&bad_vnf),
            Err(CoreError::VnfOutOfBounds { .. })
        ));
        let bad_node = CommitDelta::new(vec![(VnfId(0), NodeId(9))]);
        assert!(matches!(
            net.validate_delta(&bad_node),
            Err(CoreError::NodeOutOfBounds { .. })
        ));
    }

    #[test]
    fn builder_marks_servers_and_capacities() {
        let net = Network::builder(line_graph(4), VnfCatalog::uniform(2))
            .server(NodeId(1), 3.0)
            .unwrap()
            .server(NodeId(2), 1.0)
            .unwrap()
            .build()
            .unwrap();
        assert!(!net.is_server(NodeId(0)));
        assert!(net.is_server(NodeId(1)));
        assert_eq!(net.capacity(NodeId(1)), 3.0);
        assert_eq!(net.capacity(NodeId(0)), 0.0);
        assert_eq!(net.server_count(), 2);
        assert_eq!(
            net.servers().collect::<Vec<_>>(),
            vec![NodeId(1), NodeId(2)]
        );
    }

    #[test]
    fn deployment_zeroes_effective_setup_cost() {
        let net = Network::builder(line_graph(3), VnfCatalog::uniform(2))
            .all_servers(2.0)
            .unwrap()
            .uniform_setup_cost(5.0)
            .unwrap()
            .deploy(VnfId(1), NodeId(2))
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(net.setup_cost(VnfId(1), NodeId(2)), 5.0);
        assert_eq!(net.effective_setup_cost(VnfId(1), NodeId(2)), 0.0);
        assert_eq!(net.effective_setup_cost(VnfId(0), NodeId(2)), 5.0);
        assert!(net.is_deployed(VnfId(1), NodeId(2)));
        assert_eq!(net.deployed_load(NodeId(2)), 1.0);
        assert_eq!(net.residual_capacity(NodeId(2)), 1.0);
    }

    #[test]
    fn build_rejects_deployment_on_switch() {
        let err = Network::builder(line_graph(3), VnfCatalog::uniform(1))
            .server(NodeId(0), 1.0)
            .unwrap()
            .deploy(VnfId(0), NodeId(1))
            .unwrap()
            .build();
        assert!(matches!(err, Err(CoreError::NotAServer { node: 1 })));
    }

    #[test]
    fn build_rejects_overloaded_deployments() {
        let err = Network::builder(line_graph(2), VnfCatalog::uniform(3))
            .all_servers(1.0)
            .unwrap()
            .deploy(VnfId(0), NodeId(0))
            .unwrap()
            .deploy(VnfId(1), NodeId(0))
            .unwrap()
            .build();
        assert!(matches!(
            err,
            Err(CoreError::CapacityExceeded { node: 0, .. })
        ));
    }

    #[test]
    fn post_build_deploy_validates_capacity() {
        let mut net = Network::builder(line_graph(2), VnfCatalog::uniform(3))
            .all_servers(1.0)
            .unwrap()
            .build()
            .unwrap();
        net.deploy(VnfId(0), NodeId(0)).unwrap();
        net.deploy(VnfId(0), NodeId(0)).unwrap(); // idempotent
        assert!(matches!(
            net.deploy(VnfId(1), NodeId(0)),
            Err(CoreError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn distances_and_average_path_cost() {
        let net = Network::builder(line_graph(4), VnfCatalog::uniform(1))
            .all_servers(1.0)
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(net.dist().distance(NodeId(0), NodeId(3)), Some(3.0));
        // Ordered pairs of a 4-path: distances 1,1,1,2,2,3 each twice -> avg 10/6.
        assert!((net.average_path_cost() - 10.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn demand_estimation_counts_only_undeployed_chain_types() {
        use crate::task::MulticastTask;
        use crate::vnf::Sfc;
        let net = Network::builder(line_graph(4), VnfCatalog::uniform(3))
            .all_servers(2.0)
            .unwrap()
            .deploy(VnfId(0), NodeId(1))
            .unwrap()
            .build()
            .unwrap();
        // 4 servers x 2.0 capacity, one unit instance deployed.
        assert!((net.total_residual_capacity() - 7.0).abs() < 1e-12);
        let task = MulticastTask::new(
            NodeId(0),
            vec![NodeId(3)],
            Sfc::new(vec![VnfId(0), VnfId(1), VnfId(2)]).unwrap(),
        )
        .unwrap();
        // f0 is deployed somewhere (reusable); f1 and f2 force new units.
        assert_eq!(net.min_new_demand(&task), 2.0);
        assert_eq!(net.max_new_instance_demand(&task), 1.0);
        // A chain of only the deployed type demands nothing new.
        let reuse = MulticastTask::new(
            NodeId(0),
            vec![NodeId(3)],
            Sfc::new(vec![VnfId(0)]).unwrap(),
        )
        .unwrap();
        assert_eq!(net.min_new_demand(&reuse), 0.0);
        assert_eq!(net.max_new_instance_demand(&reuse), 0.0);
        // A repeated type counts once: the bound is over distinct types.
        let repeated = MulticastTask::new(
            NodeId(0),
            vec![NodeId(3)],
            Sfc::new(vec![VnfId(1), VnfId(2), VnfId(1)]).unwrap(),
        )
        .unwrap();
        assert_eq!(net.min_new_demand(&repeated), 2.0);
    }

    fn capacitated_line(n: usize, bw: f64) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n - 1 {
            g.add_edge_with_capacity(NodeId(i), NodeId(i + 1), 1.0, Some(bw))
                .unwrap();
        }
        g
    }

    #[test]
    fn edge_deltas_charge_and_release_bandwidth_refcount_style() {
        let mut net = Network::builder(capacitated_line(3, 10.0), VnfCatalog::uniform(1))
            .all_servers(2.0)
            .unwrap()
            .build()
            .unwrap();
        let e = EdgeId(0);
        assert_eq!(net.edge_residual(e), 10.0);

        // Two sessions share the link; the second uses a value whose sum
        // is not exactly representable, to exercise the snap-to-zero.
        let a = CommitDelta::with_usage(Vec::new(), Vec::new(), vec![(e, 0.1)]);
        let b = CommitDelta::with_usage(Vec::new(), Vec::new(), vec![(e, 0.2)]);
        net.apply_delta(&a).unwrap();
        net.apply_delta(&b).unwrap();
        assert_eq!(net.edge_session_count(e), 2);
        assert_eq!(net.edge_usage(), vec![(e, 0.1 + 0.2, 2)]);
        assert!((net.edge_residual(e) - 9.7).abs() < 1e-12);

        net.apply_release(&b).unwrap();
        assert_eq!(net.edge_session_count(e), 1);
        // Last session off the link: usage snaps to exactly 0.0 even
        // though 0.1 + 0.2 - 0.2 - 0.1 != 0.0 in floats.
        net.apply_release(&a).unwrap();
        assert_eq!(net.edge_residual(e), 10.0);
        assert!(net.edge_usage().is_empty());
    }

    #[test]
    fn apply_delta_rejects_link_oversubscription_atomically() {
        let mut net = Network::builder(capacitated_line(3, 1.0), VnfCatalog::uniform(1))
            .all_servers(2.0)
            .unwrap()
            .build()
            .unwrap();
        let fill = CommitDelta::with_usage(Vec::new(), Vec::new(), vec![(EdgeId(0), 1.0)]);
        net.apply_delta(&fill).unwrap();
        // Node side fits, edge side does not: the node reference must not
        // be taken either.
        let over = CommitDelta::with_usage(
            vec![(VnfId(0), NodeId(1))],
            Vec::new(),
            vec![(EdgeId(0), 0.5)],
        );
        assert!(matches!(
            net.apply_delta(&over),
            Err(CoreError::LinkCapacityExceeded {
                edge: 0,
                capacity: c,
                load: l,
            }) if c == 1.0 && l == 1.5
        ));
        assert!(net.deployed_pairs().is_empty());
        assert_eq!(net.edge_residual(EdgeId(0)), 0.0);

        // An uncharged edge elsewhere still accepts commits.
        let other = CommitDelta::with_usage(Vec::new(), Vec::new(), vec![(EdgeId(1), 1.0)]);
        net.apply_delta(&other).unwrap();
    }

    #[test]
    fn edge_release_validation_rejects_over_release() {
        let mut net = Network::builder(capacitated_line(3, 1.0), VnfCatalog::uniform(1))
            .all_servers(2.0)
            .unwrap()
            .build()
            .unwrap();
        let d = CommitDelta::with_usage(Vec::new(), Vec::new(), vec![(EdgeId(0), 0.5)]);
        assert!(matches!(
            net.apply_release(&d),
            Err(CoreError::LinkCapacityExceeded { edge: 0, .. })
        ));
        let bad_edge = CommitDelta::with_usage(Vec::new(), Vec::new(), vec![(EdgeId(9), 0.5)]);
        assert!(matches!(
            net.validate_delta(&bad_edge),
            Err(CoreError::EdgeOutOfBounds { edge: 9, len: 2 })
        ));
        assert!(matches!(
            net.validate_release(&bad_edge),
            Err(CoreError::EdgeOutOfBounds { edge: 9, len: 2 })
        ));
    }

    #[test]
    fn uncapacitated_edges_accept_any_charge() {
        let mut net = Network::builder(line_graph(3), VnfCatalog::uniform(1))
            .all_servers(2.0)
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(net.edge_residual(EdgeId(0)), f64::INFINITY);
        let d = CommitDelta::with_usage(Vec::new(), Vec::new(), vec![(EdgeId(0), 1e12)]);
        net.apply_delta(&d).unwrap();
        assert_eq!(net.edge_residual(EdgeId(0)), f64::INFINITY);
        net.apply_release(&d).unwrap();
        assert!(net.edge_usage().is_empty());
    }

    #[test]
    fn bandwidth_view_filters_saturated_links_only_when_needed() {
        // Triangle: 0-1 (cheap, narrow), 0-2 and 2-1 (wide detour).
        let mut g = Graph::new(3);
        g.add_edge_with_capacity(NodeId(0), NodeId(1), 1.0, Some(1.0))
            .unwrap();
        g.add_edge_with_capacity(NodeId(0), NodeId(2), 1.0, Some(10.0))
            .unwrap();
        g.add_edge_with_capacity(NodeId(2), NodeId(1), 1.0, Some(10.0))
            .unwrap();
        let net = Network::builder(g, VnfCatalog::uniform(1))
            .all_servers(2.0)
            .unwrap()
            .build()
            .unwrap();

        // No demand, or demand every link can carry: no view is built.
        assert!(net.bandwidth_view(0.0).unwrap().is_none());
        assert!(net.bandwidth_view(1.0).unwrap().is_none());

        // Demand 2.0 saturates the narrow link: the view drops it and the
        // shortest 0->1 path detours through 2 at cost 2.
        let view = net.bandwidth_view(2.0).unwrap().expect("must filter");
        assert_eq!(view.graph().edge_count(), 2);
        assert_eq!(view.dist().distance(NodeId(0), NodeId(1)), Some(2.0));
        assert_eq!(net.dist().distance(NodeId(0), NodeId(1)), Some(1.0));
        // The view itself needs no further filtering for the same demand.
        assert!(view.bandwidth_view(2.0).unwrap().is_none());

        // Demand wider than every link: the view disconnects the graph.
        let empty = net.bandwidth_view(20.0).unwrap().expect("must filter");
        assert_eq!(empty.graph().edge_count(), 0);
    }

    #[test]
    fn commit_delta_charges_capacitated_tree_edges_once() {
        use crate::embedding::{DestinationRoute, Embedding};
        use crate::task::MulticastTask;
        use crate::vnf::Sfc;
        let mut g = Graph::new(4);
        g.add_edge_with_capacity(NodeId(0), NodeId(1), 1.0, Some(5.0))
            .unwrap();
        g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap(); // uncapacitated
        g.add_edge_with_capacity(NodeId(1), NodeId(3), 1.0, Some(5.0))
            .unwrap();
        let net = Network::builder(g, VnfCatalog::uniform(1))
            .all_servers(2.0)
            .unwrap()
            .build()
            .unwrap();
        let task = MulticastTask::new(
            NodeId(0),
            vec![NodeId(2), NodeId(3)],
            Sfc::new(vec![VnfId(0)]).unwrap(),
        )
        .unwrap()
        .with_bandwidth(2.0)
        .unwrap();
        // Both destinations route over the shared 0-1 edge; it must be
        // charged once, the uncapacitated 1-2 edge not at all.
        let embedding = Embedding::new(vec![
            DestinationRoute::new(vec![vec![NodeId(0), NodeId(1)], vec![NodeId(1), NodeId(2)]]),
            DestinationRoute::new(vec![vec![NodeId(0), NodeId(1)], vec![NodeId(1), NodeId(3)]]),
        ]);
        let delta = net.commit_delta(&task, &embedding);
        assert_eq!(delta.edges(), &[(EdgeId(0), 2.0), (EdgeId(2), 2.0)]);
        assert_eq!(delta.touched_edges(), vec![EdgeId(0), EdgeId(2)]);
        assert_eq!(delta.total_bandwidth(), 4.0);

        // The same embedding with a zero-bandwidth task carries no edge
        // deltas — byte-identical legacy behavior.
        let legacy = MulticastTask::new(
            NodeId(0),
            vec![NodeId(2), NodeId(3)],
            Sfc::new(vec![VnfId(0)]).unwrap(),
        )
        .unwrap();
        assert!(net.commit_delta(&legacy, &embedding).edges().is_empty());
    }

    #[test]
    fn builder_validates_parameters() {
        let b = Network::builder(line_graph(2), VnfCatalog::uniform(1));
        assert!(matches!(
            b.clone().server(NodeId(9), 1.0),
            Err(CoreError::NodeOutOfBounds { .. })
        ));
        assert!(matches!(
            b.clone().server(NodeId(0), -1.0),
            Err(CoreError::InvalidParameter { .. })
        ));
        assert!(matches!(
            b.clone().setup_cost(VnfId(0), NodeId(0), f64::NAN),
            Err(CoreError::InvalidParameter { .. })
        ));
        assert!(matches!(
            b.clone().setup_cost(VnfId(5), NodeId(0), 1.0),
            Err(CoreError::VnfOutOfBounds { .. })
        ));
        assert!(matches!(
            b.clone().deploy(VnfId(0), NodeId(7)),
            Err(CoreError::NodeOutOfBounds { .. })
        ));
    }
}
