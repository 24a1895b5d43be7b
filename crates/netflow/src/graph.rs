//! Directed flow networks with integer capacities, arc lower bounds and
//! (possibly negative) integer costs.
//!
//! A [`FlowNetwork`] is an arena of nodes and arcs. Nodes are created with
//! [`FlowNetwork::add_node`] and referenced by [`NodeId`]; arcs are created
//! with [`FlowNetwork::add_arc`] / [`FlowNetwork::add_arc_bounded`] and
//! referenced by [`ArcId`]. The network itself is pure data — solvers such as
//! [`min_cost_flow`](crate::min_cost_flow) borrow it immutably.
//!
//! # Examples
//!
//! ```
//! use lemra_netflow::{FlowNetwork, min_cost_flow};
//!
//! # fn main() -> Result<(), lemra_netflow::NetflowError> {
//! let mut net = FlowNetwork::new();
//! let s = net.add_node();
//! let a = net.add_node();
//! let t = net.add_node();
//! net.add_arc(s, a, 2, 1)?;
//! net.add_arc(a, t, 2, -3)?;
//! let sol = min_cost_flow(&net, s, t, 2)?;
//! assert_eq!(sol.cost, 2 * (1 - 3));
//! # Ok(())
//! # }
//! ```

use crate::NetflowError;

/// Identifier of a node inside one [`FlowNetwork`].
///
/// `NodeId`s are only meaningful for the network that created them; using a
/// `NodeId` from another network is a logic error that the solvers detect as
/// an out-of-range node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Position of the node in creation order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an arc inside one [`FlowNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArcId(pub(crate) u32);

impl ArcId {
    /// Position of the arc in creation order; also the index of the arc's
    /// flow in [`FlowSolution::flows`](crate::FlowSolution::flows).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ArcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// A directed arc with integer bounds and cost.
///
/// Flow `x` on the arc must satisfy `lower_bound <= x <= capacity`; each unit
/// of flow contributes `cost` to the objective. Costs may be negative — the
/// allocation networks built by `lemra-core` rely on this (placing a variable
/// in a register *saves* memory energy, eq. (4) of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Arc {
    /// Tail node (flow leaves here).
    pub from: NodeId,
    /// Head node (flow arrives here).
    pub to: NodeId,
    /// Minimum flow the arc must carry.
    pub lower_bound: i64,
    /// Maximum flow the arc may carry.
    pub capacity: i64,
    /// Cost per unit of flow; negative values model energy savings.
    pub cost: i64,
}

/// A directed flow network: an arena of nodes and [`Arc`]s.
///
/// See the module documentation for an example.
#[derive(Debug)]
pub struct FlowNetwork {
    node_count: usize,
    arcs: Vec<Arc>,
    /// Process-unique identity of this network instance, paired with
    /// `version` to key per-workspace caches (validated-input scans, rebuilt
    /// residual graphs). A clone gets a fresh `uid`: two networks with equal
    /// contents may diverge through later mutation, so identity never
    /// survives a copy.
    uid: u64,
    /// Bumped by every structural or value mutation; see
    /// [`FlowNetwork::cache_stamp`].
    version: u64,
}

/// Source of [`FlowNetwork::uid`] values.
static NEXT_NETWORK_UID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

fn fresh_network_uid() -> u64 {
    NEXT_NETWORK_UID.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// Identity stamp of a network's contents for a given endpoint pair: the
/// process-unique `(uid, version)` of [`FlowNetwork`] plus `s`/`t`. Two
/// stamps compare equal only if taken from the same network instance, with
/// no mutation in between, for the same endpoints — the validity condition
/// for caching artifacts derived from a scan of the arcs (input-validation
/// verdicts, residual CSR layouts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CacheStamp {
    uid: u64,
    version: u64,
    s: u32,
    t: u32,
}

impl CacheStamp {
    /// Stamp of `net`'s current contents for endpoints `s → t`.
    #[inline]
    pub(crate) fn of(net: &FlowNetwork, s: NodeId, t: NodeId) -> Self {
        Self::from_parts(net, s.index(), t.index())
    }

    /// Stamp from raw parts (for call sites that carry indices, not ids).
    #[inline]
    pub(crate) fn from_parts(net: &FlowNetwork, s: usize, t: usize) -> Self {
        let (uid, version) = net.cache_stamp();
        Self {
            uid,
            version,
            s: s as u32,
            t: t as u32,
        }
    }
}

impl Default for FlowNetwork {
    fn default() -> Self {
        Self {
            node_count: 0,
            arcs: Vec::new(),
            uid: fresh_network_uid(),
            version: 0,
        }
    }
}

impl Clone for FlowNetwork {
    fn clone(&self) -> Self {
        Self {
            node_count: self.node_count,
            arcs: self.arcs.clone(),
            uid: fresh_network_uid(),
            version: 0,
        }
    }
}

impl FlowNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty network with capacity reserved for `nodes` nodes and
    /// `arcs` arcs.
    pub fn with_capacity(nodes: usize, arcs: usize) -> Self {
        let _ = nodes;
        Self {
            arcs: Vec::with_capacity(arcs),
            ..Self::default()
        }
    }

    /// `(uid, version)` identity of the network's current contents. Two
    /// stamps compare equal only if they were taken from the same network
    /// instance with no mutation in between, which is exactly the validity
    /// condition for caching derived artifacts (input-scan verdicts, residual
    /// CSR layouts) outside the network itself.
    #[inline]
    pub(crate) fn cache_stamp(&self) -> (u64, u64) {
        (self.uid, self.version)
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(u32::try_from(self.node_count).expect("more than u32::MAX nodes"));
        self.node_count += 1;
        self.version += 1;
        id
    }

    /// Adds `n` nodes at once and returns their ids in creation order.
    pub fn add_nodes(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.add_node()).collect()
    }

    /// Adds an arc with lower bound 0.
    ///
    /// # Errors
    ///
    /// Returns [`NetflowError::InvalidArc`] if `capacity` is negative or an
    /// endpoint does not belong to this network.
    pub fn add_arc(
        &mut self,
        from: NodeId,
        to: NodeId,
        capacity: i64,
        cost: i64,
    ) -> Result<ArcId, NetflowError> {
        self.add_arc_bounded(from, to, 0, capacity, cost)
    }

    /// Adds an arc whose flow is constrained to `lower_bound ..= capacity`.
    ///
    /// # Errors
    ///
    /// Returns [`NetflowError::InvalidArc`] if `lower_bound` is negative,
    /// `lower_bound > capacity`, or an endpoint does not belong to this
    /// network.
    pub fn add_arc_bounded(
        &mut self,
        from: NodeId,
        to: NodeId,
        lower_bound: i64,
        capacity: i64,
        cost: i64,
    ) -> Result<ArcId, NetflowError> {
        if from.index() >= self.node_count || to.index() >= self.node_count {
            return Err(NetflowError::InvalidArc {
                reason: format!(
                    "endpoint out of range ({from} or {to} >= {} nodes)",
                    self.node_count
                ),
            });
        }
        if lower_bound < 0 {
            return Err(NetflowError::InvalidArc {
                reason: format!("negative lower bound {lower_bound}"),
            });
        }
        if capacity < lower_bound {
            return Err(NetflowError::InvalidArc {
                reason: format!("capacity {capacity} below lower bound {lower_bound}"),
            });
        }
        let id = ArcId(u32::try_from(self.arcs.len()).expect("more than u32::MAX arcs"));
        self.arcs.push(Arc {
            from,
            to,
            lower_bound,
            capacity,
            cost,
        });
        self.version += 1;
        Ok(id)
    }

    /// Overwrites the cost of `arc`, keeping everything else.
    ///
    /// Parameter sweeps mutate one network in place between solves so a
    /// [`Reoptimizer`](crate::Reoptimizer) can treat successive points as
    /// arc deltas instead of fresh graphs.
    ///
    /// # Panics
    ///
    /// Panics if `arc` does not belong to this network.
    pub fn set_arc_cost(&mut self, arc: ArcId, cost: i64) {
        self.arcs[arc.index()].cost = cost;
        self.version += 1;
    }

    /// Rewrites every arc's cost in place through `f`, called in creation
    /// order with the arc's id and current fields.
    ///
    /// Equivalent to a [`FlowNetwork::set_arc_cost`] loop but with a single
    /// version bump and no intermediate `(ArcId, cost)` buffer — the bulk
    /// re-pricing passes (tie-break encoding, sweep refreshes) run over
    /// every arc of networks with hundreds of thousands of arcs, where the
    /// per-call bookkeeping and the staging allocation are measurable.
    pub fn map_costs(&mut self, mut f: impl FnMut(ArcId, &Arc) -> i64) {
        for (i, arc) in self.arcs.iter_mut().enumerate() {
            arc.cost = f(ArcId(i as u32), arc);
        }
        self.version += 1;
    }

    /// Overwrites the capacity of `arc`, keeping everything else.
    ///
    /// # Errors
    ///
    /// Returns [`NetflowError::InvalidArc`] if `capacity` is below the arc's
    /// lower bound.
    ///
    /// # Panics
    ///
    /// Panics if `arc` does not belong to this network.
    pub fn set_arc_capacity(&mut self, arc: ArcId, capacity: i64) -> Result<(), NetflowError> {
        let a = &mut self.arcs[arc.index()];
        if capacity < a.lower_bound {
            return Err(NetflowError::InvalidArc {
                reason: format!(
                    "capacity {capacity} below lower bound {} on {arc}",
                    a.lower_bound
                ),
            });
        }
        a.capacity = capacity;
        self.version += 1;
        Ok(())
    }

    /// Number of nodes in the network.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Bytes of heap the arc arena currently holds (capacity, not length —
    /// a builder that over-grows the arena is charged for the slack). Nodes
    /// are a bare count and occupy no heap. Feeds the `--timings` per-stage
    /// peak-memory counter.
    pub fn heap_bytes(&self) -> usize {
        self.arcs.capacity() * std::mem::size_of::<Arc>()
    }

    /// Number of arcs in the network.
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// The arc with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this network.
    pub fn arc(&self, id: ArcId) -> &Arc {
        &self.arcs[id.index()]
    }

    /// Iterates over `(id, arc)` pairs in creation order.
    pub fn arcs(&self) -> impl Iterator<Item = (ArcId, &Arc)> + '_ {
        self.arcs
            .iter()
            .enumerate()
            .map(|(i, a)| (ArcId(i as u32), a))
    }

    /// The arc arena in creation order, for the solvers' residual-graph
    /// construction loops.
    pub(crate) fn arcs_slice(&self) -> &[Arc] {
        &self.arcs
    }

    /// True if any arc has a non-zero lower bound.
    pub fn has_lower_bounds(&self) -> bool {
        self.arcs.iter().any(|a| a.lower_bound > 0)
    }

    /// Returns whether `node` belongs to this network.
    pub fn contains_node(&self, node: NodeId) -> bool {
        node.index() < self.node_count
    }

    /// True if the subgraph of positive-capacity arcs is acyclic (Kahn's
    /// algorithm, O(V + E)). Such a network has no negative-cost cycle
    /// before any flow moves, whatever its costs, which is the condition
    /// [`min_cost_flow`](crate::min_cost_flow) needs. Residual arcs don't
    /// matter here: only forward arcs have capacity before a solve, and a
    /// negative cycle needs capacity on every arc.
    pub fn is_positive_capacity_dag(&self) -> bool {
        let n = self.node_count;
        let mut indegree = vec![0u32; n];
        // Bucket arcs by tail once so the peel is O(V + E).
        let mut head: Vec<Vec<u32>> = vec![Vec::new(); n];
        for arc in self.arcs.iter().filter(|a| a.capacity > 0) {
            indegree[arc.to.index()] += 1;
            head[arc.from.index()].push(arc.to.index() as u32);
        }
        let mut queue: Vec<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
        let mut seen = 0usize;
        while let Some(u) = queue.pop() {
            seen += 1;
            for &v in &head[u] {
                indegree[v as usize] -= 1;
                if indegree[v as usize] == 0 {
                    queue.push(v as usize);
                }
            }
        }
        seen == n
    }

    /// Validates this network together with a solve request, rejecting
    /// malformed inputs with a typed error before any solver touches them.
    ///
    /// Every solver entry point runs this check first, so a malformed
    /// instance fails identically across backends. The pass rejects:
    ///
    /// * out-of-range / equal endpoints and a negative `target`
    ///   ([`NetflowError::InvalidArc`]);
    /// * arcs with out-of-range endpoints, negative lower bounds or
    ///   `lower_bound > capacity` (invariants the arc builders enforce,
    ///   re-checked in case the network was assembled another way) and
    ///   self-loop arcs, which no solver can route useful flow over
    ///   ([`NetflowError::InvalidArc`]);
    /// * a `target` exceeding the total capacity leaving `s` or entering
    ///   `t` — a necessary feasibility condition checked without running a
    ///   max-flow ([`NetflowError::Infeasible`]);
    /// * cost/capacity magnitudes whose worst-case accumulated cost
    ///   (`Σ |cost|·max(capacity, 1)`, the bound on any distance, potential
    ///   or objective the solvers form) does not fit the solvers' `i64`
    ///   arithmetic with its `i64::MAX / 4` sentinel headroom
    ///   ([`NetflowError::Overflow`]); the reoptimizer's cycle canceller,
    ///   which has an `i128` wide path, selects it itself below this
    ///   threshold.
    ///
    /// # Errors
    ///
    /// As listed above; `Ok(())` means the instance is safe to hand to any
    /// backend.
    pub fn validate_input(&self, s: NodeId, t: NodeId, target: i64) -> Result<(), NetflowError> {
        self.validate_request(s, t, target)?;
        let achievable = self.scan_arcs(s, t)?;
        if target > achievable {
            return Err(NetflowError::Infeasible {
                required: target,
                achieved: achievable,
            });
        }
        Ok(())
    }

    /// The O(1) head of [`FlowNetwork::validate_input`]: endpoint and target
    /// checks that depend on the request alone, re-run on every solve even
    /// when the arc scan below is cached.
    pub(crate) fn validate_request(
        &self,
        s: NodeId,
        t: NodeId,
        target: i64,
    ) -> Result<(), NetflowError> {
        if !self.contains_node(s) || !self.contains_node(t) {
            return Err(NetflowError::InvalidArc {
                reason: format!("source {s} or sink {t} out of range"),
            });
        }
        if s == t {
            return Err(NetflowError::InvalidArc {
                reason: "source and sink must differ".to_owned(),
            });
        }
        if target < 0 {
            return Err(NetflowError::InvalidArc {
                reason: format!("negative flow target {target}"),
            });
        }
        Ok(())
    }

    /// The O(arcs) tail of [`FlowNetwork::validate_input`]: per-arc
    /// invariants and the overflow audit. Returns the capacity bound
    /// `min(out of s, into t)` so the caller can compare it against any
    /// target. Depends only on the arc list and `(s, t)`, which makes the
    /// verdict cacheable against [`FlowNetwork::cache_stamp`] — sweeps
    /// re-solving one network pay for the scan once.
    pub(crate) fn scan_arcs(&self, s: NodeId, t: NodeId) -> Result<i64, NetflowError> {
        let mut out_of_s = 0i64;
        let mut into_t = 0i64;
        let mut lower_sum = 0i64;
        let mut cost_mass = 0u128;
        for (id, a) in self.arcs() {
            if a.from.index() >= self.node_count || a.to.index() >= self.node_count {
                return Err(NetflowError::InvalidArc {
                    reason: format!("{id} endpoint out of range ({} -> {})", a.from, a.to),
                });
            }
            if a.from == a.to {
                return Err(NetflowError::InvalidArc {
                    reason: format!("{id} is a self-loop on {}", a.from),
                });
            }
            if a.lower_bound < 0 || a.capacity < a.lower_bound {
                return Err(NetflowError::InvalidArc {
                    reason: format!(
                        "{id} bounds invalid (lower {} > capacity {})",
                        a.lower_bound, a.capacity
                    ),
                });
            }
            lower_sum =
                lower_sum
                    .checked_add(a.lower_bound)
                    .ok_or_else(|| NetflowError::Overflow {
                        reason: format!("sum of arc lower bounds overflows i64 at {id}"),
                    })?;
            if a.from == s {
                out_of_s = out_of_s.saturating_add(a.capacity);
            }
            if a.to == t {
                into_t = into_t.saturating_add(a.capacity);
            }
            cost_mass = cost_mass.saturating_add(
                (a.cost.unsigned_abs() as u128) * (a.capacity.unsigned_abs().max(1) as u128),
            );
        }
        // SSP treats i64::MAX / 4 as infinity and forms sums of
        // distances, potentials and arc costs below it; keep the worst-case
        // accumulated cost strictly inside that headroom.
        if cost_mass >= (i64::MAX / 4) as u128 {
            return Err(NetflowError::Overflow {
                reason: format!(
                    "worst-case accumulated cost {cost_mass} (sum of |cost| x \
                     capacity over {} arcs) exceeds the i64 solver range",
                    self.arcs.len()
                ),
            });
        }
        Ok(out_of_s.min(into_t))
    }

    /// Sum of all positive arc costs times capacities — a safe upper bound on
    /// the magnitude of any feasible flow cost, used for overflow auditing.
    pub fn cost_bound(&self) -> i64 {
        self.arcs
            .iter()
            .map(|a| {
                a.cost
                    .unsigned_abs()
                    .saturating_mul(a.capacity.unsigned_abs())
            })
            .fold(0u64, u64::saturating_add)
            .min(i64::MAX as u64) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_ids_are_sequential() {
        let mut net = FlowNetwork::new();
        let a = net.add_node();
        let b = net.add_node();
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(net.node_count(), 2);
    }

    #[test]
    fn positive_capacity_dag_ignores_zero_capacity_back_arcs() {
        let mut net = FlowNetwork::new();
        let (a, b, c) = (net.add_node(), net.add_node(), net.add_node());
        net.add_arc(a, b, 1, -3).unwrap();
        net.add_arc(b, c, 1, 2).unwrap();
        assert!(net.is_positive_capacity_dag());
        let back = net.add_arc(c, a, 0, -9).unwrap();
        assert!(net.is_positive_capacity_dag());
        net.set_arc_capacity(back, 1).unwrap();
        assert!(!net.is_positive_capacity_dag());
    }

    #[test]
    fn add_nodes_bulk() {
        let mut net = FlowNetwork::new();
        let ids = net.add_nodes(5);
        assert_eq!(ids.len(), 5);
        assert_eq!(ids[4].index(), 4);
        assert_eq!(net.node_count(), 5);
    }

    #[test]
    fn arc_fields_roundtrip() {
        let mut net = FlowNetwork::new();
        let a = net.add_node();
        let b = net.add_node();
        let id = net.add_arc_bounded(a, b, 1, 3, -7).unwrap();
        let arc = net.arc(id);
        assert_eq!(arc.from, a);
        assert_eq!(arc.to, b);
        assert_eq!(arc.lower_bound, 1);
        assert_eq!(arc.capacity, 3);
        assert_eq!(arc.cost, -7);
        assert!(net.has_lower_bounds());
    }

    #[test]
    fn rejects_bad_bounds() {
        let mut net = FlowNetwork::new();
        let a = net.add_node();
        let b = net.add_node();
        assert!(net.add_arc_bounded(a, b, -1, 3, 0).is_err());
        assert!(net.add_arc_bounded(a, b, 4, 3, 0).is_err());
        assert!(net.add_arc(a, b, -1, 0).is_err());
    }

    #[test]
    fn rejects_foreign_nodes() {
        let mut net = FlowNetwork::new();
        let a = net.add_node();
        let mut other = FlowNetwork::new();
        let x = other.add_node();
        let y = other.add_node();
        assert!(net.contains_node(a));
        assert!(!net.contains_node(y));
        assert!(net.add_arc(x, y, 1, 0).is_err());
    }

    #[test]
    fn arcs_iterator_order() {
        let mut net = FlowNetwork::new();
        let a = net.add_node();
        let b = net.add_node();
        let i0 = net.add_arc(a, b, 1, 5).unwrap();
        let i1 = net.add_arc(b, a, 2, 6).unwrap();
        let collected: Vec<_> = net.arcs().map(|(id, arc)| (id, arc.cost)).collect();
        assert_eq!(collected, vec![(i0, 5), (i1, 6)]);
    }

    #[test]
    fn validate_input_accepts_well_formed_requests() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let t = net.add_node();
        net.add_arc(s, t, 5, 3).unwrap();
        assert!(net.validate_input(s, t, 4).is_ok());
        assert!(net.validate_input(s, t, 0).is_ok());
    }

    #[test]
    fn validate_input_rejects_bad_endpoints_and_target() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let t = net.add_node();
        net.add_arc(s, t, 5, 3).unwrap();
        let mut other = FlowNetwork::new();
        other.add_nodes(9);
        let foreign = NodeId(7);
        assert!(matches!(
            net.validate_input(s, foreign, 1),
            Err(NetflowError::InvalidArc { .. })
        ));
        assert!(matches!(
            net.validate_input(s, s, 1),
            Err(NetflowError::InvalidArc { .. })
        ));
        assert!(matches!(
            net.validate_input(s, t, -1),
            Err(NetflowError::InvalidArc { .. })
        ));
    }

    #[test]
    fn validate_input_flags_capacity_shortfall_early() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let t = net.add_node();
        net.add_arc(s, t, 5, 3).unwrap();
        let err = net.validate_input(s, t, 6).unwrap_err();
        assert!(matches!(
            err,
            NetflowError::Infeasible {
                required: 6,
                achieved: 5
            }
        ));
    }

    #[test]
    fn validate_input_rejects_self_loops() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let t = net.add_node();
        net.add_arc(s, t, 5, 0).unwrap();
        net.add_arc(a, a, 1, -2).unwrap();
        let err = net.validate_input(s, t, 1).unwrap_err();
        assert!(matches!(err, NetflowError::InvalidArc { .. }));
        assert!(err.to_string().contains("self-loop"));
    }

    #[test]
    fn validate_input_rejects_overflowing_cost_mass() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let t = net.add_node();
        net.add_arc(s, t, i64::MAX / 2, i64::MAX / 2).unwrap();
        let err = net.validate_input(s, t, 1).unwrap_err();
        assert!(matches!(err, NetflowError::Overflow { .. }));
        assert!(err.to_string().contains("overflow"));
    }

    #[test]
    fn map_costs_rewrites_every_arc_with_one_version_bump() {
        let mut net = FlowNetwork::new();
        let a = net.add_node();
        let b = net.add_node();
        net.add_arc(a, b, 2, 5).unwrap();
        net.add_arc(b, a, 3, -1).unwrap();
        let before = net.cache_stamp();
        net.map_costs(|id, arc| arc.cost * 10 + id.index() as i64);
        let costs: Vec<i64> = net.arcs().map(|(_, a)| a.cost).collect();
        assert_eq!(costs, vec![50, -9]);
        let after = net.cache_stamp();
        assert_eq!(after.0, before.0);
        assert_eq!(after.1, before.1 + 1, "exactly one version bump");
    }

    #[test]
    fn display_ids() {
        let mut net = FlowNetwork::new();
        let a = net.add_node();
        let b = net.add_node();
        let e = net.add_arc(a, b, 1, 0).unwrap();
        assert_eq!(a.to_string(), "n0");
        assert_eq!(e.to_string(), "a0");
    }
}
