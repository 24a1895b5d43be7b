//! Successive-shortest-path min-cost flow with node potentials.
//!
//! Initial potentials come from a single O(V+E) relaxation pass in
//! topological order when the positive-capacity residual graph is a DAG
//! (always true for the allocation networks of `lemra-core`), and from SPFA
//! with a deque otherwise (the general case, including negative arc costs on
//! cyclic networks). After that, reduced costs are non-negative and Dijkstra
//! with a binary heap takes over, terminating early as soon as the sink is
//! settled.
//!
//! All per-node scratch state lives in a [`SolverWorkspace`] reused across
//! augmentations and across solves; see [`min_cost_flow_with`].
//!
//! Arc lower bounds and the fixed flow requirement are reduced to a plain
//! min-cost max-flow between a synthetic super-source and super-sink using
//! the standard excess/deficit transformation; see
//! [`min_cost_flow`] for the contract.

use crate::canon::CacheStamp;
use crate::graph::{FlowNetwork, NodeId};
use crate::residual::{idx, Residual};
use crate::workspace::{with_thread_workspace, SolverWorkspace, INF};
use crate::{FlowSolution, NetflowError};

/// Solves for a minimum-cost flow of **exactly** `target` units from `s` to
/// `t`, honouring arc lower bounds.
///
/// The network may contain negative arc costs but must not contain a
/// directed cycle of negative total cost with positive capacity (the
/// networks produced by `lemra-core` are DAGs, so this always holds there).
///
/// Scratch memory is reused across calls through a per-thread workspace; to
/// control the workspace explicitly (e.g. one per worker in a hand-rolled
/// thread pool), use [`min_cost_flow_with`].
///
/// # Errors
///
/// * [`NetflowError::Infeasible`] if no feasible flow of value `target`
///   satisfying all lower bounds exists.
/// * [`NetflowError::NegativeCycle`] if a negative-cost cycle reachable from
///   the source is detected; use [`Backend::Simplex`](crate::Backend::Simplex)
///   for such networks.
/// * [`NetflowError::InvalidArc`] / [`NetflowError::Overflow`] if
///   [`FlowNetwork::validate_input`] rejects the instance (bad endpoints,
///   self-loops, negative target, overflow-prone magnitudes).
/// * [`NetflowError::BudgetExceeded`] if a [`SolveBudget`](crate::SolveBudget)
///   installed on the workspace runs out before the solve converges.
///
/// # Examples
///
/// ```
/// use lemra_netflow::{FlowNetwork, min_cost_flow};
///
/// # fn main() -> Result<(), lemra_netflow::NetflowError> {
/// let mut net = FlowNetwork::new();
/// let (s, a, b, t) = (net.add_node(), net.add_node(), net.add_node(), net.add_node());
/// net.add_arc(s, a, 1, 0)?;
/// net.add_arc(s, b, 1, 0)?;
/// net.add_arc(a, t, 1, 5)?;
/// net.add_arc(b, t, 1, -2)?;
/// let sol = min_cost_flow(&net, s, t, 1)?;
/// assert_eq!(sol.cost, -2); // prefers the negative-cost route
/// # Ok(())
/// # }
/// ```
pub fn min_cost_flow(
    net: &FlowNetwork,
    s: NodeId,
    t: NodeId,
    target: i64,
) -> Result<FlowSolution, NetflowError> {
    with_thread_workspace(|ws| min_cost_flow_with(net, s, t, target, ws))
}

/// [`min_cost_flow`] with an explicit [`SolverWorkspace`].
///
/// Identical contract; the workspace's buffers are reused across calls,
/// which removes all per-solve allocation beyond the residual graph itself.
///
/// # Errors
///
/// Same as [`min_cost_flow`].
pub fn min_cost_flow_with(
    net: &FlowNetwork,
    s: NodeId,
    t: NodeId,
    target: i64,
    ws: &mut SolverWorkspace,
) -> Result<FlowSolution, NetflowError> {
    check_endpoints_with(net, s, t, target, ws)?;

    // The guard returns the arena to the pool even if the solve panics, so
    // a contained panic (see `ResilientSolver`) cannot leak the buffers.
    let mut guard = ws.lease_arena();
    let (res, ws) = guard.parts();
    let (super_s, super_t, required) = transform_into(net, s, t, target, res);

    let pushed = ssp_run(res, super_s, super_t, required, ws)?;
    if pushed < required {
        return Err(NetflowError::Infeasible {
            required,
            achieved: pushed,
        });
    }
    Ok(solution_from_residual(net, res, target))
}

/// Result of [`transform`]: a finalized residual graph with the synthetic
/// super-source/super-sink appended and the units that must reach the
/// super-sink for the original problem to be feasible.
pub(crate) struct Transformed {
    /// Finalized residual graph (network arcs plus supply edges).
    pub res: Residual,
    /// Super-source node index (`net.node_count()`).
    pub super_s: usize,
    /// Super-sink node index (`net.node_count() + 1`).
    pub super_t: usize,
    /// Total excess the solve must route from `super_s` to `super_t`.
    pub required: i64,
}

/// Excess/deficit transformation shared by SSP and the reoptimizer: every
/// lower bound `l` on arc `(u, v)` pre-routes `l` units, leaving `v` with
/// excess `+l` and `u` with deficit `-l`. The requirement "exactly `target`
/// units from `s` to `t`" is a virtual arc `t -> s` with lower bound =
/// capacity = `target`.
pub(crate) fn transform(net: &FlowNetwork, s: NodeId, t: NodeId, target: i64) -> Transformed {
    let mut res = Residual::default();
    let (super_s, super_t, required) = transform_into(net, s, t, target, &mut res);
    Transformed {
        res,
        super_s,
        super_t,
        required,
    }
}

/// [`transform`] into a caller-provided [`Residual`] arena (its buffers are
/// reused; see [`Residual::rebuild_from_network`]). Returns
/// `(super_s, super_t, required)`.
pub(crate) fn transform_into(
    net: &FlowNetwork,
    s: NodeId,
    t: NodeId,
    target: i64,
    res: &mut Residual,
) -> (usize, usize, i64) {
    res.build_transformed(net, idx(s), idx(t), target)
}

/// Reconstructs a [`FlowSolution`] (adding back lower bounds) from a solved
/// residual graph.
pub(crate) fn solution_from_residual(
    net: &FlowNetwork,
    res: &Residual,
    value: i64,
) -> FlowSolution {
    let mut flows = Vec::with_capacity(net.arc_count());
    let mut cost = 0i64;
    for (i, arc) in net.arcs_slice().iter().enumerate() {
        let f = res.flow_on(res.edge_of_arc[i]) + arc.lower_bound;
        cost += arc.cost * f;
        flows.push(f);
    }
    FlowSolution { flows, value, cost }
}

/// Shared solve-entry validation: delegates to
/// [`FlowNetwork::validate_input`] so every backend rejects malformed
/// instances identically before building a residual graph.
pub(crate) fn check_endpoints(
    net: &FlowNetwork,
    s: NodeId,
    t: NodeId,
    target: i64,
) -> Result<(), NetflowError> {
    net.validate_input(s, t, target)
}

/// [`check_endpoints`] with the per-arc scan memoised in the workspace: the
/// O(1) request checks always run, but the O(arcs) invariant/overflow sweep
/// is skipped when this workspace already validated the same network
/// contents for the same `(s, t)` — sweeps and benches re-solving one
/// network hit that path on every solve after the first.
pub(crate) fn check_endpoints_with(
    net: &FlowNetwork,
    s: NodeId,
    t: NodeId,
    target: i64,
    ws: &mut SolverWorkspace,
) -> Result<(), NetflowError> {
    net.validate_request(s, t, target)?;
    let stamp = CacheStamp::of(net, s, t);
    let achievable = match ws.validate_cache {
        Some((cached, a)) if cached == stamp => a,
        _ => {
            let a = net.scan_arcs(s, t)?;
            ws.validate_cache = Some((stamp, a));
            a
        }
    };
    if target > achievable {
        return Err(NetflowError::Infeasible {
            required: target,
            achieved: achievable,
        });
    }
    Ok(())
}

/// Runs primal-dual blocking-flow phases on `res` until `target` units have
/// moved from `s` to `t` or `t` becomes unreachable. Returns the units
/// moved.
///
/// Each phase settles every node within the sink's distance with a full
/// Dijkstra round ([`dijkstra_settle`]), folds those *exact* distances into
/// the potentials, and then pushes a blocking flow over the admissible
/// subgraph — the arcs whose reduced cost is zero. Any admissible `s → t`
/// path telescopes to reduced length exactly `dist_t`, i.e. it is a true
/// shortest path, so the blocking flow sends many shortest paths per
/// Dijkstra round instead of one; exhausting the admissible subgraph
/// guarantees the next round's `dist_t` is strictly larger, so the phase
/// count is bounded by the number of distinct shortest-path lengths.
///
/// `res` must be finalized; `ws` is prepared here.
pub(crate) fn ssp_run(
    res: &mut Residual,
    s: usize,
    t: usize,
    target: i64,
    ws: &mut SolverWorkspace,
) -> Result<i64, NetflowError> {
    ws.prepare(res.node_count());
    initial_potentials(res, s, ws)?;
    let budget = ws.budget;
    let mut rounds = 0u64;
    let mut flow = 0i64;
    // Phase 0 needs no Dijkstra round at all: the initial potentials *are*
    // exact shortest distances, so the zero-reduced-cost subgraph is already
    // the shortest-path DAG and a blocking flow can run on it directly. On
    // the unit-ish targets the allocator produces this one phase usually
    // finishes the whole solve. It still counts against the round budget, so
    // a zero-round budget trips before any flow moves.
    if flow < target && ws.node[t].potential < INF {
        budget.check_rounds("ssp", "augment", rounds)?;
        rounds += 1;
        flow += crate::dinic::blocking_flow_admissible(res, s, t, ws, target - flow);
    }
    while flow < target {
        budget.check_rounds("ssp", "augment", rounds)?;
        rounds += 1;
        let dist_t = dijkstra_settle(res, s, t, ws)?;
        if dist_t >= INF {
            break;
        }
        update_potentials(ws, dist_t);
        let pushed = crate::dinic::blocking_flow_admissible(res, s, t, ws, target - flow);
        debug_assert!(pushed > 0, "reachable sink must admit a blocking flow");
        flow += pushed;
    }
    Ok(flow)
}

/// Computes initial shortest-path potentials from `s` over positive-capacity
/// residual edges, writing them into `ws.potential` (`INF` = unreachable).
///
/// When the positive-capacity subgraph is a DAG (detected with Kahn's
/// algorithm), one relaxation pass in topological order suffices — O(V+E).
/// Otherwise SPFA with a deque handles negative costs on cyclic networks and
/// reports negative cycles.
pub(crate) fn initial_potentials(
    res: &Residual,
    s: usize,
    ws: &mut SolverWorkspace,
) -> Result<(), NetflowError> {
    let n = res.node_count();
    let seed = |ws: &mut SolverWorkspace| {
        for st in &mut ws.node[..n] {
            st.potential = INF;
        }
        ws.node[s].potential = 0;
    };

    if res.monotone {
        // Fresh transformed graph whose network arcs all ascend in node
        // index: `[super_s, 0, 1, ..]` is already a topological order of the
        // positive-capacity subgraph (supply arcs leave the super-source
        // before every regular node and enter the super-sink after), so one
        // relaxation pass in that order replaces Kahn's algorithm. This is
        // the common case for the allocator's layered networks.
        seed(ws);
        for u in std::iter::once(n - 2).chain(0..n - 2) {
            let du = ws.node[u].potential;
            if du >= INF {
                continue;
            }
            for sl in &res.slots[res.active_slots(u)] {
                if sl.cap > 0 {
                    let v = sl.to as usize;
                    if du + sl.cost < ws.node[v].potential {
                        ws.node[v].potential = du + sl.cost;
                    }
                }
            }
        }
        return Ok(());
    }

    // Kahn's algorithm over edges with residual capacity. Positive-capacity
    // edges all live in the active prefixes (dormant slots are ≤ 0 by the
    // prefix invariant), so scanning active slots visits half the edge array
    // of a fresh graph.
    ws.indegree[..n].fill(0);
    for u in 0..n {
        for slot in res.active_slots(u) {
            if res.slots[slot].cap > 0 {
                ws.indegree[res.slots[slot].to as usize] += 1;
            }
        }
    }
    ws.queue.clear();
    for v in 0..n {
        if ws.indegree[v] == 0 {
            ws.queue.push_back(v as u32);
        }
    }
    ws.order.clear();
    while let Some(u) = ws.queue.pop_front() {
        ws.order.push(u);
        for slot in res.active_slots(u as usize) {
            if res.slots[slot].cap <= 0 {
                continue;
            }
            let v = res.slots[slot].to as usize;
            ws.indegree[v] -= 1;
            if ws.indegree[v] == 0 {
                ws.queue.push_back(v as u32);
            }
        }
    }

    seed(ws);

    if ws.order.len() == n {
        // DAG: one relaxation pass in topological order.
        for i in 0..ws.order.len() {
            let u = ws.order[i] as usize;
            let du = ws.node[u].potential;
            if du >= INF {
                continue;
            }
            for sl in &res.slots[res.active_slots(u)] {
                if sl.cap > 0 {
                    let v = sl.to as usize;
                    if du + sl.cost < ws.node[v].potential {
                        ws.node[v].potential = du + sl.cost;
                    }
                }
            }
        }
        return Ok(());
    }

    // Cyclic: SPFA with a deque (small-label-first) and enqueue counting for
    // negative-cycle detection.
    ws.queue.clear();
    ws.in_queue[..n].fill(false);
    ws.enqueues[..n].fill(0);
    for v in 0..n {
        if ws.node[v].potential < INF {
            ws.queue.push_back(v as u32);
            ws.in_queue[v] = true;
            ws.enqueues[v] = 1;
        }
    }
    let limit = n as u32 + 1;
    while let Some(u) = ws.queue.pop_front() {
        let u = u as usize;
        ws.in_queue[u] = false;
        let du = ws.node[u].potential;
        for slot in res.active_slots(u) {
            if res.slots[slot].cap <= 0 {
                continue;
            }
            let v = res.slots[slot].to as usize;
            let nd = du + res.slots[slot].cost;
            if nd < ws.node[v].potential {
                ws.node[v].potential = nd;
                if !ws.in_queue[v] {
                    ws.enqueues[v] += 1;
                    if ws.enqueues[v] > limit {
                        return Err(NetflowError::NegativeCycle);
                    }
                    // Small-label-first: likely-final labels jump the queue.
                    if ws
                        .queue
                        .front()
                        .is_some_and(|&f| nd < ws.node[f as usize].potential)
                    {
                        ws.queue.push_front(v as u32);
                    } else {
                        ws.queue.push_back(v as u32);
                    }
                    ws.in_queue[v] = true;
                }
            }
        }
    }
    Ok(())
}

/// A Dijkstra round over reduced costs that keeps settling until every node
/// within the sink's distance is exact: popping continues through ties and
/// stops only once a popped key exceeds the sink's settled distance. The
/// potentials updated from these distances are therefore *exact* for every
/// node that can lie on a shortest path, which is what makes zero reduced
/// cost a reliable admissibility test for the blocking-flow phase —
/// early-terminated rounds leave tentative labels whose reduced-cost ties
/// are artifacts.
///
/// Returns the sink's distance (`INF` if unreachable). Does not build the
/// parent tree: callers route flow through the admissible subgraph instead
/// of a single parent path.
///
/// # Errors
///
/// With the `validate` feature, returns [`NetflowError::InvalidSolution`]
/// when a negative reduced cost is encountered.
pub(crate) fn dijkstra_settle(
    res: &Residual,
    s: usize,
    t: usize,
    ws: &mut SolverWorkspace,
) -> Result<i64, NetflowError> {
    ws.begin_round();
    ws.set_dist(s, 0);
    ws.heap.push(0, s as u32);
    let mut dist_t = INF;
    while let Some((d, u)) = ws.heap.pop() {
        if d > dist_t {
            break;
        }
        let u = u as usize;
        if d > ws.dist_of(u) {
            continue;
        }
        if u == t {
            dist_t = d;
            continue;
        }
        let pu = ws.node[u].potential;
        if pu >= INF {
            continue;
        }
        for sl in &res.slots[res.active_slots(u)] {
            if sl.cap <= 0 {
                continue;
            }
            let v = sl.to as usize;
            if ws.node[v].potential >= INF {
                // Nodes the initialisation proved unreachable cannot carry
                // flow to t; new residual edges only appear along augmented
                // (reachable) paths, so skipping them is safe.
                continue;
            }
            let reduced = sl.cost + pu - ws.node[v].potential;
            #[cfg(feature = "validate")]
            if reduced < 0 {
                return Err(NetflowError::InvalidSolution {
                    reason: format!(
                        "negative reduced cost {reduced} on residual edge {} \
                         ({u} -> {v}); potentials are inconsistent",
                        sl.edge
                    ),
                });
            }
            debug_assert!(reduced >= 0, "negative reduced cost");
            let nd = d + reduced;
            if nd < ws.dist_of(v) {
                ws.set_dist(v, nd);
                ws.heap.push(nd, v as u32);
            }
        }
    }
    Ok(dist_t)
}

/// Folds the round's distances into the potentials.
///
/// With early termination only nodes settled before `t` have exact
/// distances; every other node's true distance is at least `dist_t`, so
/// `min(dist, dist_t)` is a valid (and standard) update that keeps all
/// reduced costs non-negative.
pub(crate) fn update_potentials(ws: &mut SolverWorkspace, dist_t: i64) {
    let epoch = ws.epoch;
    for st in &mut ws.node {
        if st.potential < INF {
            let d = if st.stamp == epoch {
                st.dist.min(dist_t)
            } else {
                dist_t
            };
            st.potential += d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (FlowNetwork, NodeId, NodeId) {
        // s -> a -> t (cost 1+1), s -> b -> t (cost 3+3), caps 1 each
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let b = net.add_node();
        let t = net.add_node();
        net.add_arc(s, a, 1, 1).unwrap();
        net.add_arc(a, t, 1, 1).unwrap();
        net.add_arc(s, b, 1, 3).unwrap();
        net.add_arc(b, t, 1, 3).unwrap();
        (net, s, t)
    }

    #[test]
    fn picks_cheaper_path_first() {
        let (net, s, t) = diamond();
        let sol = min_cost_flow(&net, s, t, 1).unwrap();
        assert_eq!(sol.cost, 2);
        assert_eq!(sol.value, 1);
        let sol2 = min_cost_flow(&net, s, t, 2).unwrap();
        assert_eq!(sol2.cost, 8);
    }

    #[test]
    fn infeasible_when_target_exceeds_capacity() {
        let (net, s, t) = diamond();
        let err = min_cost_flow(&net, s, t, 3).unwrap_err();
        assert!(matches!(err, NetflowError::Infeasible { .. }));
    }

    #[test]
    fn zero_target_is_trivially_feasible() {
        let (net, s, t) = diamond();
        let sol = min_cost_flow(&net, s, t, 0).unwrap();
        assert_eq!(sol.cost, 0);
        assert!(sol.flows.iter().all(|&f| f == 0));
    }

    #[test]
    fn negative_costs_on_dag() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let b = net.add_node();
        let t = net.add_node();
        net.add_arc(s, a, 1, 2).unwrap();
        net.add_arc(a, t, 1, -10).unwrap();
        net.add_arc(s, b, 1, 0).unwrap();
        net.add_arc(b, t, 1, 0).unwrap();
        let sol = min_cost_flow(&net, s, t, 2).unwrap();
        assert_eq!(sol.cost, -8);
    }

    #[test]
    fn lower_bound_forces_expensive_arc() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let b = net.add_node();
        let t = net.add_node();
        net.add_arc_bounded(s, a, 1, 1, 100).unwrap();
        net.add_arc(a, t, 1, 0).unwrap();
        net.add_arc(s, b, 1, 0).unwrap();
        net.add_arc(b, t, 1, 0).unwrap();
        // Without the lower bound a single unit would route via b (cost 0).
        let sol = min_cost_flow(&net, s, t, 1).unwrap();
        assert_eq!(sol.cost, 100);
        assert_eq!(sol.flows[0], 1);
        assert_eq!(sol.value, 1);
    }

    #[test]
    fn lower_bound_infeasible_without_connecting_flow() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let b = net.add_node();
        let t = net.add_node();
        // Arc a->b demands a unit but nothing feeds node a.
        net.add_arc_bounded(a, b, 1, 1, 0).unwrap();
        net.add_arc(s, t, 1, 0).unwrap();
        let err = min_cost_flow(&net, s, t, 1).unwrap_err();
        assert!(matches!(err, NetflowError::Infeasible { .. }));
    }

    #[test]
    fn negative_cycle_detected() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let b = net.add_node();
        let t = net.add_node();
        net.add_arc(s, a, 1, 0).unwrap();
        net.add_arc(a, b, 1, -5).unwrap();
        net.add_arc(b, a, 1, -5).unwrap();
        net.add_arc(a, t, 1, 0).unwrap();
        let err = min_cost_flow(&net, s, t, 1).unwrap_err();
        assert!(matches!(err, NetflowError::NegativeCycle));
    }

    #[test]
    fn rejects_equal_endpoints() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        assert!(min_cost_flow(&net, s, s, 1).is_err());
    }

    #[test]
    fn bypass_arc_absorbs_excess_flow() {
        // Mirrors the allocator's s->t bypass: target larger than the useful
        // network, excess routed at cost 0.
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let t = net.add_node();
        net.add_arc(s, a, 1, 0).unwrap();
        net.add_arc(a, t, 1, -4).unwrap();
        net.add_arc(s, t, 10, 0).unwrap();
        let sol = min_cost_flow(&net, s, t, 8).unwrap();
        assert_eq!(sol.cost, -4);
        assert_eq!(sol.flows[2], 7);
    }

    #[test]
    fn cyclic_positive_network_uses_spfa_path() {
        // A positive-capacity cycle (a <-> b) forces the SPFA fallback; the
        // optimum is still found.
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let b = net.add_node();
        let t = net.add_node();
        net.add_arc(s, a, 2, 1).unwrap();
        net.add_arc(a, b, 2, 1).unwrap();
        net.add_arc(b, a, 2, 1).unwrap();
        net.add_arc(b, t, 2, 1).unwrap();
        net.add_arc(a, t, 2, 9).unwrap();
        let sol = min_cost_flow(&net, s, t, 2).unwrap();
        assert_eq!(sol.cost, 6);
    }

    #[test]
    fn explicit_workspace_reuse_across_solves() {
        let mut ws = SolverWorkspace::new();
        let (net, s, t) = diamond();
        for _ in 0..3 {
            assert_eq!(min_cost_flow_with(&net, s, t, 2, &mut ws).unwrap().cost, 8);
        }
        // A differently-sized problem right after: buffers must resize.
        let mut net2 = FlowNetwork::new();
        let nodes = net2.add_nodes(20);
        for w in nodes.windows(2) {
            net2.add_arc(w[0], w[1], 3, 1).unwrap();
        }
        let sol = min_cost_flow_with(&net2, nodes[0], nodes[19], 3, &mut ws).unwrap();
        assert_eq!(sol.cost, 3 * 19);
        assert_eq!(min_cost_flow_with(&net, s, t, 1, &mut ws).unwrap().cost, 2);
    }

    #[cfg(feature = "validate")]
    #[test]
    fn validate_flags_corrupted_potentials() {
        // Build a residual directly and hand the settling round
        // inconsistent potentials: the reduced cost of the only edge
        // becomes negative.
        let mut res = Residual::new(2);
        res.add_edge(0, 1, 1, 5);
        res.finalize();
        let mut ws = SolverWorkspace::new();
        ws.prepare(2);
        ws.node[0].potential = 0;
        ws.node[1].potential = 100; // 5 + 0 - 100 < 0
        let err = dijkstra_settle(&res, 0, 1, &mut ws).unwrap_err();
        assert!(matches!(err, NetflowError::InvalidSolution { .. }));
        assert!(err.to_string().contains("reduced cost"));
    }

    #[cfg(feature = "validate")]
    #[test]
    fn validate_passes_on_well_formed_solves() {
        // End-to-end solves succeed with the check armed.
        let (net, s, t) = diamond();
        assert_eq!(min_cost_flow(&net, s, t, 2).unwrap().cost, 8);
    }
}
