//! Network simplex — the classical algorithm for minimum-cost flows (the
//! Nemhauser–Wolsey \[17\] era's workhorse, and still the fastest solver in
//! practice on many network families).
//!
//! A bounded-variable primal simplex specialised to networks: the basis is
//! a spanning tree (rooted at an artificial node), non-tree arcs sit at
//! their lower or upper bound, and a pivot pushes flow around the unique
//! cycle an entering arc closes. Two implementation choices carry the
//! performance (both from Király & Kovács' survey of practical
//! implementations):
//!
//! * **Block-search entering rule.** Instead of rescanning every arc from
//!   index 0 per pivot (the previous Bland rule), a circular cursor resumes
//!   where the last pivot stopped and examines arcs in blocks of
//!   `B = max(⌈√m⌉, 10)` arcs, taking
//!   the most violating arc of the first block that contains one. Pivot
//!   selection cost drops from Θ(m) to amortised O(B) while keeping most of
//!   Dantzig's pivot quality.
//! * **Strongly feasible basis.** Every zero-flow tree arc points toward
//!   the root and every saturated tree arc points away; the leaving arc is
//!   the *last* blocking arc when the pivot cycle is traversed in the push
//!   direction starting at its apex. This pins the degenerate-pivot
//!   tie-break (Cunningham's rule), guarantees termination without Bland's
//!   conservative scan order, and lets tree updates relabel only the
//!   smaller of the two subtrees a pivot separates — subtree sizes are kept
//!   in the basis arrays (`succ_num`), which also power an O(depth) LCA
//!   without per-node depth bookkeeping.
//!
//! The production solver remains [`min_cost_flow`](crate::min_cost_flow);
//! simplex is the independent reference backend that is exact on
//! negative-cost *cycles* and, with the rules above, fast enough to run
//! routinely at 512+ variables.

use crate::budget::SolveBudget;
use crate::graph::{FlowNetwork, NodeId};
use crate::ssp::check_endpoints;
use crate::{FlowSolution, NetflowError};

const NONE: usize = usize::MAX;

/// Non-tree arc resting at its lower bound (flow 0 after reduction).
const AT_LOWER: u8 = 0;
/// Basic arc: part of the spanning-tree basis.
const IN_TREE: u8 = 1;
/// Non-tree arc resting at its upper bound (flow == reduced capacity).
const AT_UPPER: u8 = 2;

/// Solves for a minimum-cost flow of exactly `target` units from `s` to
/// `t` with the network simplex method, honouring arc lower bounds.
///
/// Unlike [`min_cost_flow`](crate::min_cost_flow), negative-cost *cycles*
/// are handled correctly (the optimal basis saturates them), so this solver
/// is the reference for cyclic networks.
///
/// # Errors
///
/// * [`NetflowError::Infeasible`] if no feasible flow of value `target`
///   satisfying all lower bounds exists.
/// * [`NetflowError::InvalidArc`] / [`NetflowError::Overflow`] if
///   [`FlowNetwork::validate_input`] rejects the instance.
/// * [`NetflowError::BudgetExceeded`] if the pivot limit is exhausted —
///   either a caller-supplied [`SolveBudget`](crate::SolveBudget) (via
///   [`Backend::solve_with_budget`](crate::Backend::solve_with_budget) or a
///   workspace-installed budget) or the defensive `64·arcs·nodes` backstop,
///   which a strongly feasible basis never reaches.
///
/// # Examples
///
/// ```
/// use lemra_netflow::{min_cost_flow_network_simplex, FlowNetwork};
///
/// # fn main() -> Result<(), lemra_netflow::NetflowError> {
/// let mut net = FlowNetwork::new();
/// let (s, a, t) = (net.add_node(), net.add_node(), net.add_node());
/// net.add_arc(s, a, 2, 3)?;
/// net.add_arc(a, t, 2, -1)?;
/// let sol = min_cost_flow_network_simplex(&net, s, t, 2)?;
/// assert_eq!(sol.cost, 2 * (3 - 1));
/// # Ok(())
/// # }
/// ```
pub fn min_cost_flow_network_simplex(
    net: &FlowNetwork,
    s: NodeId,
    t: NodeId,
    target: i64,
) -> Result<FlowSolution, NetflowError> {
    min_cost_flow_network_simplex_with_block(net, s, t, target, 0)
}

/// [`min_cost_flow_network_simplex`] with an explicit entering-arc block
/// size (`0` picks the default `max(⌈√m⌉, 10)`). Block size `1` degenerates
/// to a first-eligible-from-cursor rule — the setting the pivot-sequence
/// regression tests use.
pub(crate) fn min_cost_flow_network_simplex_with_block(
    net: &FlowNetwork,
    s: NodeId,
    t: NodeId,
    target: i64,
    block: usize,
) -> Result<FlowSolution, NetflowError> {
    min_cost_flow_network_simplex_budgeted(net, s, t, target, block, SolveBudget::default())
}

/// [`min_cost_flow_network_simplex_with_block`] under a caller-supplied
/// [`SolveBudget`]: `budget.max_pivots` caps the pivot count below the
/// defensive backstop and the deadline is polled every 1024 pivots, so the
/// unlimited default adds nothing to the pivot loop.
pub(crate) fn min_cost_flow_network_simplex_budgeted(
    net: &FlowNetwork,
    s: NodeId,
    t: NodeId,
    target: i64,
    block: usize,
    budget: SolveBudget,
) -> Result<FlowSolution, NetflowError> {
    check_endpoints(net, s, t, target)?;

    // Reduce lower bounds and the fixed s->t requirement to node supplies.
    let n = net.node_count();
    let mut supply = vec![0i64; n];
    for (_, arc) in net.arcs() {
        supply[arc.to.index()] += arc.lower_bound;
        supply[arc.from.index()] -= arc.lower_bound;
    }
    supply[s.index()] += target;
    supply[t.index()] -= target;

    // Working arc arrays (capacities already reduced by lower bounds),
    // plus one artificial arc per node to the root (index n).
    let real = net.arc_count();
    let mut from = Vec::with_capacity(real + n);
    let mut to = Vec::with_capacity(real + n);
    let mut cap = Vec::with_capacity(real + n);
    let mut cost = Vec::with_capacity(real + n);
    let mut max_abs_cost = 1i64;
    for (_, arc) in net.arcs() {
        from.push(arc.from.index());
        to.push(arc.to.index());
        cap.push(arc.capacity - arc.lower_bound);
        cost.push(arc.cost);
        max_abs_cost = max_abs_cost.max(arc.cost.abs());
    }
    let total_supply: i64 = supply.iter().filter(|&&b| b > 0).sum();
    let big = max_abs_cost
        .saturating_mul((n as i64) + 1)
        .saturating_add(1);
    let root = n;
    // Artificial arcs carry each node's initial imbalance to/from the root.
    // Their capacity strictly exceeds any flow they can ever carry
    // (conservation bounds it by total_supply), so no artificial arc is at
    // its upper bound: the initial star satisfies the strong-feasibility
    // invariant (zero-flow tree arcs point toward the root, and no
    // saturated tree arcs exist at all).
    for (v, &b) in supply.iter().enumerate() {
        if b >= 0 {
            from.push(v);
            to.push(root);
        } else {
            from.push(root);
            to.push(v);
        }
        cap.push(2 * total_supply + 1);
        cost.push(big);
    }

    let m = from.len();
    let block = if block > 0 {
        block
    } else {
        (m as f64).sqrt().ceil() as usize
    }
    .clamp(1, m.max(1));
    let mut flow = vec![0i64; m];
    let mut state = vec![AT_LOWER; m];
    // Initial basis: the artificial star, carrying the supplies. Basis
    // arrays are indexed by node (root = n): parent pointers, the tree arc
    // to the parent, simplex multipliers, subtree sizes and a doubly-linked
    // children list for subtree traversal.
    let mut parent = vec![NONE; n + 1];
    let mut parent_edge = vec![NONE; n + 1];
    let mut potential = vec![0i64; n + 1];
    let mut succ_num = vec![1usize; n + 1];
    let mut first_child = vec![NONE; n + 1];
    let mut next_sib = vec![NONE; n + 1];
    let mut prev_sib = vec![NONE; n + 1];
    succ_num[root] = n + 1;
    for (v, &b) in supply.iter().enumerate() {
        let e = real + v;
        state[e] = IN_TREE;
        parent[v] = root;
        parent_edge[v] = e;
        flow[e] = b.abs();
        potential[v] = if b >= 0 { -big } else { big };
        next_sib[v] = first_child[root];
        if first_child[root] != NONE {
            prev_sib[first_child[root]] = v;
        }
        first_child[root] = v;
    }

    // Pivot until no violating non-tree arc remains. The backstop bounds
    // even adversarial bases; a caller budget can only tighten it.
    let backstop = 64u64
        .saturating_mul(m as u64)
        .saturating_mul(n as u64 + 1)
        .max(10_000);
    let max_pivots = budget.max_pivots.map_or(backstop, |b| b.min(backstop));
    let mut pivots = 0u64;
    let mut next_arc = 0usize; // circular block-search cursor
    let mut dfs = Vec::with_capacity(n + 1);
    let mut path: Vec<(usize, usize, usize)> = Vec::new(); // (node, old parent, old parent edge)
    loop {
        pivots += 1;
        if pivots > max_pivots {
            return Err(NetflowError::BudgetExceeded {
                backend: "simplex",
                phase: "pivot",
                progress: pivots - 1,
            });
        }
        if pivots & 1023 == 0 {
            budget.check_deadline("simplex", "pivot", pivots)?;
        }
        // Entering arc: resume the circular scan at the cursor; within each
        // block take the arc with the largest optimality violation, moving
        // on to the next block only if the current one has none.
        let mut entering = None;
        let mut best_violation = 0i64;
        let mut examined = 0usize;
        let mut in_block = 0usize;
        let mut e = next_arc;
        while examined < m {
            // Arcs with zero working capacity (lower bound == capacity)
            // are frozen: they sit at both bounds and can never improve.
            let violation = match state[e] {
                AT_LOWER if cap[e] > 0 => -(cost[e] + potential[from[e]] - potential[to[e]]),
                AT_UPPER => cost[e] + potential[from[e]] - potential[to[e]],
                _ => 0,
            };
            if violation > best_violation {
                best_violation = violation;
                entering = Some(e);
            }
            examined += 1;
            in_block += 1;
            e += 1;
            if e == m {
                e = 0;
            }
            if in_block == block {
                if entering.is_some() {
                    break;
                }
                in_block = 0;
            }
        }
        let Some(enter) = entering else { break };
        next_arc = e;
        let rc = cost[enter] + potential[from[enter]] - potential[to[enter]];
        // Direction: at lower bound push forward, at upper bound backward.
        let forward = state[enter] == AT_LOWER;
        let (u, v) = if forward {
            (from[enter], to[enter])
        } else {
            (to[enter], from[enter])
        };

        // The pivot cycle runs join -> ... -> u, enter, v -> ... -> join in
        // the push direction. Strong feasibility requires the *last*
        // blocking arc in that traversal order to leave: nearest-u wins
        // u-side ties (strict `<`, first seen walking up from u), the
        // entering arc beats u-side ties, and the v-side arc nearest the
        // join beats everything at equal headroom (`<=`, last seen walking
        // up from v). `succ_num` gives the LCA walk: the side whose node
        // has the (weakly) smaller subtree cannot be the other's ancestor,
        // so it is always safe to advance.
        let mut delta = if forward { cap[enter] } else { flow[enter] };
        let mut leaving = enter;
        let mut cut = NONE; // child endpoint of the leaving tree arc
        let mut leaving_on_u_side = false;
        {
            let (mut uu, mut vv) = (u, v);
            while uu != vv {
                if succ_num[uu] <= succ_num[vv] {
                    let pe = parent_edge[uu];
                    // The cycle sends flow *into* u from above: along uu's
                    // parent edge when it points down into uu, against it
                    // when it points up.
                    let headroom = if to[pe] == uu {
                        cap[pe] - flow[pe]
                    } else {
                        flow[pe]
                    };
                    if headroom < delta {
                        delta = headroom;
                        leaving = pe;
                        cut = uu;
                        leaving_on_u_side = true;
                    }
                    uu = parent[uu];
                } else {
                    let pe = parent_edge[vv];
                    let headroom = if from[pe] == vv {
                        cap[pe] - flow[pe]
                    } else {
                        flow[pe]
                    };
                    if headroom <= delta {
                        delta = headroom;
                        leaving = pe;
                        cut = vv;
                        leaving_on_u_side = false;
                    }
                    vv = parent[vv];
                }
            }
        }

        // Apply the push around the cycle.
        if delta > 0 {
            if forward {
                flow[enter] += delta;
            } else {
                flow[enter] -= delta;
            }
            let (mut uu, mut vv) = (u, v);
            while uu != vv {
                if succ_num[uu] <= succ_num[vv] {
                    let pe = parent_edge[uu];
                    if to[pe] == uu {
                        flow[pe] += delta;
                    } else {
                        flow[pe] -= delta;
                    }
                    uu = parent[uu];
                } else {
                    let pe = parent_edge[vv];
                    if from[pe] == vv {
                        flow[pe] += delta;
                    } else {
                        flow[pe] -= delta;
                    }
                    vv = parent[vv];
                }
            }
        }

        if leaving == enter {
            // The entering arc ran to its opposite bound: basis unchanged.
            state[enter] = if forward { AT_UPPER } else { AT_LOWER };
            continue;
        }

        // Basis exchange: `enter` becomes a tree arc, `leaving` drops to
        // the bound its flow now sits at.
        state[enter] = IN_TREE;
        state[leaving] = if flow[leaving] == 0 {
            AT_LOWER
        } else {
            AT_UPPER
        };

        // The cut subtree S hangs below `cut` and contains the entering
        // arc's endpoint on that side; re-root S at that endpoint and hang
        // it off the other endpoint through `enter`.
        let (attach_child, attach_parent) = if leaving_on_u_side { (u, v) } else { (v, u) };
        let size_s = succ_num[cut];

        // Subtree counts: S leaves `cut`'s old ancestors and joins
        // `attach_parent`'s chain (both entirely outside S, hence
        // untouched by the re-rooting below).
        let mut w = parent[cut];
        while w != NONE {
            succ_num[w] -= size_s;
            w = if w == root { NONE } else { parent[w] };
        }
        let mut w = attach_parent;
        loop {
            succ_num[w] += size_s;
            if w == root {
                break;
            }
            w = parent[w];
        }

        // Re-root S: reverse the tree path attach_child = p0, p1, …, pk =
        // cut. Each node's subtree in the new orientation is everything in
        // S minus the new subtree of its new parent's other branches —
        // which telescopes to succ_num(p_{i+1}) = |S| − old_succ(p_i).
        path.clear();
        let mut x = attach_child;
        loop {
            path.push((x, parent[x], parent_edge[x]));
            if x == cut {
                break;
            }
            x = parent[x];
        }
        let detach = |first_child: &mut [usize],
                      next_sib: &mut [usize],
                      prev_sib: &mut [usize],
                      node: usize,
                      old_parent: usize| {
            if prev_sib[node] != NONE {
                next_sib[prev_sib[node]] = next_sib[node];
            } else {
                first_child[old_parent] = next_sib[node];
            }
            if next_sib[node] != NONE {
                prev_sib[next_sib[node]] = prev_sib[node];
            }
        };
        let attach = |first_child: &mut [usize],
                      next_sib: &mut [usize],
                      prev_sib: &mut [usize],
                      node: usize,
                      new_parent: usize| {
            next_sib[node] = first_child[new_parent];
            if first_child[new_parent] != NONE {
                prev_sib[first_child[new_parent]] = node;
            }
            prev_sib[node] = NONE;
            first_child[new_parent] = node;
        };
        let mut old_succ_prev = 0usize;
        for (i, &(node, old_parent, _)) in path.iter().enumerate() {
            detach(
                &mut first_child,
                &mut next_sib,
                &mut prev_sib,
                node,
                old_parent,
            );
            let (new_parent, new_pe, new_succ) = if i == 0 {
                (attach_parent, enter, size_s)
            } else {
                (path[i - 1].0, path[i - 1].2, size_s - old_succ_prev)
            };
            old_succ_prev = succ_num[node];
            attach(
                &mut first_child,
                &mut next_sib,
                &mut prev_sib,
                node,
                new_parent,
            );
            parent[node] = new_parent;
            parent_edge[node] = new_pe;
            succ_num[node] = new_succ;
        }

        // Relabel simplex multipliers: tree arcs inside S keep zero reduced
        // cost under a uniform shift, so only the entering arc constrains
        // it — shift S by −rc when its endpoint is the arc's tail, by +rc
        // when it is the head. Potentials are a gauge (only differences
        // matter), so when S is the larger side, shift the complement by
        // the negated delta instead and touch min(|S|, n+1−|S|) nodes.
        let shift = if from[enter] == attach_child { -rc } else { rc };
        dfs.clear();
        if 2 * size_s <= n + 1 {
            dfs.push(attach_child);
            while let Some(x) = dfs.pop() {
                potential[x] += shift;
                let mut c = first_child[x];
                while c != NONE {
                    dfs.push(c);
                    c = next_sib[c];
                }
            }
        } else {
            dfs.push(root);
            while let Some(x) = dfs.pop() {
                potential[x] -= shift;
                let mut c = first_child[x];
                while c != NONE {
                    if c != attach_child {
                        dfs.push(c);
                    }
                    c = next_sib[c];
                }
            }
        }
    }

    // Any residual artificial flow means the supplies cannot be routed.
    let leftover: i64 = (real..m).map(|e| flow[e]).sum();
    if leftover > 0 {
        let required: i64 = supply.iter().filter(|&&b| b > 0).sum();
        return Err(NetflowError::Infeasible {
            required,
            achieved: required - leftover,
        });
    }

    let mut flows = Vec::with_capacity(real);
    let mut total = 0i64;
    for (i, (_, arc)) in net.arcs().enumerate() {
        let f = flow[i] + arc.lower_bound;
        total += arc.cost * f;
        flows.push(f);
    }
    Ok(FlowSolution {
        flows,
        value: target,
        cost: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{min_cost_flow, validate};
    use proptest::prelude::*;

    #[test]
    fn matches_ssp_on_a_diamond() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let b = net.add_node();
        let t = net.add_node();
        net.add_arc(s, a, 2, 1).unwrap();
        net.add_arc(s, b, 2, 4).unwrap();
        net.add_arc(a, b, 1, -2).unwrap();
        net.add_arc(a, t, 1, 6).unwrap();
        net.add_arc(b, t, 3, 1).unwrap();
        for f in 0..=3 {
            let ssp = min_cost_flow(&net, s, t, f).unwrap();
            let nsx = min_cost_flow_network_simplex(&net, s, t, f).unwrap();
            validate(&net, s, t, &nsx).unwrap();
            assert_eq!(ssp.cost, nsx.cost, "flow {f}");
        }
    }

    #[test]
    fn saturates_negative_cycles() {
        // Same cyclic instance SSP refuses with `NegativeCycle`.
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let b = net.add_node();
        let t = net.add_node();
        net.add_arc(s, a, 1, 0).unwrap();
        net.add_arc(a, b, 2, -3).unwrap();
        net.add_arc(b, a, 2, 1).unwrap();
        net.add_arc(b, t, 1, 0).unwrap();
        let nsx = min_cost_flow_network_simplex(&net, s, t, 1).unwrap();
        validate(&net, s, t, &nsx).unwrap();
        // One unit s->a->b->t (-3) plus one residual cycle a->b->a (-2).
        assert_eq!(nsx.cost, -5);
        assert_eq!(
            min_cost_flow(&net, s, t, 1).unwrap_err(),
            NetflowError::NegativeCycle
        );
    }

    #[test]
    fn lower_bounds_respected() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let b = net.add_node();
        let t = net.add_node();
        net.add_arc_bounded(s, a, 1, 1, 100).unwrap();
        net.add_arc(a, t, 1, 0).unwrap();
        net.add_arc(s, b, 1, 0).unwrap();
        net.add_arc(b, t, 1, 0).unwrap();
        let sol = min_cost_flow_network_simplex(&net, s, t, 1).unwrap();
        validate(&net, s, t, &sol).unwrap();
        assert_eq!(sol.cost, 100);
        assert_eq!(sol.flows[0], 1);
    }

    #[test]
    fn infeasible_detected() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let t = net.add_node();
        net.add_arc(s, t, 2, 1).unwrap();
        assert!(matches!(
            min_cost_flow_network_simplex(&net, s, t, 3),
            Err(NetflowError::Infeasible { .. })
        ));
    }

    #[test]
    fn zero_target() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let t = net.add_node();
        net.add_arc(s, t, 2, 1).unwrap();
        let sol = min_cost_flow_network_simplex(&net, s, t, 0).unwrap();
        assert_eq!(sol.cost, 0);
    }

    /// Satellite regression: block size 1 — the first-eligible rule closest
    /// to the old Dantzig/Bland scan — must land on the same objective as
    /// the default block size on a mixed-sign cyclic instance.
    #[test]
    fn block_size_one_reproduces_default_objective() {
        let mut net = FlowNetwork::new();
        let nodes: Vec<_> = (0..8).map(|_| net.add_node()).collect();
        let arcs = [
            (0usize, 1usize, 3i64, 2i64),
            (0, 2, 2, 5),
            (1, 3, 2, -4),
            (3, 1, 2, 1),
            (2, 3, 3, 0),
            (3, 4, 2, 3),
            (4, 5, 2, -1),
            (5, 4, 1, 0),
            (4, 6, 2, 2),
            (5, 7, 3, 1),
            (6, 7, 2, -2),
            (2, 5, 1, 7),
        ];
        for &(u, v, cap, cost) in &arcs {
            net.add_arc(nodes[u], nodes[v], cap, cost).unwrap();
        }
        let (s, t) = (nodes[0], nodes[7]);
        for target in 0..=3 {
            let dantzig = min_cost_flow_network_simplex_with_block(&net, s, t, target, 1).unwrap();
            let blocked = min_cost_flow_network_simplex_with_block(&net, s, t, target, 0).unwrap();
            validate(&net, s, t, &dantzig).unwrap();
            validate(&net, s, t, &blocked).unwrap();
            assert_eq!(dantzig.cost, blocked.cost, "target {target}");
        }
    }

    #[test]
    fn exhausted_pivot_budget_is_a_typed_error() {
        // Regression: a starved pivot loop must surface as BudgetExceeded
        // with backend/phase/progress, not as a stringly InvalidSolution.
        // Dantzig pricing (block 1) on a net with interior negative-cost
        // cycles needs several pivots even for target 1.
        let mut net = FlowNetwork::new();
        let nodes: Vec<_> = (0..8).map(|_| net.add_node()).collect();
        let arcs = [
            (0usize, 1usize, 3i64, 2i64),
            (0, 2, 2, 5),
            (1, 3, 2, -4),
            (3, 1, 2, 1),
            (2, 3, 3, 0),
            (3, 4, 2, 3),
            (4, 5, 2, -1),
            (5, 4, 1, 0),
            (4, 6, 2, 2),
            (5, 7, 3, 1),
            (6, 7, 2, -2),
            (2, 5, 1, 7),
        ];
        for &(u, v, cap, cost) in &arcs {
            net.add_arc(nodes[u], nodes[v], cap, cost).unwrap();
        }
        let (s, t) = (nodes[0], nodes[7]);
        let budget = SolveBudget::default().with_max_pivots(1);
        let err = min_cost_flow_network_simplex_budgeted(&net, s, t, 3, 1, budget).unwrap_err();
        match err {
            NetflowError::BudgetExceeded {
                backend,
                phase,
                progress,
            } => {
                assert_eq!(backend, "simplex");
                assert_eq!(phase, "pivot");
                assert_eq!(progress, 1);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        // An adequate budget solves the same instance.
        let budget = SolveBudget::default().with_max_pivots(10_000);
        let sol = min_cost_flow_network_simplex_budgeted(&net, s, t, 3, 1, budget).unwrap();
        validate(&net, s, t, &sol).unwrap();
        let blocked = min_cost_flow_network_simplex(&net, s, t, 3).unwrap();
        assert_eq!(sol.cost, blocked.cost);
    }

    proptest! {
        /// Every block size must agree with SSP's objective on random DAGs
        /// (and pass reduced-cost validation), regardless of where the
        /// circular cursor cuts the scan.
        #[test]
        fn any_block_size_matches_ssp(
            arcs in proptest::collection::vec(
                (0usize..6, 1usize..7, 1i64..5, -10i64..10),
                1..16,
            ),
            target in 0i64..4,
            block in 0usize..9,
        ) {
            let mut net = FlowNetwork::new();
            let nodes: Vec<_> = (0..8).map(|_| net.add_node()).collect();
            for (u, d, cap, cost) in arcs {
                let v = (u + d).min(7);
                if v > u {
                    net.add_arc(nodes[u], nodes[v], cap, cost).unwrap();
                }
            }
            net.add_arc(nodes[0], nodes[7], 8, 50).unwrap(); // keep feasible
            let (s, t) = (nodes[0], nodes[7]);
            let ssp = min_cost_flow(&net, s, t, target).unwrap();
            let nsx =
                min_cost_flow_network_simplex_with_block(&net, s, t, target, block).unwrap();
            validate(&net, s, t, &nsx).unwrap();
            prop_assert_eq!(ssp.cost, nsx.cost);
        }
    }
}
