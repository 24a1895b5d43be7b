//! Minimum-mean cycle cancelling on a residual graph.
//!
//! [`cancel_all_negative_cycles`] takes any feasible flow and repeatedly
//! cancels the residual cycle of **minimum mean cost** until no negative
//! cycle remains. Optimality follows from the classical negative-cycle
//! optimality condition; picking the minimum-mean cycle (rather than an
//! arbitrary one) is what makes the cancellation count polynomial
//! (Goldberg & Tarjan). The [`Reoptimizer`](crate::Reoptimizer) uses it to
//! repair retained warm state that a cost delta left with negative cycles.
//!
//! The minimum-mean cycle is found by **Howard's policy iteration** run per
//! strongly connected component of the positive-capacity residual graph:
//! every node holds one chosen out-edge (the *policy*), each round extracts
//! the best cycle of the policy's functional graph, re-derives node values
//! against that cycle's mean, and improves the policy along any edge that
//! beats the current value. Rounds cost O(V + E) and converge in a handful
//! of iterations in practice; a round budget guards the theoretical worst
//! case, falling back to **Karp's recurrence** (exact, O(V·E)) for the
//! offending component. Between cancellations the policy is *repaired*, not
//! rebuilt: only nodes whose chosen edge was saturated by the push pick a
//! new edge, so successive searches start from an almost-converged policy.
//!
//! Scratch state lives in the caller's [`SolverWorkspace`] where the types
//! line up (`parent_edge` holds the policy, `indegree` the SCC ids,
//! `order`/`queue` the traversal frontiers) plus a small local buffer for
//! the 128-bit scaled node values.

use crate::residual::Residual;
use crate::workspace::SolverWorkspace;
use crate::NetflowError;

const NONE: u32 = u32::MAX;

const INF128: i128 = i128::MAX / 4;

/// Out-of-line budget check for the cancellation loop — see the call site
/// for why this must not inline.
#[cold]
#[inline(never)]
fn check_cancel_budget(ws: &SolverWorkspace, rounds: u64) -> Result<(), NetflowError> {
    ws.budget.check_rounds("cycle", "cancel", rounds)
}

/// Repeatedly cancels negative residual cycles until none exists.
///
/// Selection is amortised: a greedy bulk phase soaks up most cancellations
/// at O(V) per sweep, then Howard's policy iteration runs per SCC with
/// *eager* cancellation and incremental policy repair ([`howard_cancel`]).
/// Certification is a single whole-graph Bellman-Ford pass
/// ([`spfa_negative_cycle`]): clean convergence yields feasible node
/// potentials, an exact witness that no negative cycle remains — without
/// re-running the SCC + Howard machinery just to prove emptiness. The rare
/// cycle that in-place cancellations hid from the stale partition surfaces
/// there, is cancelled, and selection runs again on a fresh partition; the
/// strictly decreasing integral flow cost bounds the loop.
///
/// # Errors
///
/// [`NetflowError::BudgetExceeded`] if the workspace carries a
/// [`SolveBudget`](crate::SolveBudget) and its round limit or deadline runs
/// out between cancellation rounds.
pub(crate) fn cancel_all_negative_cycles(
    res: &mut Residual,
    ws: &mut SolverWorkspace,
) -> Result<(), NetflowError> {
    let n = res.node_count();
    ws.prepare(n);
    let mut scratch = MeanScratch::new(n);
    // A negative cycle needs a negative edge; the common "nothing to do"
    // exit (DAG inputs after feasibility routing) costs one linear scan.
    if !has_active_negative_edge(res) {
        return Ok(());
    }
    // Howard's scaled values are bounded by 4*C*n^2 for the largest
    // absolute arc cost C: run the narrow (i64) instantiation when that
    // provably fits, the wide (i128) one otherwise.
    let max_abs_cost = (0..n)
        .flat_map(|u| res.active_slots(u))
        .map(|slot| res.slots[slot].cost.unsigned_abs())
        .max()
        .unwrap_or(0);
    let narrow = (max_abs_cost as u128)
        .saturating_mul(n as u128)
        .saturating_mul(n as u128)
        < i64::MAX as u128 / 4;
    // Bulk phase: the greedy policy's cycles soak up most cancellations at
    // O(V) per sweep before any exact machinery runs.
    greedy_cancel(res, ws, &mut scratch);
    // Hoist the "is any limit set" decision out of the loop and keep the
    // check itself out of line: inlining the budget machinery (notably the
    // deadline's clock read) into the cancellation loop measurably perturbs
    // its codegen, a bool test against a cold call does not.
    let limited = !ws.budget.is_unlimited();
    let mut rounds = 0u64;
    loop {
        if limited {
            check_cancel_budget(ws, rounds)?;
            rounds += 1;
        }
        let comps = strongly_connected_components(res, ws, &mut scratch);
        group_components(res, ws, &mut scratch, comps);
        for c in 0..comps {
            if !scratch.comp_neg[c] {
                continue;
            }
            let range = scratch.comp_start[c] as usize..scratch.comp_start[c + 1] as usize;
            if narrow {
                howard_cancel_narrow(res, ws, &mut scratch, c as u32, range);
            } else {
                howard_cancel_wide(res, ws, &mut scratch, c as u32, range);
            }
        }
        let found = spfa_negative_cycles(res, ws, &mut scratch);
        match found {
            None => return Ok(()),
            Some(cycles) => {
                for cycle in &cycles {
                    ws.pushed_units += cancel_cycle(res, cycle) as u64;
                }
                // The cycles came out of regions Howard left behind (a
                // stale partition, or its early bail); drain the cheap
                // follow-ups before repartitioning.
                greedy_cancel(res, ws, &mut scratch);
            }
        }
    }
}

/// Bulk cancellation against the *greedy* policy (each node's cheapest
/// positive-capacity out-edge): sweep the policy's functional graph, cancel
/// every cycle of negative total cost, re-pick only the policies the push
/// saturated (all on the cycle itself), and repeat until a sweep cancels
/// nothing.
///
/// This needs no SCC decomposition and no node values — any closed
/// positive-capacity walk of negative total cost is a valid cancellation
/// target — so each sweep costs O(V) plus the repairs. It cannot *certify*
/// optimality (a negative cycle may avoid greedy edges); the caller follows
/// with the exact Howard/Karp pass, which also inherits the greedy policy
/// as its warm start.
fn greedy_cancel(res: &mut Residual, ws: &mut SolverWorkspace, scratch: &mut MeanScratch) {
    let n = res.node_count();
    let repick = |res: &Residual, u: usize| -> u32 {
        let mut pick = NONE;
        let mut pick_cost = i64::MAX;
        for slot in res.active_slots(u) {
            if res.slots[slot].cap > 0 && res.slots[slot].cost < pick_cost {
                pick_cost = res.slots[slot].cost;
                pick = res.slots[slot].edge;
            }
        }
        pick
    };
    for u in 0..n {
        ws.parent_edge[u] = repick(res, u);
    }
    let mut cycle = Vec::new();
    loop {
        let mut cancelled = false;
        let sweep_base = scratch.walk;
        for start in 0..n {
            if scratch.mark[start] > sweep_base || ws.parent_edge[start] == NONE {
                continue;
            }
            scratch.walk += 1;
            let id = scratch.walk;
            let mut v = start;
            while scratch.mark[v] <= sweep_base && ws.parent_edge[v] != NONE {
                scratch.mark[v] = id;
                v = res.head(ws.parent_edge[v]);
            }
            if scratch.mark[v] != id {
                continue; // dead-ended or merged into an earlier chain
            }
            cycle.clear();
            let mut total = 0i64;
            let mut u = v;
            loop {
                let e = ws.parent_edge[u];
                cycle.push(e);
                total += res.cost_of(e);
                u = res.head(e);
                if u == v {
                    break;
                }
            }
            if total < 0 {
                ws.pushed_units += cancel_cycle(res, &cycle) as u64;
                cancelled = true;
                // The push touched only cycle edges and their partners,
                // whose tails are all on the cycle: repairs stay local.
                for &e in &cycle {
                    let tail = res.tail(e);
                    if res.cap_of(ws.parent_edge[tail]) == 0 {
                        ws.parent_edge[tail] = repick(res, tail);
                    }
                }
            }
        }
        if !cancelled {
            return;
        }
    }
}

/// True if any positive-capacity residual edge has negative cost.
fn has_active_negative_edge(res: &Residual) -> bool {
    (0..res.node_count()).any(|u| {
        res.active_slots(u)
            .any(|slot| res.slots[slot].cap > 0 && res.slots[slot].cost < 0)
    })
}

/// Howard's policy iteration on one SCC with *eager* cancellation.
///
/// Each round sweeps the policy's functional graph once; every fresh
/// negative cycle is cancelled on sight (the cycles of one functional
/// graph are node-disjoint, hence edge-disjoint, so each remains a valid
/// negative residual cycle as the earlier ones are pushed) and only the
/// nodes whose chosen edge saturated re-pick. A round without a
/// cancellation runs the usual evaluate/improve step toward the component
/// minimum mean; convergence with a non-negative best cycle certifies the
/// component clean under the current (possibly stale) partition — the
/// caller's SPFA pass re-checks globally. Karp's recurrence takes over
/// when too many quiet rounds pass without convergence.
///
/// The macro instantiates the round arithmetic twice: scaled edge weights
/// are `cost(e)*len - cycle_cost`, and node values sum up to `n` of them,
/// so everything fits an `i64` whenever `4*C*n^2 < i64::MAX` for the
/// largest absolute cost `C` — the caller dispatches on that guard and
/// falls back to the always-exact `i128` instantiation otherwise.
macro_rules! howard_cancel_impl {
    ($name:ident, $ty:ty, $dist:ident) => {
        fn $name(
            res: &mut Residual,
            ws: &mut SolverWorkspace,
            scratch: &mut MeanScratch,
            c: u32,
            range: std::ops::Range<usize>,
        ) {
            let comp_len = range.len();
            let nodes_start = range.start;
            let repick = |res: &Residual, ws: &SolverWorkspace, u: usize| -> u32 {
                let mut pick = NONE;
                let mut pick_cost = i64::MAX;
                for slot in res.active_slots(u) {
                    if res.slots[slot].cap > 0
                        && ws.indegree[res.slots[slot].to as usize] == c
                        && res.slots[slot].cost < pick_cost
                    {
                        pick_cost = res.slots[slot].cost;
                        pick = res.slots[slot].edge;
                    }
                }
                pick
            };

            // Policy init / repair: keep the retained edge when it still
            // has capacity and stays inside the component, else re-pick the
            // cheapest qualifying out-edge. Strong connectivity guarantees
            // one exists for components of size >= 2; a singleton qualifies
            // only via a self-loop.
            for i in 0..comp_len {
                let u = scratch.comp_nodes[nodes_start + i] as usize;
                let e = ws.parent_edge[u];
                let valid = e != NONE
                    && res.cap_of(e) > 0
                    && ws.indegree[res.head(e)] == c
                    && res.tail(e) == u;
                if valid {
                    continue;
                }
                let pick = repick(res, ws, u);
                if pick == NONE {
                    // Singleton without a self-loop: no cycle through here.
                    return;
                }
                ws.parent_edge[u] = pick;
            }

            let quiet_budget = 2 * comp_len + 32;
            let mut quiet = 0usize;
            let mut cycle: Vec<u32> = Vec::new();
            loop {
                // (a) Sweep the policy's functional graph: cancel every
                // fresh negative cycle immediately, track the best mean of
                // the rest.
                let mut best: Option<BestCycle<$ty>> = None;
                let mut cancelled = false;
                let eval_base = scratch.walk;
                for i in 0..comp_len {
                    let start = scratch.comp_nodes[nodes_start + i] as usize;
                    if scratch.mark[start] > eval_base {
                        continue;
                    }
                    scratch.walk += 1;
                    let id = scratch.walk;
                    let mut v = start;
                    while scratch.mark[v] <= eval_base {
                        scratch.mark[v] = id;
                        v = res.head(ws.parent_edge[v]);
                    }
                    if scratch.mark[v] != id {
                        continue; // merged into an already-swept chain
                    }
                    cycle.clear();
                    let mut cost: $ty = 0;
                    let mut u = v;
                    loop {
                        let e = ws.parent_edge[u];
                        cycle.push(e);
                        cost += res.cost_of(e) as $ty;
                        u = res.head(e);
                        if u == v {
                            break;
                        }
                    }
                    if cost < 0 {
                        ws.pushed_units += cancel_cycle(res, &cycle) as u64;
                        cancelled = true;
                        // The push touched only cycle edges and their
                        // partners, whose tails are all on the (now marked)
                        // cycle: repairs stay local and later walks stop
                        // before reaching them.
                        for &e in &cycle {
                            let tail = res.tail(e);
                            if res.cap_of(ws.parent_edge[tail]) == 0 {
                                let pick = repick(res, ws, tail);
                                if pick == NONE {
                                    // The cancellation disconnected the
                                    // component; the caller's SPFA pass
                                    // owns whatever is left.
                                    return;
                                }
                                ws.parent_edge[tail] = pick;
                            }
                        }
                    } else {
                        let found = BestCycle {
                            cost,
                            len: cycle.len() as i64,
                            node: v as u32,
                        };
                        if best.as_ref().is_none_or(|b| b.beats(&found)) {
                            best = Some(found);
                        }
                    }
                }
                if cancelled {
                    quiet = 0;
                    continue; // policies changed: re-sweep before valuing
                }
                let best = best.expect("functional graph over a finite set has a cycle");

                // (b) Node values against the best cycle's mean, scaled by
                // its length so everything stays integral:
                // w(e) = cost(e)*len - cost. Phase one follows policy
                // in-edges backwards from the cycle (BFS order makes each
                // value final when assigned); phase two attaches any node
                // the policy graph routed elsewhere through an arbitrary
                // in-edge, re-pointing its policy at the cycle's component.
                scratch.gen += 1;
                let gen = scratch.gen;
                scratch.bfs.clear();
                let cyc = best.node as usize;
                scratch.$dist[cyc] = 0;
                scratch.reached[cyc] = gen;
                scratch.bfs.push(best.node);
                let mut front = 0usize;
                while front < scratch.bfs.len() {
                    let v = scratch.bfs[front] as usize;
                    front += 1;
                    let dv = scratch.$dist[v];
                    for slot in res.first_out[v] as usize..res.first_out[v + 1] as usize {
                        let u = res.slots[slot].to as usize;
                        let back = res.slots[slot].edge ^ 1;
                        if ws.indegree[u] == c
                            && scratch.reached[u] != gen
                            && ws.parent_edge[u] == back
                        {
                            // cost(e ^ 1) == -cost(e), and the forward cost
                            // rides in this slot: no slot_of indirection.
                            debug_assert_eq!(res.cost_of(back), -res.slots[slot].cost);
                            scratch.$dist[u] =
                                dv + (-res.slots[slot].cost) as $ty * best.len as $ty - best.cost;
                            scratch.reached[u] = gen;
                            scratch.bfs.push(u as u32);
                        }
                    }
                }
                // Phase two only has work when the policy graph routed
                // some node away from the best cycle; a near-converged
                // policy reaches everyone in phase one, skipping the
                // second full-adjacency sweep.
                if scratch.bfs.len() < comp_len {
                    front = 0;
                    while front < scratch.bfs.len() {
                        let v = scratch.bfs[front] as usize;
                        front += 1;
                        let dv = scratch.$dist[v];
                        for slot in res.first_out[v] as usize..res.first_out[v + 1] as usize {
                            let u = res.slots[slot].to as usize;
                            let back = res.slots[slot].edge ^ 1;
                            if ws.indegree[u] == c
                                && scratch.reached[u] != gen
                                && res.cap_of(back) > 0
                            {
                                ws.parent_edge[u] = back;
                                scratch.$dist[u] = dv
                                    + (-res.slots[slot].cost) as $ty * best.len as $ty
                                    - best.cost;
                                scratch.reached[u] = gen;
                                scratch.bfs.push(u as u32);
                            }
                        }
                    }
                }
                if scratch.bfs.len() < comp_len {
                    // Earlier in-place cancellations broke the component's
                    // strong connectivity: part of it can no longer reach
                    // the best cycle, so the values cannot be completed.
                    // Leave the remainder to the certification pass.
                    return;
                }

                // (c) Policy improvement along every in-component edge.
                let mut improved = false;
                for i in 0..comp_len {
                    let u = scratch.comp_nodes[nodes_start + i] as usize;
                    let mut du = scratch.$dist[u];
                    for slot in res.active_slots(u) {
                        if res.slots[slot].cap <= 0 {
                            continue;
                        }
                        let v = res.slots[slot].to as usize;
                        if ws.indegree[v] != c {
                            continue;
                        }
                        let d = scratch.$dist[v] + res.slots[slot].cost as $ty * best.len as $ty
                            - best.cost;
                        if d < du {
                            du = d;
                            ws.parent_edge[u] = res.slots[slot].edge;
                            improved = true;
                        }
                    }
                    scratch.$dist[u] = du;
                }
                if !improved {
                    // Converged: `best` is the component's exact minimum
                    // mean, and every negative policy cycle was already
                    // cancelled in (a).
                    debug_assert!(best.cost >= 0);
                    return;
                }
                quiet += 1;
                if quiet >= quiet_budget {
                    match karp_negative_cycle(res, ws, scratch, c, range.clone()) {
                        Some(kcycle) => {
                            ws.pushed_units += cancel_cycle(res, &kcycle) as u64;
                            for &e in &kcycle {
                                let tail = res.tail(e);
                                let pe = ws.parent_edge[tail];
                                if pe == NONE || res.cap_of(pe) == 0 {
                                    let pick = repick(res, ws, tail);
                                    if pick == NONE {
                                        return;
                                    }
                                    ws.parent_edge[tail] = pick;
                                }
                            }
                            quiet = 0;
                        }
                        // Exact: the component's minimum mean is
                        // non-negative.
                        None => return,
                    }
                }
            }
        }
    };
}

howard_cancel_impl!(howard_cancel_narrow, i64, dist64);
howard_cancel_impl!(howard_cancel_wide, i128, dist);

/// One Bellman-Ford pass (SPFA queue variant) over every active residual
/// edge, all nodes seeded at distance zero.
///
/// `None` means convergence: the distances are feasible potentials (every
/// active edge has non-negative reduced cost), an exact certificate that
/// no negative-cost cycle remains anywhere in the residual graph. On a
/// graph that still holds a negative cycle the queue never drains, so
/// every couple of `n` dequeues the predecessor graph is scanned for
/// cycles — any cycle there witnesses a negative one — and all of its
/// (node-disjoint) cycles are returned. A clean run drains the queue in
/// a handful of sweeps and pays for at most a few scans.
fn spfa_negative_cycles(
    res: &Residual,
    ws: &mut SolverWorkspace,
    scratch: &mut MeanScratch,
) -> Option<Vec<Vec<u32>>> {
    let n = res.node_count();
    ws.queue.clear();
    for v in 0..n {
        ws.node[v].dist = 0;
        ws.parent_edge[v] = NONE;
        ws.in_queue[v] = true;
        ws.queue.push_back(v as u32);
    }
    let mut dequeues = 0usize;
    let mut next_scan = 2 * n;
    while let Some(u) = ws.queue.pop_front() {
        let u = u as usize;
        ws.in_queue[u] = false;
        dequeues += 1;
        if dequeues >= next_scan {
            let cycles = predecessor_cycles(res, ws, scratch);
            if !cycles.is_empty() {
                return Some(cycles);
            }
            // The scan can race the relaxations (a cycle exists in the
            // graph before the predecessor graph closes over it); scan
            // again a little later — with a negative cycle present the
            // queue cannot drain, so one scan must eventually catch it.
            next_scan += n.max(32);
        }
        let du = ws.node[u].dist;
        for slot in res.active_slots(u) {
            if res.slots[slot].cap <= 0 {
                continue;
            }
            let v = res.slots[slot].to as usize;
            let nd = du + res.slots[slot].cost;
            if nd < ws.node[v].dist {
                ws.node[v].dist = nd;
                ws.parent_edge[v] = res.slots[slot].edge;
                if !ws.in_queue[v] {
                    ws.in_queue[v] = true;
                    ws.queue.push_back(v as u32);
                }
            }
        }
    }
    None
}

/// Collects every cycle of the SPFA predecessor graph. The predecessors
/// form a functional graph (one parent per node), so its cycles are
/// node-disjoint — hence edge-disjoint, and all of them can be cancelled
/// off one detection. Any cycle formed by Bellman-Ford relaxations has
/// negative total cost (each parent edge was tight when set and can only
/// have gained slack since), and its edges all carried positive residual
/// capacity when chosen — capacities are frozen during the pass, so each
/// is a valid cancellation witness.
fn predecessor_cycles(
    res: &Residual,
    ws: &SolverWorkspace,
    scratch: &mut MeanScratch,
) -> Vec<Vec<u32>> {
    let n = res.node_count();
    let mut cycles = Vec::new();
    let sweep_base = scratch.walk;
    for start in 0..n {
        if scratch.mark[start] > sweep_base || ws.parent_edge[start] == NONE {
            continue;
        }
        scratch.walk += 1;
        let id = scratch.walk;
        let mut v = start;
        while scratch.mark[v] <= sweep_base && ws.parent_edge[v] != NONE {
            scratch.mark[v] = id;
            v = res.tail(ws.parent_edge[v]);
        }
        if scratch.mark[v] != id {
            continue; // dead-ended or merged into an earlier chain
        }
        let mut cycle = Vec::new();
        let mut total = 0i128;
        let mut u = v;
        loop {
            let e = ws.parent_edge[u];
            cycle.push(e);
            total += res.cost_of(e) as i128;
            u = res.tail(e);
            if u == v {
                break;
            }
        }
        debug_assert!(total < 0, "Bellman-Ford predecessor cycles are negative");
        if total < 0 {
            cycles.push(cycle);
        }
    }
    cycles
}

/// Pushes the bottleneck capacity around one residual cycle and returns
/// the amount pushed, so callers can fold it into the workspace's
/// effort counters.
fn cancel_cycle(res: &mut Residual, cycle: &[u32]) -> i64 {
    let bottleneck = cycle
        .iter()
        .map(|&e| res.cap_of(e))
        .min()
        .expect("cycle is non-empty");
    debug_assert!(bottleneck > 0);
    for &e in cycle {
        res.push(e, bottleneck);
    }
    // Incremental policy repair happens lazily: nodes whose chosen edge
    // this push saturated re-pick at the next convergence's policy-init
    // pass (the edge fails its capacity check there); every other node
    // keeps its near-converged policy.
    bottleneck
}

/// Scratch buffers for the minimum-mean cycle search that do not fit the
/// [`SolverWorkspace`] types: the 128-bit scaled node values and the stamp
/// arrays of the walk/evaluation generations.
struct MeanScratch {
    /// Scaled node value of Howard's evaluation step (valid while
    /// `reached[v] == gen`); the wide (`i128`) instantiation.
    dist: Vec<i128>,
    /// Same, for the narrow (`i64`) instantiation.
    dist64: Vec<i64>,
    /// Evaluation stamp per node.
    reached: Vec<u32>,
    /// Current evaluation generation.
    gen: u32,
    /// Walk stamp per node for policy-cycle extraction.
    mark: Vec<u32>,
    /// Monotone walk counter backing `mark`.
    walk: u32,
    /// DFS stack of Kosaraju's passes: `(node, next slot cursor)`.
    stack: Vec<(u32, u32)>,
    /// BFS queue of the evaluation step, with a manual read cursor so the
    /// attach phase can re-scan it from the start.
    bfs: Vec<u32>,
    /// Nodes grouped by SCC id (counting sort over `ws.indegree`).
    comp_nodes: Vec<u32>,
    /// Start offset per SCC id into `comp_nodes` (one past the end in the
    /// final slot).
    comp_start: Vec<u32>,
    /// Whether the SCC contains an internal negative-cost active edge (the
    /// only components that can hold a negative cycle).
    comp_neg: Vec<bool>,
}

impl MeanScratch {
    fn new(n: usize) -> Self {
        Self {
            dist: vec![0; n],
            dist64: vec![0; n],
            reached: vec![0; n],
            gen: 0,
            mark: vec![0; n],
            walk: 0,
            stack: Vec::new(),
            bfs: Vec::new(),
            comp_nodes: Vec::new(),
            comp_start: Vec::new(),
            comp_neg: Vec::new(),
        }
    }
}

/// The best (minimum-mean) cycle seen so far: scaled cost, length and a
/// node on it. `T` is the scaled-cost representation — `i64` when the
/// caller's magnitude guard holds, `i128` otherwise.
#[derive(Clone, Copy)]
struct BestCycle<T> {
    cost: T,
    len: i64,
    node: u32,
}

impl<T: Copy + Ord + std::ops::Mul<Output = T> + From<i64>> BestCycle<T> {
    /// True if `cost/len` improves on `other`'s mean (cross-multiplied, so
    /// exact over the integers).
    fn beats(&self, other: &Self) -> bool {
        self.cost * T::from(other.len) > other.cost * T::from(self.len)
    }
}

/// Finds the global minimum-mean residual cycle; if its mean is negative,
/// writes its edges (in flow order) into `cycle` and returns `true`.
///
/// `ws.parent_edge` carries the policy across calls (incremental repair);
/// `ws.indegree` holds the SCC ids, `ws.order` Kosaraju's finish order.
/// The production cancellation loop batches per converged policy instead
/// of re-deriving the single global winner; this entry point exists for
/// the brute-force cross-check tests, which pin down exactly the
/// minimum-mean extraction.
#[cfg(test)]
fn find_min_mean_negative_cycle(
    res: &Residual,
    ws: &mut SolverWorkspace,
    scratch: &mut MeanScratch,
    cycle: &mut Vec<u32>,
) -> bool {
    cycle.clear();
    let comps = strongly_connected_components(res, ws, scratch);
    group_components(res, ws, scratch, comps);

    // Best candidate so far; Karp-produced witnesses carry their edge list
    // (there is no converged policy to re-walk in that case).
    let mut best: Option<(BestCycle<i128>, Option<Vec<u32>>)> = None;
    let consider = |found: BestCycle<i128>,
                    edges: Option<Vec<u32>>,
                    best: &mut Option<(BestCycle<i128>, Option<Vec<u32>>)>| {
        if found.cost < 0 && best.as_ref().is_none_or(|(b, _)| b.beats(&found)) {
            *best = Some((found, edges));
        }
    };
    for c in 0..comps {
        if !scratch.comp_neg[c] {
            continue;
        }
        let range = scratch.comp_start[c] as usize..scratch.comp_start[c + 1] as usize;
        match howard_converge(res, ws, scratch, c as u32, range.clone()) {
            HowardOutcome::Converged(found) => consider(found, None, &mut best),
            HowardOutcome::Budget => {
                if let Some(edges) = karp_negative_cycle(res, ws, scratch, c as u32, range) {
                    let cost: i128 = edges.iter().map(|&e| res.cost_of(e) as i128).sum();
                    let found = BestCycle {
                        cost,
                        len: edges.len() as i64,
                        node: res.tail(edges[0]) as u32,
                    };
                    consider(found, Some(edges), &mut best);
                }
            }
            HowardOutcome::NoCycle => {}
        }
    }
    let Some((found, edges)) = best else {
        return false;
    };
    if let Some(edges) = edges {
        cycle.extend_from_slice(&edges);
        return true;
    }
    // Walk the converged policy around the winning cycle (components are
    // node-disjoint, so later components left this policy intact).
    let policy = &ws.parent_edge;
    let mut v = found.node as usize;
    loop {
        let e = policy[v];
        cycle.push(e);
        v = res.head(e);
        if v == found.node as usize {
            break;
        }
    }
    debug_assert_eq!(cycle.len() as i64, found.len);
    true
}

/// Kosaraju's two-pass SCC over the positive-capacity residual edges.
/// Fills `ws.indegree` with component ids and returns the component count.
fn strongly_connected_components(
    res: &Residual,
    ws: &mut SolverWorkspace,
    scratch: &mut MeanScratch,
) -> usize {
    let n = res.node_count();
    // Pass 1: DFS on forward active edges, recording finish order.
    scratch.walk += 1;
    let seen = scratch.walk;
    ws.order.clear();
    for root in 0..n as u32 {
        if scratch.mark[root as usize] == seen {
            continue;
        }
        scratch.mark[root as usize] = seen;
        scratch.stack.clear();
        scratch.stack.push((root, res.first_out[root as usize]));
        while let Some(&mut (u, ref mut cursor)) = scratch.stack.last_mut() {
            let u = u as usize;
            if (*cursor as usize) < res.active_end[u] as usize {
                let slot = *cursor as usize;
                *cursor += 1;
                if res.slots[slot].cap > 0 {
                    let v = res.slots[slot].to;
                    if scratch.mark[v as usize] != seen {
                        scratch.mark[v as usize] = seen;
                        scratch.stack.push((v, res.first_out[v as usize]));
                    }
                }
            } else {
                ws.order.push(u as u32);
                scratch.stack.pop();
            }
        }
    }
    // Pass 2: DFS on reversed active edges in reverse finish order. The
    // in-edges of `v` are the partners of v's out-edges (`e ^ 1` pairing),
    // so the reverse graph needs no adjacency of its own.
    scratch.walk += 1;
    let seen = scratch.walk;
    let mut comps = 0usize;
    for i in (0..n).rev() {
        let root = ws.order[i];
        if scratch.mark[root as usize] == seen {
            continue;
        }
        let c = comps as u32;
        comps += 1;
        scratch.mark[root as usize] = seen;
        ws.indegree[root as usize] = c;
        scratch.stack.clear();
        scratch.stack.push((root, res.first_out[root as usize]));
        while let Some(&mut (u, ref mut cursor)) = scratch.stack.last_mut() {
            let u = u as usize;
            if (*cursor as usize) < res.first_out[u + 1] as usize {
                let slot = *cursor as usize;
                *cursor += 1;
                let back = res.slots[slot].edge ^ 1;
                if res.cap_of(back) > 0 {
                    let v = res.slots[slot].to;
                    if scratch.mark[v as usize] != seen {
                        scratch.mark[v as usize] = seen;
                        ws.indegree[v as usize] = c;
                        scratch.stack.push((v, res.first_out[v as usize]));
                    }
                }
            } else {
                scratch.stack.pop();
            }
        }
    }
    comps
}

/// Counting-sorts nodes by component id and flags components holding an
/// internal negative-cost active edge.
fn group_components(res: &Residual, ws: &SolverWorkspace, scratch: &mut MeanScratch, comps: usize) {
    let n = res.node_count();
    let comp = &ws.indegree;
    scratch.comp_start.clear();
    scratch.comp_start.resize(comps + 1, 0);
    for &c in comp.iter().take(n) {
        scratch.comp_start[c as usize + 1] += 1;
    }
    for c in 0..comps {
        scratch.comp_start[c + 1] += scratch.comp_start[c];
    }
    scratch.comp_nodes.clear();
    scratch.comp_nodes.resize(n, 0);
    let mut cursor = scratch.comp_start.clone();
    for v in 0..n as u32 {
        let c = comp[v as usize] as usize;
        scratch.comp_nodes[cursor[c] as usize] = v;
        cursor[c] += 1;
    }
    scratch.comp_neg.clear();
    scratch.comp_neg.resize(comps, false);
    for u in 0..n {
        let cu = comp[u];
        for slot in res.active_slots(u) {
            if res.slots[slot].cap > 0
                && res.slots[slot].cost < 0
                && comp[res.slots[slot].to as usize] == cu
            {
                scratch.comp_neg[cu as usize] = true;
                break;
            }
        }
    }
}

#[cfg(test)]
/// Outcome of one component's Howard convergence.
enum HowardOutcome {
    /// Converged; the component's exact minimum cycle mean is `cost/len`
    /// (may be non-negative), and `ws.parent_edge` holds the witnessing
    /// policy.
    Converged(BestCycle<i128>),
    /// The round budget ran out before convergence (adversarial instance);
    /// the caller falls back to Karp's recurrence.
    Budget,
    /// The component provably holds no cycle (a singleton without a
    /// self-loop).
    NoCycle,
}

/// Howard's policy iteration on one strongly connected component, without
/// cancellation: the pure convergence used by the min-mean extraction
/// entry point that the brute-force tests pin down.
#[cfg(test)]
/// Howard's policy iteration on one strongly connected component.
fn howard_converge(
    res: &Residual,
    ws: &mut SolverWorkspace,
    scratch: &mut MeanScratch,
    c: u32,
    range: std::ops::Range<usize>,
) -> HowardOutcome {
    let comp_len = range.len();
    let nodes_start = range.start;
    let comp = |scratch: &MeanScratch, i: usize| scratch.comp_nodes[nodes_start + i] as usize;

    // Policy init / repair: keep the retained edge when it still has
    // capacity and stays inside the component, else re-pick the cheapest
    // qualifying out-edge. Strong connectivity guarantees one exists for
    // components of size >= 2; a singleton qualifies only via a self-loop.
    for i in 0..comp_len {
        let u = comp(scratch, i);
        let e = ws.parent_edge[u];
        let valid =
            e != NONE && res.cap_of(e) > 0 && ws.indegree[res.head(e)] == c && res.tail(e) == u;
        if valid {
            continue;
        }
        let mut pick = NONE;
        let mut pick_cost = i64::MAX;
        for slot in res.active_slots(u) {
            if res.slots[slot].cap > 0
                && ws.indegree[res.slots[slot].to as usize] == c
                && res.slots[slot].cost < pick_cost
            {
                pick_cost = res.slots[slot].cost;
                pick = res.slots[slot].edge;
            }
        }
        if pick == NONE {
            // Singleton without a self-loop: no cycle through here.
            return HowardOutcome::NoCycle;
        }
        ws.parent_edge[u] = pick;
    }

    let round_budget = 2 * comp_len + 32;
    for _ in 0..round_budget {
        // (a) Best cycle of the policy's functional graph.
        let mut best: Option<BestCycle<i128>> = None;
        let eval_base = scratch.walk;
        for i in 0..comp_len {
            let start = comp(scratch, i);
            if scratch.mark[start] > eval_base {
                continue;
            }
            scratch.walk += 1;
            let id = scratch.walk;
            let mut v = start;
            while scratch.mark[v] <= eval_base {
                scratch.mark[v] = id;
                v = res.head(ws.parent_edge[v]);
            }
            if scratch.mark[v] == id {
                // Closed a fresh cycle through v: measure it.
                let mut cost = 0i128;
                let mut len = 0i64;
                let mut u = v;
                loop {
                    let e = ws.parent_edge[u];
                    cost += res.cost_of(e) as i128;
                    len += 1;
                    u = res.head(e);
                    if u == v {
                        break;
                    }
                }
                let found = BestCycle {
                    cost,
                    len,
                    node: v as u32,
                };
                if best.as_ref().is_none_or(|b| b.beats(&found)) {
                    best = Some(found);
                }
            }
        }
        let best = best.expect("functional graph over a finite set has a cycle");

        // (b) Node values against the best cycle's mean, scaled by its
        // length so everything stays integral: w(e) = cost(e)*len - cost.
        // Phase one follows policy in-edges backwards from the cycle (BFS
        // order makes each value final when assigned); phase two attaches
        // any node the policy graph routed elsewhere through an arbitrary
        // in-edge, re-pointing its policy at the cycle's component.
        scratch.gen += 1;
        let gen = scratch.gen;
        scratch.bfs.clear();
        let cyc = best.node as usize;
        scratch.dist[cyc] = 0;
        scratch.reached[cyc] = gen;
        scratch.bfs.push(best.node);
        let mut front = 0usize;
        while front < scratch.bfs.len() {
            let v = scratch.bfs[front] as usize;
            front += 1;
            let dv = scratch.dist[v];
            for slot in res.first_out[v] as usize..res.first_out[v + 1] as usize {
                let u = res.slots[slot].to as usize;
                let back = res.slots[slot].edge ^ 1;
                if ws.indegree[u] == c && scratch.reached[u] != gen && ws.parent_edge[u] == back {
                    scratch.dist[u] = dv + res.cost_of(back) as i128 * best.len as i128 - best.cost;
                    scratch.reached[u] = gen;
                    scratch.bfs.push(u as u32);
                }
            }
        }
        front = 0;
        while front < scratch.bfs.len() {
            let v = scratch.bfs[front] as usize;
            front += 1;
            let dv = scratch.dist[v];
            for slot in res.first_out[v] as usize..res.first_out[v + 1] as usize {
                let u = res.slots[slot].to as usize;
                let back = res.slots[slot].edge ^ 1;
                if ws.indegree[u] == c && scratch.reached[u] != gen && res.cap_of(back) > 0 {
                    ws.parent_edge[u] = back;
                    scratch.dist[u] = dv + res.cost_of(back) as i128 * best.len as i128 - best.cost;
                    scratch.reached[u] = gen;
                    scratch.bfs.push(u as u32);
                }
            }
        }
        debug_assert_eq!(scratch.bfs.len(), comp_len, "SCC must reach its cycle");

        // (c) Policy improvement along every in-component edge.
        let mut improved = false;
        for i in 0..comp_len {
            let u = comp(scratch, i);
            let mut du = scratch.dist[u];
            for slot in res.active_slots(u) {
                if res.slots[slot].cap <= 0 {
                    continue;
                }
                let v = res.slots[slot].to as usize;
                if ws.indegree[v] != c {
                    continue;
                }
                let d =
                    scratch.dist[v] + res.slots[slot].cost as i128 * best.len as i128 - best.cost;
                if d < du {
                    du = d;
                    ws.parent_edge[u] = res.slots[slot].edge;
                    improved = true;
                }
            }
            scratch.dist[u] = du;
        }
        if !improved {
            return HowardOutcome::Converged(best);
        }
    }
    HowardOutcome::Budget
}

/// Karp's recurrence on one SCC: exact minimum cycle mean, returning a
/// witness cycle when that mean is negative. O(k·m) time and O(k²) memory
/// for a k-node component — only ever run as the fallback when Howard's
/// round budget trips.
fn karp_negative_cycle(
    res: &Residual,
    ws: &SolverWorkspace,
    scratch: &MeanScratch,
    c: u32,
    range: std::ops::Range<usize>,
) -> Option<Vec<u32>> {
    let nodes = &scratch.comp_nodes[range];
    let k = nodes.len();
    let n = res.node_count();
    // Local dense renumbering of the component.
    let mut local = vec![NONE; n];
    for (i, &v) in nodes.iter().enumerate() {
        local[v as usize] = i as u32;
    }
    // d[lvl][v] = min cost of an lvl-edge walk source -> v; p the last edge.
    let mut d = vec![INF128; (k + 1) * k];
    let mut p = vec![NONE; (k + 1) * k];
    d[0] = 0; // source = nodes[0]; any fixed source works in an SCC
    for lvl in 1..=k {
        let (prev, cur) = d.split_at_mut(lvl * k);
        let prev = &prev[(lvl - 1) * k..];
        let cur = &mut cur[..k];
        let cur_p = &mut p[lvl * k..(lvl + 1) * k];
        for (lu, &u) in nodes.iter().enumerate() {
            if prev[lu] >= INF128 {
                continue;
            }
            for slot in res.active_slots(u as usize) {
                if res.slots[slot].cap <= 0 {
                    continue;
                }
                let v = res.slots[slot].to as usize;
                if ws.indegree[v] != c {
                    continue;
                }
                let lv = local[v] as usize;
                let cand = prev[lu] + res.slots[slot].cost as i128;
                if cand < cur[lv] {
                    cur[lv] = cand;
                    cur_p[lv] = res.slots[slot].edge;
                }
            }
        }
    }
    // λ* = min_v max_j (d_k(v) - d_j(v)) / (k - j); negative mean iff the
    // minimising v has d_k(v) - d_j(v) < 0 scaled by the best (k - j).
    let mut best_v = None;
    let mut best_num = 0i128;
    let mut best_den = 1i128;
    for lv in 0..k {
        let dk = d[k * k + lv];
        if dk >= INF128 {
            continue;
        }
        let mut num = i128::MIN;
        let mut den = 1i128;
        for j in 0..k {
            let dj = d[j * k + lv];
            if dj >= INF128 {
                continue;
            }
            let (cn, cd) = (dk - dj, (k - j) as i128);
            if num == i128::MIN || cn * den > num * cd {
                num = cn;
                den = cd;
            }
        }
        if num == i128::MIN {
            continue;
        }
        if best_v.is_none() || num * best_den < best_num * den {
            best_num = num;
            best_den = den;
            best_v = Some(lv);
        }
    }
    let lv = best_v?;
    if best_num >= 0 {
        return None; // minimum mean is non-negative: no negative cycle
    }
    // The k-edge walk to the minimising node contains a minimum-mean cycle:
    // walk the parent chain and peel the first closed loop.
    let mut at = vec![NONE; k];
    let mut edges_back = Vec::with_capacity(k);
    let mut lvl = k;
    let mut cur = lv;
    loop {
        if at[cur] != NONE {
            // Node seen at a later level: the edges between close a cycle.
            let cycle_end = at[cur] as usize;
            let mut cycle: Vec<u32> = edges_back[cycle_end..].to_vec();
            cycle.reverse();
            let total: i128 = cycle.iter().map(|&e| res.cost_of(e) as i128).sum();
            debug_assert!(total < 0, "Karp walk cycle must be negative");
            if total >= 0 {
                return None;
            }
            return Some(cycle);
        }
        at[cur] = edges_back.len() as u32;
        if lvl == 0 {
            debug_assert!(false, "k-edge walk must repeat a node");
            return None;
        }
        let e = p[lvl * k + cur];
        debug_assert_ne!(e, NONE);
        edges_back.push(e);
        cur = local[res.tail(e)] as usize;
        lvl -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dinic::dinic;
    use crate::graph::{FlowNetwork, NodeId};
    use crate::ssp::solution_from_residual;
    use crate::{min_cost_flow, min_cost_flow_network_simplex};
    use proptest::prelude::*;

    /// Routes `target` units `s -> t` cost-blind with Dinic (through a
    /// super-source arc capped at `target`), then cancels every negative
    /// cycle; returns the cost of the resulting flow.
    fn cancel_from_feasible(
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
        ws: &mut SolverWorkspace,
    ) -> Result<i64, NetflowError> {
        let mut res = Residual::from_network(net, 1);
        let super_s = net.node_count();
        res.add_edge(super_s, s.index(), target, 0);
        res.finalize();
        assert_eq!(dinic(&mut res, super_s, t.index()), target, "feasible");
        cancel_all_negative_cycles(&mut res, ws)?;
        Ok(solution_from_residual(net, &res, target).cost)
    }

    #[test]
    fn matches_ssp_on_dag() {
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
        let mut ws = SolverWorkspace::new();
        for f in 0..=3 {
            let ssp = min_cost_flow(&net, s, t, f).unwrap();
            let cc = cancel_from_feasible(&net, s, t, f, &mut ws).unwrap();
            assert_eq!(ssp.cost, cc, "flow value {f}");
        }
    }

    /// Cycle a -> b -> a with total cost -2: the optimum saturates it even
    /// though it carries no s-t flow.
    fn negative_cycle_net() -> (FlowNetwork, NodeId, NodeId) {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let b = net.add_node();
        let t = net.add_node();
        net.add_arc(s, a, 1, 0).unwrap();
        net.add_arc(a, b, 2, -3).unwrap();
        net.add_arc(b, a, 2, 1).unwrap();
        net.add_arc(b, t, 1, 0).unwrap();
        (net, s, t)
    }

    #[test]
    fn handles_negative_cycle() {
        let (net, s, t) = negative_cycle_net();
        let cost = cancel_from_feasible(&net, s, t, 1, &mut SolverWorkspace::new()).unwrap();
        // One unit s->a->b->t (-3) plus one residual cycle a->b->a (-2).
        assert_eq!(cost, -5);
        assert_eq!(
            min_cost_flow_network_simplex(&net, s, t, 1).unwrap().cost,
            cost
        );
    }

    #[test]
    fn exhausted_round_budget_is_a_typed_error() {
        // The cancellation loop must run on this instance, so a zero-round
        // budget trips before the first round, out-of-line check and
        // `limited` guard included.
        let (net, s, t) = negative_cycle_net();
        let mut ws = SolverWorkspace::new();
        ws.set_budget(crate::SolveBudget::default().with_max_rounds(0));
        let err = cancel_from_feasible(&net, s, t, 1, &mut ws).unwrap_err();
        assert!(matches!(
            err,
            NetflowError::BudgetExceeded {
                backend: "cycle",
                phase: "cancel",
                progress: 0,
            }
        ));
        // An adequate budget leaves the optimum untouched.
        ws.set_budget(crate::SolveBudget::default().with_max_rounds(64));
        assert_eq!(cancel_from_feasible(&net, s, t, 1, &mut ws).unwrap(), -5);
    }

    /// Minimum-mean cycle of `net`'s fresh residual graph, via the
    /// production search path.
    fn min_mean_of(net: &FlowNetwork) -> Option<(i128, i64)> {
        let mut res = Residual::from_network(net, 0);
        res.finalize();
        let mut ws = SolverWorkspace::new();
        ws.prepare(res.node_count());
        let mut scratch = MeanScratch::new(res.node_count());
        let mut cycle = Vec::new();
        if !find_min_mean_negative_cycle(&res, &mut ws, &mut scratch, &mut cycle) {
            return None;
        }
        let cost: i128 = cycle.iter().map(|&e| res.cost_of(e) as i128).sum();
        // The returned edges must form a closed positive-capacity walk.
        for &e in &cycle {
            assert!(res.cap_of(e) > 0);
        }
        for w in cycle.windows(2) {
            assert_eq!(res.head(w[0]), res.tail(w[1]));
        }
        assert_eq!(
            res.head(*cycle.last().unwrap()),
            res.tail(cycle[0]),
            "cycle must close"
        );
        Some((cost, cycle.len() as i64))
    }

    /// Brute-force minimum mean over every simple cycle (DFS enumeration;
    /// only viable on tiny graphs).
    fn brute_force_min_mean(net: &FlowNetwork) -> Option<(i128, i64)> {
        let n = net.node_count();
        let mut adj: Vec<Vec<(usize, i64)>> = vec![Vec::new(); n];
        for (_, arc) in net.arcs() {
            if arc.capacity > 0 {
                adj[arc.from.index()].push((arc.to.index(), arc.cost));
            }
        }
        let mut best: Option<(i128, i64)> = None;
        fn dfs(
            adj: &[Vec<(usize, i64)>],
            start: usize,
            u: usize,
            cost: i128,
            len: i64,
            on_path: &mut [bool],
            best: &mut Option<(i128, i64)>,
        ) {
            for &(v, c) in &adj[u] {
                if v == start && len > 0 {
                    let cand = (cost + c as i128, len + 1);
                    let better = best
                        .map(|(bc, bl)| cand.0 * (bl as i128) < bc * cand.1 as i128)
                        .unwrap_or(true);
                    if better {
                        *best = Some(cand);
                    }
                } else if v > start && !on_path[v] {
                    on_path[v] = true;
                    dfs(adj, start, v, cost + c as i128, len + 1, on_path, best);
                    on_path[v] = false;
                }
            }
        }
        let mut on_path = vec![false; n];
        for start in 0..n {
            dfs(&adj, start, start, 0, 0, &mut on_path, &mut best);
        }
        best
    }

    proptest! {
        /// Satellite: the minimum-mean extraction must return a cycle whose
        /// mean matches an exhaustive enumeration on tiny graphs (when that
        /// minimum is negative; a non-negative minimum must yield "none").
        #[test]
        fn min_mean_cycle_matches_brute_force(
            arcs in proptest::collection::vec(
                (0usize..8, 0usize..8, 1i64..4, -20i64..20),
                1..24,
            )
        ) {
            let mut net = FlowNetwork::new();
            let nodes: Vec<_> = (0..8).map(|_| net.add_node()).collect();
            for (u, v, cap, cost) in arcs {
                if u != v {
                    net.add_arc(nodes[u], nodes[v], cap, cost).unwrap();
                }
            }
            let brute = brute_force_min_mean(&net);
            let brute_negative = brute.filter(|&(c, _)| c < 0);
            let found = min_mean_of(&net);
            match (brute_negative, found) {
                (None, None) => {}
                (Some((bc, bl)), Some((fc, fl))) => {
                    prop_assert_eq!(
                        bc * fl as i128, fc * bl as i128,
                        "means diverge: brute {}/{} vs found {}/{}", bc, bl, fc, fl
                    );
                }
                (b, f) => prop_assert!(false, "negative-cycle presence diverged: brute {b:?} vs found {f:?}"),
            }
        }

        /// Cancelling from a cost-blind feasible flow on random DAGs must
        /// reach exactly SSP's objective.
        #[test]
        fn agrees_with_ssp_on_random_dags(
            arcs in proptest::collection::vec(
                (0usize..6, 1usize..7, 1i64..5, -10i64..10),
                1..16,
            ),
            target in 0i64..4,
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
            let ssp = min_cost_flow(&net, nodes[0], nodes[7], target).unwrap();
            let cc = cancel_from_feasible(
                &net, nodes[0], nodes[7], target, &mut SolverWorkspace::new(),
            ).unwrap();
            prop_assert_eq!(ssp.cost, cc);
        }
    }
}
