//! Reusable scratch memory for the shortest-path based solvers.
//!
//! Every successive-shortest-path augmentation needs distance labels, parent
//! pointers, a priority queue and assorted per-node buffers. Allocating them
//! fresh per augmentation (let alone per solve) dominates the runtime on the
//! small-to-medium networks the allocator produces, so they live in a
//! [`SolverWorkspace`] that is reused across augmentations and — via
//! [`min_cost_flow_with`](crate::min_cost_flow_with) or the solvers'
//! thread-local default workspace — across repeated solves in a sweep.
//!
//! Distance labels are invalidated in O(1) per augmentation with an epoch
//! stamp: `dist[v]`/`parent_edge[v]` are meaningful only while
//! `seen[v] == epoch`, so starting a new Dijkstra round is a single counter
//! increment instead of an O(V) fill.

use crate::budget::SolveBudget;
use crate::graph::CacheStamp;
use crate::radix::RadixHeap;
use crate::residual::Residual;
use std::cell::RefCell;
use std::collections::VecDeque;

pub(crate) const INF: i64 = i64::MAX / 4;

/// Hot per-node solver state: the potential, the epoch-stamped tentative
/// distance and the blocking-flow BFS level, packed into one 24-byte record.
/// An edge relaxation or admissibility test makes one random access at the
/// head node; packing turns what used to be two or three parallel-array
/// touches into a single cache line.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeState {
    /// Node potential making reduced costs non-negative.
    pub potential: i64,
    /// Tentative shortest distance; valid while `stamp` equals the epoch.
    pub dist: i64,
    /// Epoch stamp validating `dist` (Dijkstra rounds) or `level`
    /// (blocking-flow phases); each phase bumps the epoch, so the two uses
    /// never overlap.
    pub stamp: u32,
    /// BFS level of the admissible subgraph; valid while `stamp` equals the
    /// epoch of the current blocking-flow phase.
    pub level: u32,
}

thread_local! {
    /// Default workspace for the plain solver entry points, one per thread,
    /// so repeated solves in a sweep reuse buffers without any API change.
    /// Shared by every plain solver entry point on the thread.
    static SHARED_WORKSPACE: RefCell<SolverWorkspace> = RefCell::new(SolverWorkspace::new());
}

/// Runs `f` with the calling thread's shared [`SolverWorkspace`].
pub(crate) fn with_thread_workspace<R>(f: impl FnOnce(&mut SolverWorkspace) -> R) -> R {
    SHARED_WORKSPACE.with(|ws| f(&mut ws.borrow_mut()))
}

/// Snapshot of the calling thread's shared-workspace [`SolverStats`] — the
/// counters accumulated by every plain (workspace-less) solver entry point
/// run on this thread. Diff two snapshots around a solve to attribute work.
pub fn thread_solver_stats() -> SolverStats {
    SHARED_WORKSPACE.with(|ws| ws.borrow().stats())
}

/// Cumulative solver-effort counters of a [`SolverWorkspace`].
///
/// Counters never reset; subtract snapshots to scope them to a solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Shortest-path rounds run (Dijkstra frontiers started).
    pub dijkstra_rounds: u64,
    /// Flow units pushed along augmenting paths or cancelled cycles.
    pub pushed_units: u64,
    /// Solver incidents absorbed by a [`ResilientSolver`](crate::ResilientSolver)
    /// fallback chain. Always 0 in a raw workspace snapshot; resilience-aware
    /// aggregators (e.g. the allocation pipeline) fold their incident counts
    /// in here so one struct carries the whole effort/health picture.
    pub incidents: u64,
}

impl std::ops::Sub for SolverStats {
    type Output = SolverStats;
    fn sub(self, rhs: SolverStats) -> SolverStats {
        SolverStats {
            dijkstra_rounds: self.dijkstra_rounds.saturating_sub(rhs.dijkstra_rounds),
            pushed_units: self.pushed_units.saturating_sub(rhs.pushed_units),
            incidents: self.incidents.saturating_sub(rhs.incidents),
        }
    }
}

impl std::ops::Add for SolverStats {
    type Output = SolverStats;
    fn add(self, rhs: SolverStats) -> SolverStats {
        SolverStats {
            dijkstra_rounds: self.dijkstra_rounds + rhs.dijkstra_rounds,
            pushed_units: self.pushed_units + rhs.pushed_units,
            incidents: self.incidents + rhs.incidents,
        }
    }
}

/// Reusable scratch buffers for [`min_cost_flow`](crate::min_cost_flow).
///
/// Create one per thread and pass it to
/// [`min_cost_flow_with`](crate::min_cost_flow_with) to amortise allocations
/// across a sweep of solves; the plain entry points keep one per thread
/// internally, so using this type explicitly is an optimisation, never a
/// requirement.
///
/// # Examples
///
/// ```
/// use lemra_netflow::{min_cost_flow_with, FlowNetwork, SolverWorkspace};
///
/// # fn main() -> Result<(), lemra_netflow::NetflowError> {
/// let mut ws = SolverWorkspace::new();
/// for cap in 1..10 {
///     let mut net = FlowNetwork::new();
///     let (s, t) = (net.add_node(), net.add_node());
///     net.add_arc(s, t, cap, 1)?;
///     let sol = min_cost_flow_with(&net, s, t, cap, &mut ws)?;
///     assert_eq!(sol.cost, cap);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct SolverWorkspace {
    /// Per-node hot state: potential + epoch-stamped distance/level.
    pub(crate) node: Vec<NodeState>,
    /// Edge that last relaxed each node; valid while `node[v].stamp == epoch`.
    pub(crate) parent_edge: Vec<u32>,
    /// Bottleneck residual capacity along the tentative parent chain.
    pub(crate) bottleneck_to: Vec<i64>,
    /// Current epoch; bumped per Dijkstra round.
    pub(crate) epoch: u32,
    /// Dijkstra frontier, reused across rounds. Reduced-cost distances pop
    /// in non-decreasing order, so a monotone radix heap applies.
    pub(crate) heap: RadixHeap,
    /// FIFO/deque for SPFA potential initialisation and Kahn's algorithm.
    pub(crate) queue: VecDeque<u32>,
    /// SPFA in-queue flags.
    pub(crate) in_queue: Vec<bool>,
    /// SPFA enqueue counters (negative-cycle detection).
    pub(crate) enqueues: Vec<u32>,
    /// Kahn in-degrees over positive-capacity edges.
    pub(crate) indegree: Vec<u32>,
    /// Topological order buffer.
    pub(crate) order: Vec<u32>,
    /// Per-node cursor into the active slot range: the current-arc pointer
    /// of the blocking-flow DFS.
    pub(crate) cursor: Vec<u32>,
    /// Residual-graph arena: the workspace-backed solvers rebuild the
    /// per-solve residual topology in these buffers (via `mem::take` /
    /// restore around the solve) instead of allocating a fresh graph — the
    /// dominant per-solve allocation on small networks.
    pub(crate) arena: Residual,
    /// Shortest-path rounds started, cumulative across solves.
    pub(crate) dijkstra_rounds: u64,
    /// Flow units pushed along augmenting paths, cumulative across solves.
    pub(crate) pushed_units: u64,
    /// Cooperative work limits consulted by the solvers at phase boundaries.
    /// Defaults to unlimited; survives [`Self::prepare`] so a budget set once
    /// governs every solve run on this workspace.
    pub(crate) budget: SolveBudget,
    /// Memo of the last passing [`FlowNetwork::scan_arcs`](crate::FlowNetwork)
    /// run through this workspace: [`CacheStamp`] → achievable capacity
    /// bound. Keyed on the network's identity stamp, so any mutation
    /// invalidates it; only passing scans are cached (errors are terminal
    /// and re-deriving their message is fine). Survives [`Self::prepare`].
    pub(crate) validate_cache: Option<(CacheStamp, i64)>,
}

impl SolverWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes every buffer for an `n`-node residual graph and resets the
    /// epoch machinery. Called once per solve; keeps capacity across calls.
    pub(crate) fn prepare(&mut self, n: usize) {
        self.node.clear();
        self.node.resize(
            n,
            NodeState {
                potential: INF,
                dist: INF,
                stamp: 0,
                level: u32::MAX,
            },
        );
        self.parent_edge.clear();
        self.parent_edge.resize(n, u32::MAX);
        self.bottleneck_to.clear();
        self.bottleneck_to.resize(n, 0);
        self.epoch = 0;
        self.heap.reset();
        self.queue.clear();
        self.in_queue.clear();
        self.in_queue.resize(n, false);
        self.enqueues.clear();
        self.enqueues.resize(n, 0);
        self.indegree.clear();
        self.indegree.resize(n, 0);
        self.order.clear();
        // `cursor` is deliberately *not* sized here: the blocking-flow
        // phases reset exactly the prefix they need.
    }

    /// Takes the residual arena out of the workspace for a solve (leaving an
    /// empty graph behind); pair with [`Self::put_arena`]. The take/restore
    /// dance side-steps the simultaneous `&mut` borrows a resident graph
    /// would need, at the cost of a pointer swap.
    pub(crate) fn take_arena(&mut self) -> Residual {
        std::mem::take(&mut self.arena)
    }

    /// Returns a residual arena taken with [`Self::take_arena`], preserving
    /// its buffers for the next solve.
    pub(crate) fn put_arena(&mut self, arena: Residual) {
        self.arena = arena;
    }

    /// Leases the residual arena behind a drop guard: the guard hands out
    /// disjoint `&mut` borrows of the residual and the rest of the workspace
    /// via [`ArenaGuard::parts`], and its `Drop` returns the arena even if
    /// the solve panics — so a `catch_unwind` boundary (e.g. in
    /// [`ResilientSolver`](crate::ResilientSolver)) never leaks the buffers
    /// a thread-local workspace was meant to reuse.
    pub(crate) fn lease_arena(&mut self) -> ArenaGuard<'_> {
        let res = self.take_arena();
        ArenaGuard {
            ws: self,
            res: Some(res),
        }
    }

    /// Cumulative effort counters (never reset by [`Self::prepare`]; diff
    /// snapshots to scope them to a solve).
    pub fn stats(&self) -> SolverStats {
        SolverStats {
            dijkstra_rounds: self.dijkstra_rounds,
            pushed_units: self.pushed_units,
            incidents: 0,
        }
    }

    /// Installs a [`SolveBudget`] that every subsequent solve on this
    /// workspace checks cooperatively, returning the previous budget so
    /// callers can scope a budget to one call and restore the old one after.
    /// The default budget is unlimited.
    pub fn set_budget(&mut self, budget: SolveBudget) -> SolveBudget {
        std::mem::replace(&mut self.budget, budget)
    }

    /// Starts a new label phase (a Dijkstra round or a blocking-flow BFS):
    /// invalidates all distance and level labels in O(1) by bumping the
    /// epoch.
    pub(crate) fn begin_phase(&mut self) {
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                for st in &mut self.node {
                    st.stamp = 0;
                }
                1
            }
        };
    }

    /// Starts a new shortest-path round: [`Self::begin_phase`] plus the
    /// frontier reset and the effort counter.
    pub(crate) fn begin_round(&mut self) {
        self.dijkstra_rounds += 1;
        self.begin_phase();
        self.heap.reset();
    }

    /// Distance label of `v` this round (`INF` if untouched).
    #[inline]
    pub(crate) fn dist_of(&self, v: usize) -> i64 {
        let st = self.node[v];
        if st.stamp == self.epoch {
            st.dist
        } else {
            INF
        }
    }

    /// Sets the distance label of `v` for this round.
    #[inline]
    pub(crate) fn set_dist(&mut self, v: usize, d: i64) {
        let st = &mut self.node[v];
        st.stamp = self.epoch;
        st.dist = d;
    }

    /// Sets the BFS level of `v` for this phase.
    #[inline]
    pub(crate) fn set_level(&mut self, v: usize, level: u32) {
        let st = &mut self.node[v];
        st.stamp = self.epoch;
        st.level = level;
    }
}

/// Drop guard around a leased residual arena (see
/// [`SolverWorkspace::lease_arena`]). Holds the arena out of the workspace
/// for the duration of a solve and restores it on drop — including the
/// unwind path, which the bare `take_arena`/`put_arena` pair missed.
#[derive(Debug)]
pub(crate) struct ArenaGuard<'a> {
    ws: &'a mut SolverWorkspace,
    res: Option<Residual>,
}

impl ArenaGuard<'_> {
    /// Disjoint reborrows of the leased residual and the workspace, so a
    /// solve can mutate both simultaneously (the whole reason the arena is
    /// taken out rather than borrowed in place).
    pub(crate) fn parts(&mut self) -> (&mut Residual, &mut SolverWorkspace) {
        let res = self.res.as_mut().expect("arena still leased");
        (res, self.ws)
    }
}

impl Drop for ArenaGuard<'_> {
    fn drop(&mut self) {
        if let Some(res) = self.res.take() {
            self.ws.put_arena(res);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_invalidate_distances() {
        let mut ws = SolverWorkspace::new();
        ws.prepare(3);
        ws.begin_round();
        ws.set_dist(1, 7);
        assert_eq!(ws.dist_of(1), 7);
        assert_eq!(ws.dist_of(2), INF);
        ws.begin_round();
        assert_eq!(ws.dist_of(1), INF);
    }

    #[test]
    fn epoch_wraparound_resets_stamps() {
        let mut ws = SolverWorkspace::new();
        ws.prepare(2);
        ws.epoch = u32::MAX;
        ws.node[0].stamp = u32::MAX; // stale stamp from the "previous" epoch
        ws.begin_round();
        assert_eq!(ws.epoch, 1);
        assert_eq!(ws.dist_of(0), INF);
    }

    #[test]
    fn arena_guard_returns_arena_on_panic() {
        let mut ws = SolverWorkspace::new();
        ws.arena.reset(7);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut guard = ws.lease_arena();
            let (res, _ws) = guard.parts();
            res.reset(3);
            panic!("solver blew up mid-solve");
        }));
        assert!(caught.is_err());
        // The arena came back (with the state it had at unwind time), not a
        // fresh empty graph left behind by `take_arena`.
        assert_eq!(ws.arena.node_count(), 3);
    }

    #[test]
    fn prepare_resizes_between_solves() {
        let mut ws = SolverWorkspace::new();
        ws.prepare(2);
        ws.begin_round();
        ws.set_dist(1, 3);
        ws.prepare(5);
        ws.begin_round();
        assert_eq!(ws.dist_of(1), INF);
        assert_eq!(ws.dist_of(4), INF);
    }
}
