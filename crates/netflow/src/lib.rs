//! Minimum-cost network flow for `lemra`.
//!
//! This crate implements the flow machinery that the paper (Gebotys,
//! *Low Energy Memory and Register Allocation Using Network Flow*, DAC 1997)
//! takes from Nemhauser & Wolsey: minimum-cost flows of a fixed value `F`
//! over directed networks with integer capacities, **arc lower bounds** (the
//! paper's "forced register" arcs of §5.2) and possibly **negative** costs
//! (a register placement *saves* memory energy, eq. (4)).
//!
//! Two independent solvers are provided:
//!
//! * [`min_cost_flow`] — successive shortest paths with node potentials; the
//!   production solver, polynomial time, requires the network to be free of
//!   negative-cost cycles. Every network the allocator builds is a
//!   positive-capacity DAG ([`FlowNetwork::is_positive_capacity_dag`],
//!   asserted by the builders in debug builds), so this always holds there.
//! * [`min_cost_flow_network_simplex`] — the classical network simplex with
//!   block-search pivoting and a strongly feasible basis; it shares no code
//!   with SSP and handles negative-cost cycles, which makes it the reference
//!   the tests and `LEMRA_BACKEND=simplex` cross-check SSP against.
//!
//! [`Backend`] names the two as configuration data.
//!
//! Plus [`max_flow`] (Dinic), [`validate`] for auditing any solution, and
//! [`FlowSolution::decompose_paths`] to extract the register chains.
//!
//! For parameter sweeps — sequences of solves over networks that differ
//! only in a few arc costs, capacities or the flow value — [`Reoptimizer`]
//! retains the optimal residual graph and potentials between calls and
//! repairs optimality from the deltas instead of re-solving from scratch;
//! when a delta leaves negative cycles in the retained state it cancels
//! them with minimum-mean cycle cancelling (Howard's policy iteration).
//!
//! # Solver performance
//!
//! The residual graph stores adjacency in compressed sparse row form: one
//! flat edge-index array plus per-node offsets, built once per solve by a
//! counting sort. SSP keeps its per-node scratch state (distances, parent
//! pointers, the heap) in a [`SolverWorkspace`] reused across
//! augmentations; the plain entry points keep one workspace per thread, and
//! [`min_cost_flow_with`] accepts an explicit one for sweeps. On DAG
//! inputs — every network the allocator builds — the initial potentials
//! come from a single O(V+E) topological relaxation instead of
//! Bellman–Ford; cyclic networks fall back to deque-based SPFA. Dijkstra's
//! frontier is a monotone radix heap rather than a binary heap — profiling
//! the 512-variable allocation showed the solve heap-bound (≈490k pushes
//! and 170k pops per solve), and bucketed O(1) pushes are what the counting
//! favours. Independent solves batch across threads with [`solve_batch`].
//!
//! The network simplex picks entering arcs by a resumable block search
//! while maintaining a strongly feasible basis that relabels only the
//! smaller subtree per pivot.
//!
//! Enabling the `validate` cargo feature arms a per-edge reduced-cost check
//! inside Dijkstra that turns a violated optimality invariant into
//! [`NetflowError::InvalidSolution`] instead of a silently suboptimal flow.
//!
//! # Examples
//!
//! ```
//! use lemra_netflow::{FlowNetwork, min_cost_flow, validate};
//!
//! # fn main() -> Result<(), lemra_netflow::NetflowError> {
//! let mut net = FlowNetwork::new();
//! let s = net.add_node();
//! let v = net.add_node();
//! let t = net.add_node();
//! net.add_arc(s, v, 1, 0)?;
//! net.add_arc(v, t, 1, -5)?; // keeping v in a register saves energy
//! net.add_arc(s, t, 3, 0)?;  // bypass for unused registers
//! let sol = min_cost_flow(&net, s, t, 4)?;
//! validate(&net, s, t, &sol)?;
//! assert_eq!(sol.cost, -5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod budget;
mod canon;
mod config;
mod cycle_cancel;
mod dinic;
mod dot;
#[cfg(feature = "fault-inject")]
mod fault;
mod graph;
mod radix;
mod reopt;
mod residual;
mod resilience;
mod simplex;
mod solution;
mod solver;
mod ssp;
mod workspace;

pub use batch::{solve_batch, solve_batch_on, BatchProblem};
pub use budget::SolveBudget;
pub use canon::{canonicalize, CacheStamp, CanonicalInstance, Fingerprint};
pub use config::{
    CacheMode, LemraConfig, BACKEND_ENV, CACHE_CAP_ENV, CACHE_ENV, COLD_ENV, THREADS_ENV,
};
pub use dinic::max_flow;
pub use dot::to_dot;
#[cfg(feature = "fault-inject")]
pub use fault::{
    ensure_env_plan, injected_conn_count, injected_fault_count, maybe_inject_cache,
    maybe_inject_conn, FaultKind, FaultPlan, RequestScope, FAULT_ENV,
};
pub use graph::{Arc, ArcId, FlowNetwork, NodeId};
pub use reopt::Reoptimizer;
pub use resilience::{ResilientSolver, SolverIncident};
pub use simplex::min_cost_flow_network_simplex;
pub use solution::{validate, FlowSolution};
pub use solver::{Backend, McfSolver, NetworkSimplex, Ssp};
pub use ssp::{min_cost_flow, min_cost_flow_with};
pub use workspace::{thread_solver_stats, SolverStats, SolverWorkspace};

/// Errors produced by network construction and the solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetflowError {
    /// An arc or query referenced invalid nodes or bounds.
    InvalidArc {
        /// Human-readable description of the violation.
        reason: String,
    },
    /// No feasible flow of the requested value exists.
    Infeasible {
        /// Units that had to be routed (flow target plus lower-bound supply).
        required: i64,
        /// Units the network could actually route.
        achieved: i64,
    },
    /// A negative-cost cycle was found; use
    /// [`min_cost_flow_network_simplex`] instead.
    NegativeCycle,
    /// A flow decomposition found circulating flow not routable from the
    /// source.
    CyclicFlow {
        /// Node at which the path walk could not continue.
        stuck_at: NodeId,
    },
    /// A solution failed validation.
    InvalidSolution {
        /// Human-readable description of the violated condition.
        reason: String,
    },
    /// A cooperative [`SolveBudget`] limit (pivots, rounds or the deadline)
    /// ran out before the solve converged. The solver left no partial
    /// solution; re-solve with a larger budget or let a
    /// [`ResilientSolver`] fall back to another backend.
    BudgetExceeded {
        /// The backend that hit the limit (`ssp`, `simplex`, `reopt`, or
        /// `cycle` for the reoptimizer's cycle-cancelling repair).
        backend: &'static str,
        /// The phase the limit tripped in (`augment`, `cancel`, `pivot`,
        /// `drain`, …).
        phase: &'static str,
        /// Units of progress made before the limit (rounds or pivots,
        /// depending on the phase).
        progress: u64,
    },
    /// The instance's cost/capacity magnitudes are large enough that solver
    /// arithmetic could overflow `i64`; rejected at entry by
    /// [`FlowNetwork::validate_input`] instead of wrapping silently.
    Overflow {
        /// Human-readable description of the offending magnitude.
        reason: String,
    },
    /// A backend panicked mid-solve; the panic was contained at the
    /// [`ResilientSolver`] boundary and converted into this error.
    SolverPanicked {
        /// The backend whose solve panicked.
        backend: &'static str,
        /// The panic payload, when it carried a message.
        message: String,
    },
}

impl std::fmt::Display for NetflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetflowError::InvalidArc { reason } => write!(f, "invalid arc: {reason}"),
            NetflowError::Infeasible { required, achieved } => write!(
                f,
                "infeasible flow: required {required} units, achieved {achieved}"
            ),
            NetflowError::NegativeCycle => {
                write!(f, "network contains a negative-cost cycle")
            }
            NetflowError::CyclicFlow { stuck_at } => {
                write!(f, "flow decomposition stuck at {stuck_at}")
            }
            NetflowError::InvalidSolution { reason } => {
                write!(f, "invalid solution: {reason}")
            }
            NetflowError::BudgetExceeded {
                backend,
                phase,
                progress,
            } => write!(
                f,
                "solve budget exceeded: backend `{backend}` ran out in phase \
                 `{phase}` after {progress} steps"
            ),
            NetflowError::Overflow { reason } => {
                write!(f, "arithmetic overflow risk: {reason}")
            }
            NetflowError::SolverPanicked { backend, message } => {
                write!(f, "backend `{backend}` panicked: {message}")
            }
        }
    }
}

impl std::error::Error for NetflowError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = NetflowError::Infeasible {
            required: 4,
            achieved: 2,
        };
        assert!(e.to_string().contains("required 4"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetflowError>();
        assert_send_sync::<FlowNetwork>();
        assert_send_sync::<FlowSolution>();
    }
}
