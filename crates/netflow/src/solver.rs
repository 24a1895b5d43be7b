//! The unified solver interface: one trait, two algorithms.
//!
//! Every min-cost-flow implementation in this crate — successive shortest
//! paths ([`Ssp`], the production solver), network simplex
//! ([`NetworkSimplex`], the independent reference) and the warm-start
//! [`Reoptimizer`] — answers the same question: route exactly `target`
//! units from `s` to `t` at minimum cost, honouring lower bounds.
//! [`McfSolver`] captures that contract so callers can hold *a* solver
//! instead of hard-coding one of the free functions, and [`Backend`] names
//! the algorithms as data so the choice can travel through configuration
//! (`LEMRA_BACKEND`, CLI flags) instead of through call sites.
//!
//! SSP suffices in production because every network `lemra-core` and
//! `lemra-baselines` build is a positive-capacity DAG
//! ([`FlowNetwork::is_positive_capacity_dag`], asserted by each builder in
//! debug builds), so it has no negative-cost cycle. The network simplex
//! shares no code with SSP and also solves networks that do carry negative
//! cycles, which is what makes it the cross-check.

use crate::budget::SolveBudget;
use crate::graph::{FlowNetwork, NodeId};
use crate::reopt::Reoptimizer;
use crate::simplex::{min_cost_flow_network_simplex, min_cost_flow_network_simplex_budgeted};
use crate::ssp::{min_cost_flow, min_cost_flow_with};
use crate::workspace::SolverWorkspace;
use crate::{FlowSolution, NetflowError};

/// A minimum-cost-flow algorithm.
///
/// The contract is exactly [`min_cost_flow`](crate::min_cost_flow)'s: an
/// exact flow of `target` units from `s` to `t`, arc lower bounds honoured,
/// identical error vocabulary. The workspace parameter lets sweeps reuse
/// scratch buffers; the network simplex (whose scratch is its basis
/// arrays, a different shape) and the [`Reoptimizer`] (which retains its
/// own workspace) ignore it.
///
/// `solve` takes `&mut self` so stateful solvers (the [`Reoptimizer`]) can
/// retain residual state between calls; the stateless algorithm structs are
/// zero-sized and free to construct per call.
pub trait McfSolver {
    /// Stable lower-case name of the algorithm (for reports and logs).
    fn name(&self) -> &'static str;

    /// Solves for a minimum-cost flow of exactly `target` units `s → t`.
    ///
    /// # Errors
    ///
    /// Same as [`min_cost_flow`](crate::min_cost_flow): infeasibility,
    /// negative cycles (SSP only), invalid endpoints.
    fn solve(
        &mut self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
        ws: &mut SolverWorkspace,
    ) -> Result<FlowSolution, NetflowError>;

    /// [`Self::solve`] under a per-call [`SolveBudget`]: the budget is
    /// installed on the workspace for the duration of this call and the
    /// previous budget restored afterwards (even on error). Solvers that
    /// ignore the workspace override this to route the budget their own way.
    ///
    /// # Errors
    ///
    /// Same as [`Self::solve`], plus [`NetflowError::BudgetExceeded`] when
    /// the budget runs out.
    fn solve_budgeted(
        &mut self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
        ws: &mut SolverWorkspace,
        budget: SolveBudget,
    ) -> Result<FlowSolution, NetflowError> {
        let previous = ws.set_budget(budget);
        let result = self.solve(net, s, t, target, ws);
        ws.set_budget(previous);
        result
    }
}

/// Successive shortest paths with node potentials (the production solver).
#[derive(Debug, Clone, Copy, Default)]
pub struct Ssp;

impl McfSolver for Ssp {
    fn name(&self) -> &'static str {
        "ssp"
    }

    fn solve(
        &mut self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
        ws: &mut SolverWorkspace,
    ) -> Result<FlowSolution, NetflowError> {
        min_cost_flow_with(net, s, t, target, ws)
    }
}

/// The classical network simplex (handles negative-cost cycles).
#[derive(Debug, Clone, Copy, Default)]
pub struct NetworkSimplex;

impl McfSolver for NetworkSimplex {
    fn name(&self) -> &'static str {
        "simplex"
    }

    fn solve(
        &mut self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
        _ws: &mut SolverWorkspace,
    ) -> Result<FlowSolution, NetflowError> {
        min_cost_flow_network_simplex(net, s, t, target)
    }

    /// The simplex ignores the workspace, so the budget is passed straight
    /// to the pivot loop instead of travelling through `ws`.
    fn solve_budgeted(
        &mut self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
        _ws: &mut SolverWorkspace,
        budget: SolveBudget,
    ) -> Result<FlowSolution, NetflowError> {
        min_cost_flow_network_simplex_budgeted(net, s, t, target, 0, budget)
    }
}

impl McfSolver for Reoptimizer {
    fn name(&self) -> &'static str {
        "reopt"
    }

    /// Warm-start solve; the workspace parameter is ignored — the
    /// reoptimizer retains its own workspace whose potentials certify the
    /// retained residual graph.
    fn solve(
        &mut self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
        _ws: &mut SolverWorkspace,
    ) -> Result<FlowSolution, NetflowError> {
        Reoptimizer::solve(self, net, s, t, target)
    }

    /// The reoptimizer retains its own workspace; the budget is installed on
    /// the solver itself for this call and the previous one restored after.
    fn solve_budgeted(
        &mut self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
        _ws: &mut SolverWorkspace,
        budget: SolveBudget,
    ) -> Result<FlowSolution, NetflowError> {
        let previous = self.set_budget(budget);
        let result = Reoptimizer::solve(self, net, s, t, target);
        self.set_budget(previous);
        result
    }
}

/// A named min-cost-flow algorithm choice, selectable via configuration.
///
/// `Backend` is the data-level counterpart of [`McfSolver`]: it travels
/// through [`LemraConfig`](crate::LemraConfig) (the `LEMRA_BACKEND`
/// environment variable, CLI flags) and is resolved to an algorithm at the
/// solve site.
///
/// # Examples
///
/// ```
/// use lemra_netflow::{Backend, FlowNetwork};
///
/// # fn main() -> Result<(), lemra_netflow::NetflowError> {
/// let mut net = FlowNetwork::new();
/// let (s, t) = (net.add_node(), net.add_node());
/// net.add_arc(s, t, 4, 3)?;
/// for backend in Backend::ALL {
///     assert_eq!(backend.solve(&net, s, t, 2)?.cost, 6);
/// }
/// assert_eq!("simplex".parse::<Backend>()?, Backend::Simplex);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Successive shortest paths (the production default).
    #[default]
    Ssp,
    /// Network simplex (the independent reference; handles negative-cost
    /// cycles).
    Simplex,
}

impl Backend {
    /// Every algorithm.
    pub const ALL: [Backend; 2] = [Backend::Ssp, Backend::Simplex];

    /// Stable lower-case name (`ssp`, `simplex`); [`str::parse`] accepts
    /// exactly these.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Ssp => "ssp",
            Backend::Simplex => "simplex",
        }
    }

    /// The algorithm as a boxed [`McfSolver`], for callers that store the
    /// solver.
    pub fn solver(self) -> Box<dyn McfSolver + Send> {
        match self {
            Backend::Ssp => Box::new(Ssp),
            Backend::Simplex => Box::new(NetworkSimplex),
        }
    }

    /// Solves with this backend, reusing the calling thread's shared
    /// workspace (like [`min_cost_flow`](crate::min_cost_flow)).
    ///
    /// # Errors
    ///
    /// Same as [`min_cost_flow`](crate::min_cost_flow).
    pub fn solve(
        self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
    ) -> Result<FlowSolution, NetflowError> {
        match self {
            Backend::Ssp => min_cost_flow(net, s, t, target),
            Backend::Simplex => min_cost_flow_network_simplex(net, s, t, target),
        }
    }

    /// Solves with this backend and an explicit workspace (ignored by the
    /// simplex algorithm, whose scratch is its basis arrays).
    ///
    /// # Errors
    ///
    /// Same as [`min_cost_flow`](crate::min_cost_flow).
    pub fn solve_with(
        self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
        ws: &mut SolverWorkspace,
    ) -> Result<FlowSolution, NetflowError> {
        match self {
            Backend::Ssp => min_cost_flow_with(net, s, t, target, ws),
            // Route the workspace-carried budget into the pivot loop so a
            // budget installed with `ws.set_budget` binds every backend.
            Backend::Simplex => {
                min_cost_flow_network_simplex_budgeted(net, s, t, target, 0, ws.budget)
            }
        }
    }

    /// Solves with this backend under a per-call [`SolveBudget`], reusing
    /// the calling thread's shared workspace. The budget is scoped to this
    /// call: the workspace's previous budget is restored afterwards.
    ///
    /// # Errors
    ///
    /// Same as [`Backend::solve`], plus [`NetflowError::BudgetExceeded`]
    /// when the budget runs out.
    pub fn solve_with_budget(
        self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
        budget: SolveBudget,
    ) -> Result<FlowSolution, NetflowError> {
        crate::workspace::with_thread_workspace(|ws| {
            let previous = ws.set_budget(budget);
            let result = self.solve_with(net, s, t, target, ws);
            ws.set_budget(previous);
            result
        })
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Backend {
    type Err = NetflowError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "ssp" => Ok(Backend::Ssp),
            "simplex" => Ok(Backend::Simplex),
            other => Err(NetflowError::InvalidArc {
                reason: format!("unknown backend `{other}` (expected ssp, simplex)"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (FlowNetwork, NodeId, NodeId) {
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
    fn every_backend_agrees_on_the_diamond() {
        let (net, s, t) = diamond();
        let mut ws = SolverWorkspace::new();
        for backend in Backend::ALL {
            assert_eq!(backend.solve(&net, s, t, 2).unwrap().cost, 8, "{backend}");
            assert_eq!(
                backend.solve_with(&net, s, t, 2, &mut ws).unwrap().cost,
                8,
                "{backend} (with workspace)"
            );
            let mut solver = backend.solver();
            assert_eq!(solver.solve(&net, s, t, 2, &mut ws).unwrap().cost, 8);
            assert_eq!(solver.name(), backend.name());
        }
    }

    #[test]
    fn reoptimizer_is_a_solver() {
        let (net, s, t) = diamond();
        let mut ws = SolverWorkspace::new();
        let mut reopt = Reoptimizer::new();
        let sol = McfSolver::solve(&mut reopt, &net, s, t, 1, &mut ws).unwrap();
        assert_eq!(sol.cost, 2);
        McfSolver::solve(&mut reopt, &net, s, t, 2, &mut ws).unwrap();
        assert_eq!(reopt.warm_solves(), 1);
        assert_eq!(McfSolver::name(&reopt), "reopt");
    }

    #[test]
    fn backend_parses_and_displays() {
        for backend in Backend::ALL {
            assert_eq!(backend.name().parse::<Backend>().unwrap(), backend);
            assert_eq!(backend.to_string(), backend.name());
        }
        assert_eq!(" SIMPLEX ".parse::<Backend>().unwrap(), Backend::Simplex);
        assert!("bogus".parse::<Backend>().is_err());
    }
}
