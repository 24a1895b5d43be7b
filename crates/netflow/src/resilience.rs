//! Graceful degradation around the solver backends.
//!
//! A [`ResilientSolver`] wraps a fallback chain of [`Backend`]s (default:
//! the chosen backend, then [`Backend::Ssp`] as the verified-slow anchor)
//! and tries them in order until one returns a solution. Three failure
//! classes trigger the next link in the chain:
//!
//! * **typed recoverable errors** — [`NetflowError::BudgetExceeded`],
//!   [`NetflowError::Overflow`], [`NetflowError::NegativeCycle`] and
//!   [`NetflowError::InvalidSolution`]: another algorithm may genuinely
//!   succeed (a different cost profile, no budget, an `i128`-capable path);
//! * **panics** — contained at the solve boundary with
//!   [`std::panic::catch_unwind`] and converted into
//!   [`NetflowError::SolverPanicked`], so one bad solve degrades that solve,
//!   not the process;
//! * **injected faults** — with the `fault-inject` cargo feature, a
//!   [`FaultPlan`](crate::FaultPlan) (or `LEMRA_FAULT`) deterministically
//!   simulates the above at chosen solve indices, which is how the chain is
//!   tested end-to-end.
//!
//! Errors that describe the *instance* rather than the solve —
//! [`NetflowError::Infeasible`], [`NetflowError::InvalidArc`],
//! [`NetflowError::CyclicFlow`] — are terminal: every backend would agree,
//! so they return immediately and record no incident.
//!
//! Every absorbed failure is logged as a [`SolverIncident`]; sweeps surface
//! the count through their stage counters and `--timings` output.

use crate::budget::SolveBudget;
use crate::graph::{FlowNetwork, NodeId};
use crate::solver::{Backend, McfSolver};
use crate::workspace::{with_thread_workspace, SolverWorkspace};
use crate::{FlowSolution, NetflowError};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One absorbed solver failure: which solve, which backend, what went
/// wrong, and which backend (if any) recovered the solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolverIncident {
    /// 0-based index of the solve (counted per [`ResilientSolver`]).
    pub solve_index: u64,
    /// Name of the backend whose attempt failed.
    pub backend: String,
    /// Display form of the error the attempt produced.
    pub error: String,
    /// Name of the backend that subsequently completed the solve, or
    /// `None` if the whole chain failed.
    pub recovered_with: Option<String>,
}

impl std::fmt::Display for SolverIncident {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "solve #{}: {} failed ({})",
            self.solve_index, self.backend, self.error
        )?;
        match &self.recovered_with {
            Some(b) => write!(f, ", recovered by {b}"),
            None => write!(f, ", no fallback succeeded"),
        }
    }
}

/// A fallback-chain [`McfSolver`]: tries each backend in order, contains
/// panics, and logs every absorbed failure as a [`SolverIncident`].
///
/// # Examples
///
/// ```
/// use lemra_netflow::{Backend, FlowNetwork, ResilientSolver, SolveBudget};
///
/// # fn main() -> Result<(), lemra_netflow::NetflowError> {
/// let mut net = FlowNetwork::new();
/// let (s, t) = (net.add_node(), net.add_node());
/// net.add_arc(s, t, 4, 3)?;
/// // Chain: simplex first, SSP anchor second. A zero-pivot budget starves
/// // simplex, so the anchor completes the solve and one incident is logged.
/// let mut solver = ResilientSolver::new(Backend::Simplex);
/// solver.set_budget(SolveBudget::default().with_max_pivots(0));
/// let sol = solver.solve(&net, s, t, 2)?;
/// assert_eq!(sol.cost, 6);
/// assert_eq!(solver.incident_count(), 1);
/// assert_eq!(solver.incidents()[0].recovered_with.as_deref(), Some("ssp"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ResilientSolver {
    chain: Vec<Backend>,
    budget: SolveBudget,
    incidents: Vec<SolverIncident>,
    solve_index: u64,
}

impl Default for ResilientSolver {
    fn default() -> Self {
        Self::new(Backend::default())
    }
}

impl ResilientSolver {
    /// A resilient solver whose chain is `primary` followed by the
    /// [`Backend::Ssp`] anchor. The anchor is appended even when `primary`
    /// *is* plain SSP: the second attempt runs on a fresh workspace, which
    /// is what recovers a contained panic — a request served by the
    /// allocation server must fall through to an identical re-solve, not
    /// surface the panic to the client.
    pub fn new(primary: Backend) -> Self {
        Self::with_chain(vec![primary, Backend::Ssp])
    }

    /// A resilient solver trying exactly `chain`, in order. An empty chain
    /// is replaced by `[Backend::Ssp]`.
    pub fn with_chain(chain: Vec<Backend>) -> Self {
        let chain = if chain.is_empty() {
            vec![Backend::Ssp]
        } else {
            chain
        };
        Self {
            chain,
            budget: SolveBudget::default(),
            incidents: Vec::new(),
            solve_index: 0,
        }
    }

    /// Installs a [`SolveBudget`] applied to **each** attempt (every link
    /// of the chain gets the full budget), returning the previous one.
    pub fn set_budget(&mut self, budget: SolveBudget) -> SolveBudget {
        std::mem::replace(&mut self.budget, budget)
    }

    /// The configured fallback chain, in attempt order.
    pub fn chain(&self) -> &[Backend] {
        &self.chain
    }

    /// Every incident absorbed so far, oldest first.
    pub fn incidents(&self) -> &[SolverIncident] {
        &self.incidents
    }

    /// Number of incidents absorbed so far.
    pub fn incident_count(&self) -> u64 {
        self.incidents.len() as u64
    }

    /// Number of solves attempted (0-based index of the *next* solve).
    pub fn solves(&self) -> u64 {
        self.solve_index
    }

    /// Solves via the fallback chain, reusing the calling thread's shared
    /// workspace (so effort counters appear in
    /// [`thread_solver_stats`](crate::thread_solver_stats)).
    ///
    /// # Errors
    ///
    /// The first terminal error encountered, or — when every link of the
    /// chain fails recoverably — the last attempt's error.
    pub fn solve(
        &mut self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
    ) -> Result<FlowSolution, NetflowError> {
        with_thread_workspace(|ws| self.solve_with(net, s, t, target, ws))
    }

    /// [`Self::solve`] with an explicit workspace.
    ///
    /// # Errors
    ///
    /// Same as [`Self::solve`].
    pub fn solve_with(
        &mut self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
        ws: &mut SolverWorkspace,
    ) -> Result<FlowSolution, NetflowError> {
        self.run_chain(None, net, s, t, target, ws)
    }

    /// Runs `primary` (a stateful solver such as a
    /// [`Reoptimizer`](crate::Reoptimizer)) first and falls back to this
    /// solver's backend chain if it fails recoverably.
    ///
    /// After a [`NetflowError::SolverPanicked`] incident the caller must
    /// assume `primary`'s internal state is mid-mutation and reset it (e.g.
    /// [`Reoptimizer::reset`](crate::Reoptimizer::reset)) before its next
    /// use; the fallback result itself is produced by a stateless backend
    /// and is safe.
    ///
    /// # Errors
    ///
    /// Same as [`Self::solve`].
    pub fn solve_with_fallback(
        &mut self,
        primary: &mut dyn McfSolver,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
    ) -> Result<FlowSolution, NetflowError> {
        with_thread_workspace(|ws| self.run_chain(Some(primary), net, s, t, target, ws))
    }

    /// The attempt loop: `primary` (if any) then each chain backend, under
    /// per-attempt panic containment, budget installation and (with the
    /// `fault-inject` feature) fault injection.
    fn run_chain(
        &mut self,
        mut primary: Option<&mut dyn McfSolver>,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
        ws: &mut SolverWorkspace,
    ) -> Result<FlowSolution, NetflowError> {
        #[cfg(feature = "fault-inject")]
        crate::fault::FaultPlan::ensure_env_plan();

        let solve_index = self.solve_index;
        self.solve_index += 1;
        let budget = self.budget;
        let incidents_before = self.incidents.len();

        let chain_backends = self.chain.clone();
        let attempts = usize::from(primary.is_some()) + chain_backends.len();

        let mut last_err: Option<NetflowError> = None;
        for attempt in 0..attempts {
            let (name, outcome) = match (&mut primary, attempt) {
                (Some(solver), 0) => {
                    let name = solver.name();
                    let outcome = Self::attempt(solve_index, attempt, name, ws, |ws| {
                        solver.solve_budgeted(net, s, t, target, ws, budget)
                    });
                    (name.to_owned(), outcome)
                }
                _ => {
                    let backend = chain_backends[attempt - usize::from(primary.is_some())];
                    let name = backend.name();
                    let outcome = Self::attempt(solve_index, attempt, name, ws, |ws| {
                        let previous = ws.set_budget(budget);
                        let result = backend.solve_with(net, s, t, target, ws);
                        ws.set_budget(previous);
                        result
                    });
                    (name.to_owned(), outcome)
                }
            };
            match outcome {
                Ok(sol) => {
                    // Mark this solve's earlier incidents as recovered.
                    for incident in &mut self.incidents[incidents_before..] {
                        incident.recovered_with = Some(name.clone());
                    }
                    return Ok(sol);
                }
                Err(e) if is_terminal(&e) => return Err(e),
                Err(e) => {
                    self.incidents.push(SolverIncident {
                        solve_index,
                        backend: name,
                        error: e.to_string(),
                        recovered_with: None,
                    });
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.expect("chain is never empty"))
    }

    /// One contained attempt: fault injection (feature-gated), then the
    /// solve under `catch_unwind`, with panics converted to
    /// [`NetflowError::SolverPanicked`].
    fn attempt(
        solve_index: u64,
        attempt: usize,
        name: &'static str,
        ws: &mut SolverWorkspace,
        solve: impl FnOnce(&mut SolverWorkspace) -> Result<FlowSolution, NetflowError>,
    ) -> Result<FlowSolution, NetflowError> {
        #[cfg(not(feature = "fault-inject"))]
        let _ = (solve_index, attempt);
        let contained = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(feature = "fault-inject")]
            if let Some(kind) = crate::fault::maybe_inject(solve_index, attempt, name) {
                match kind {
                    crate::fault::FaultKind::Panic => {
                        panic!("injected fault: panic in {name} at solve {solve_index}")
                    }
                    crate::fault::FaultKind::Budget => {
                        return Err(NetflowError::BudgetExceeded {
                            backend: name,
                            phase: "injected",
                            progress: 0,
                        });
                    }
                    crate::fault::FaultKind::Overflow => {
                        return Err(NetflowError::Overflow {
                            reason: format!("injected fault at solve {solve_index}"),
                        });
                    }
                    // Connection faults target the server's response path;
                    // `maybe_inject` never returns them.
                    crate::fault::FaultKind::Conn => {}
                }
            }
            solve(ws)
        }));
        match contained {
            Ok(result) => result,
            Err(payload) => {
                let message = if let Some(s) = payload.downcast_ref::<&'static str>() {
                    (*s).to_owned()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_owned()
                };
                Err(NetflowError::SolverPanicked {
                    backend: name,
                    message,
                })
            }
        }
    }
}

impl McfSolver for ResilientSolver {
    fn name(&self) -> &'static str {
        "resilient"
    }

    fn solve(
        &mut self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
        ws: &mut SolverWorkspace,
    ) -> Result<FlowSolution, NetflowError> {
        self.solve_with(net, s, t, target, ws)
    }
}

/// True for errors that describe the problem instance rather than one
/// backend's solve — no fallback can change the verdict.
fn is_terminal(e: &NetflowError) -> bool {
    matches!(
        e,
        NetflowError::InvalidArc { .. }
            | NetflowError::Infeasible { .. }
            | NetflowError::CyclicFlow { .. }
    )
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
    fn clean_solves_record_no_incidents() {
        let (net, s, t) = diamond();
        let mut solver = ResilientSolver::new(Backend::Ssp);
        assert_eq!(solver.solve(&net, s, t, 2).unwrap().cost, 8);
        assert_eq!(solver.incident_count(), 0);
        assert_eq!(solver.solves(), 1);
        assert_eq!(solver.chain(), &[Backend::Ssp, Backend::Ssp]);
    }

    #[test]
    fn default_chain_appends_ssp_anchor() {
        let solver = ResilientSolver::new(Backend::Simplex);
        assert_eq!(solver.chain(), &[Backend::Simplex, Backend::Ssp]);
        // Even an SSP primary gets the anchor: the fresh-workspace retry is
        // what recovers a contained panic.
        let solver = ResilientSolver::new(Backend::Ssp);
        assert_eq!(solver.chain(), &[Backend::Ssp, Backend::Ssp]);
        let solver = ResilientSolver::with_chain(Vec::new());
        assert_eq!(solver.chain(), &[Backend::Ssp]);
    }

    #[test]
    fn negative_cycle_falls_through_to_capable_backend() {
        // SSP refuses negative cycles; the chain recovers with the network
        // simplex and logs exactly one incident.
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let b = net.add_node();
        let t = net.add_node();
        net.add_arc(s, a, 1, 0).unwrap();
        net.add_arc(a, b, 1, -5).unwrap();
        net.add_arc(b, a, 1, -5).unwrap();
        net.add_arc(a, t, 1, 0).unwrap();
        let mut solver = ResilientSolver::with_chain(vec![Backend::Ssp, Backend::Simplex]);
        let sol = solver.solve(&net, s, t, 1).unwrap();
        assert_eq!(sol.value, 1);
        // One unit s->a->t (0) plus the saturated cycle a->b->a (-10).
        assert_eq!(sol.cost, -10);
        assert_eq!(solver.incident_count(), 1);
        let incident = &solver.incidents()[0];
        assert_eq!(incident.backend, "ssp");
        assert_eq!(incident.recovered_with.as_deref(), Some("simplex"));
        assert!(incident.error.contains("negative-cost cycle"));
        assert_eq!(incident.solve_index, 0);
    }

    #[test]
    fn terminal_errors_skip_the_chain() {
        let (net, s, t) = diamond();
        let mut solver = ResilientSolver::with_chain(vec![Backend::Ssp, Backend::Simplex]);
        // Infeasible: every backend agrees; no incident, immediate error.
        let err = solver.solve(&net, s, t, 99).unwrap_err();
        assert!(matches!(err, NetflowError::Infeasible { .. }));
        assert_eq!(solver.incident_count(), 0);
        // Invalid endpoints likewise.
        let err = solver.solve(&net, s, s, 1).unwrap_err();
        assert!(matches!(err, NetflowError::InvalidArc { .. }));
        assert_eq!(solver.incident_count(), 0);
    }

    #[test]
    fn exhausted_chain_returns_last_error_and_logs_all_attempts() {
        let (net, s, t) = diamond();
        let mut solver = ResilientSolver::with_chain(vec![Backend::Ssp, Backend::Ssp]);
        // A zero-round budget starves both SSP links.
        solver.set_budget(SolveBudget::default().with_max_rounds(0));
        let err = solver.solve(&net, s, t, 2).unwrap_err();
        assert!(matches!(err, NetflowError::BudgetExceeded { .. }));
        assert_eq!(solver.incident_count(), 2);
        assert!(solver
            .incidents()
            .iter()
            .all(|i| i.recovered_with.is_none()));
        // Lifting the budget recovers on the next solve.
        solver.set_budget(SolveBudget::default());
        assert_eq!(solver.solve(&net, s, t, 2).unwrap().cost, 8);
        assert_eq!(solver.incident_count(), 2);
    }

    #[test]
    fn budget_starved_primary_recovers_via_unbudgeted_anchor() {
        // Budget applies per attempt; simplex with max_pivots 0 trips its
        // own budget while the SSP anchor (rounds-based) completes within
        // the same budget object.
        let (net, s, t) = diamond();
        let mut solver = ResilientSolver::new(Backend::Simplex);
        solver.set_budget(SolveBudget::default().with_max_pivots(0));
        let sol = solver.solve(&net, s, t, 2).unwrap();
        assert_eq!(sol.cost, 8);
        assert_eq!(solver.incident_count(), 1);
        let incident = &solver.incidents()[0];
        assert_eq!(incident.backend, "simplex");
        assert_eq!(incident.recovered_with.as_deref(), Some("ssp"));
    }

    #[test]
    fn budget_starved_ssp_recovers_via_pivot_backend() {
        // SSP counts Dijkstra rounds against the rounds budget; simplex
        // budgets pivots instead, so it completes under the same budget
        // object and absorbs the starved primary.
        let (net, s, t) = diamond();
        let mut solver = ResilientSolver::with_chain(vec![Backend::Ssp, Backend::Simplex]);
        solver.set_budget(SolveBudget::default().with_max_rounds(0));
        let sol = solver.solve(&net, s, t, 2).unwrap();
        assert_eq!(sol.cost, 8);
        assert_eq!(solver.incident_count(), 1);
        let incident = &solver.incidents()[0];
        assert_eq!(incident.backend, "ssp");
        assert_eq!(incident.recovered_with.as_deref(), Some("simplex"));
    }

    #[test]
    fn stateful_primary_falls_back_and_can_reset() {
        let (net, s, t) = diamond();
        let mut reopt = crate::Reoptimizer::new();
        let mut solver = ResilientSolver::new(Backend::Ssp);
        let sol = solver
            .solve_with_fallback(&mut reopt, &net, s, t, 1)
            .unwrap();
        assert_eq!(sol.cost, 2);
        assert_eq!(solver.incident_count(), 0);
        assert_eq!(reopt.cold_solves(), 1);
        // Raising the target forces the warm path to push one more unit,
        // which a zero-round budget forbids; both SSP chain links run under
        // the same per-attempt budget and fail too. Clearing the budget
        // (and resetting the reoptimizer) recovers.
        solver.set_budget(SolveBudget::default().with_max_rounds(0));
        let err = solver
            .solve_with_fallback(&mut reopt, &net, s, t, 2)
            .unwrap_err();
        assert!(matches!(err, NetflowError::BudgetExceeded { .. }));
        assert_eq!(solver.incident_count(), 3); // reopt + ssp + ssp anchor
        reopt.reset();
        solver.set_budget(SolveBudget::default());
        let sol = solver
            .solve_with_fallback(&mut reopt, &net, s, t, 2)
            .unwrap();
        assert_eq!(sol.cost, 8);
        assert_eq!(reopt.cold_solves(), 2);
    }

    #[test]
    fn incidents_display_readably() {
        let incident = SolverIncident {
            solve_index: 7,
            backend: "simplex".to_owned(),
            error: "solve budget exceeded".to_owned(),
            recovered_with: Some("ssp".to_owned()),
        };
        let text = incident.to_string();
        assert!(text.contains("solve #7"));
        assert!(text.contains("simplex"));
        assert!(text.contains("recovered by ssp"));
    }
}
