//! Batched min-cost flow: solve many independent problems across threads.
//!
//! Each worker thread owns one [`SolverWorkspace`], so a batch of `k`
//! problems performs `O(threads)` workspace allocations instead of `O(k)`,
//! and the independent solves run in parallel. Results come back in input
//! order regardless of scheduling, so batched output is byte-identical to a
//! serial loop.

use crate::config::LemraConfig;
use crate::graph::{FlowNetwork, NodeId};
use crate::solver::Backend;
use crate::workspace::SolverWorkspace;
use crate::{FlowSolution, NetflowError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// One problem of a [`solve_batch`] call: solve `net` for exactly `target`
/// units from `s` to `t` (the [`min_cost_flow`](crate::min_cost_flow)
/// contract).
#[derive(Debug, Clone, Copy)]
pub struct BatchProblem<'a> {
    /// The network to solve over.
    pub net: &'a FlowNetwork,
    /// Source node.
    pub s: NodeId,
    /// Sink node.
    pub t: NodeId,
    /// Exact flow value to route.
    pub target: i64,
}

/// Solves every problem of the batch, in parallel, returning results in
/// input order (identical to mapping [`min_cost_flow`](crate::min_cost_flow)
/// over the slice serially).
///
/// Worker threads share nothing but an index counter; each owns a
/// [`SolverWorkspace`] reused across the problems it picks up. Set the
/// `LEMRA_THREADS` environment variable (read once into
/// [`LemraConfig`](crate::LemraConfig)) to bound the worker count (`1`
/// forces serial execution on the calling thread). Equivalent to
/// [`solve_batch_on`] with [`Backend::Ssp`].
///
/// # Examples
///
/// ```
/// use lemra_netflow::{solve_batch, BatchProblem, FlowNetwork};
///
/// # fn main() -> Result<(), lemra_netflow::NetflowError> {
/// let mut net = FlowNetwork::new();
/// let (s, t) = (net.add_node(), net.add_node());
/// net.add_arc(s, t, 10, 3)?;
/// let problems: Vec<BatchProblem> = (1..=4)
///     .map(|f| BatchProblem { net: &net, s, t, target: f })
///     .collect();
/// let solutions = solve_batch(&problems);
/// for (f, sol) in (1..=4).zip(&solutions) {
///     assert_eq!(sol.as_ref().expect("feasible").cost, 3 * f);
/// }
/// # Ok(())
/// # }
/// ```
pub fn solve_batch(problems: &[BatchProblem<'_>]) -> Vec<Result<FlowSolution, NetflowError>> {
    solve_batch_on(Backend::Ssp, problems)
}

/// [`solve_batch`] with an explicit [`Backend`].
///
/// Output order and per-problem results are identical to mapping
/// [`Backend::solve`] over the slice serially.
pub fn solve_batch_on(
    backend: Backend,
    problems: &[BatchProblem<'_>],
) -> Vec<Result<FlowSolution, NetflowError>> {
    let workers = LemraConfig::get().worker_count(problems.len());
    if workers <= 1 {
        let mut ws = SolverWorkspace::new();
        return problems
            .iter()
            .map(|p| backend.solve_with(p.net, p.s, p.t, p.target, &mut ws))
            .collect();
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Result<FlowSolution, NetflowError>)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            scope.spawn(move || {
                let mut ws = SolverWorkspace::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(p) = problems.get(i) else { break };
                    let result = backend.solve_with(p.net, p.s, p.t, p.target, &mut ws);
                    if tx.send((i, result)).is_err() {
                        break;
                    }
                }
            });
        }
    });
    drop(tx);

    let mut out: Vec<Option<Result<FlowSolution, NetflowError>>> =
        (0..problems.len()).map(|_| None).collect();
    for (i, result) in rx {
        out[i] = Some(result);
    }
    // Invariant: the workers partition 0..problems.len() exactly — each
    // index is sent on `tx` once, and a panicking worker propagates out of
    // `thread::scope` before this line runs, so every slot is `Some`.
    out.into_iter()
        .map(|r| r.expect("every index solved exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::min_cost_flow;

    fn chain(n: usize, cap: i64, cost: i64) -> (FlowNetwork, NodeId, NodeId) {
        let mut net = FlowNetwork::new();
        let nodes = net.add_nodes(n);
        for w in nodes.windows(2) {
            net.add_arc(w[0], w[1], cap, cost).unwrap();
        }
        (net, nodes[0], nodes[n - 1])
    }

    #[test]
    fn batch_matches_serial_in_order() {
        let nets: Vec<_> = (2..12).map(|n| chain(n, 4, 1)).collect();
        let problems: Vec<BatchProblem> = nets
            .iter()
            .map(|(net, s, t)| BatchProblem {
                net,
                s: *s,
                t: *t,
                target: 3,
            })
            .collect();
        let batched = solve_batch(&problems);
        for (p, got) in problems.iter().zip(&batched) {
            let serial = min_cost_flow(p.net, p.s, p.t, p.target);
            match (serial, got) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.cost, b.cost);
                    assert_eq!(a.flows, b.flows);
                }
                (Err(a), Err(b)) => assert_eq!(&a, b),
                (a, b) => panic!("disagreement: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn batch_reports_per_problem_errors() {
        let (net, s, t) = chain(3, 2, 1);
        let problems = [
            BatchProblem {
                net: &net,
                s,
                t,
                target: 1,
            },
            BatchProblem {
                net: &net,
                s,
                t,
                target: 99,
            }, // infeasible
            BatchProblem {
                net: &net,
                s,
                t,
                target: 2,
            },
        ];
        let results = solve_batch(&problems);
        assert_eq!(results[0].as_ref().unwrap().cost, 2);
        assert!(matches!(results[1], Err(NetflowError::Infeasible { .. })));
        assert_eq!(results[2].as_ref().unwrap().cost, 4);
    }

    #[test]
    fn empty_batch() {
        assert!(solve_batch(&[]).is_empty());
    }

    #[test]
    fn batch_on_any_backend_matches_serial() {
        let nets: Vec<_> = (2..8).map(|n| chain(n, 4, 1)).collect();
        let problems: Vec<BatchProblem> = nets
            .iter()
            .map(|(net, s, t)| BatchProblem {
                net,
                s: *s,
                t: *t,
                target: 2,
            })
            .collect();
        for backend in Backend::ALL {
            let batched = solve_batch_on(backend, &problems);
            for (p, got) in problems.iter().zip(&batched) {
                let serial = backend.solve(p.net, p.s, p.t, p.target).unwrap();
                let got = got.as_ref().unwrap();
                assert_eq!(serial.cost, got.cost, "{backend}");
                assert_eq!(serial.flows, got.flows, "{backend}");
            }
        }
    }
}
