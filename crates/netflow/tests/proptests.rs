//! Property tests cross-checking the two independent min-cost flow solvers
//! (successive shortest paths and network simplex) on random networks: DAGs
//! — the class `lemra-core` generates — plus cyclic networks with negative
//! cycles, where only the simplex applies and its optimum is certified by
//! a Bellman–Ford negative-cycle check of its residual graph.

use lemra_netflow::{
    max_flow, min_cost_flow, min_cost_flow_network_simplex, validate, ArcId, Backend, FlowNetwork,
    FlowSolution, NetflowError, NodeId, Reoptimizer,
};
use proptest::prelude::*;

/// A randomly generated DAG flow network description.
#[derive(Debug, Clone)]
struct RandomDag {
    nodes: usize,
    /// (from, to, lower, cap, cost) with from < to.
    arcs: Vec<(usize, usize, i64, i64, i64)>,
}

fn random_dag(with_lower_bounds: bool) -> impl Strategy<Value = RandomDag> {
    (2usize..10).prop_flat_map(move |nodes| {
        let arc = (0..nodes - 1)
            .prop_flat_map(move |from| (Just(from), from + 1..nodes, 0i64..3, 0i64..5, -12i64..12));
        proptest::collection::vec(arc, 1..24).prop_map(move |raw| RandomDag {
            nodes,
            arcs: raw
                .into_iter()
                .map(|(f, t, lb, extra, cost)| {
                    let lb = if with_lower_bounds { lb } else { 0 };
                    (f, t, lb, lb + extra, cost)
                })
                .collect(),
        })
    })
}

fn build(dag: &RandomDag) -> (FlowNetwork, NodeId, NodeId) {
    let mut net = FlowNetwork::new();
    let ids = net.add_nodes(dag.nodes);
    for &(f, t, lb, cap, cost) in &dag.arcs {
        net.add_arc_bounded(ids[f], ids[t], lb, cap, cost)
            .expect("generated bounds are valid");
    }
    (net, ids[0], ids[dag.nodes - 1])
}

/// Whether the graph `edges` (`(from, to, cost)` over `n` nodes) has a
/// negative-cost cycle reachable from `start` (`None`: from anywhere), by
/// Bellman–Ford: a relaxation that still succeeds after `n` rounds proves
/// one.
fn negative_cycle_from(n: usize, edges: &[(usize, usize, i64)], start: Option<usize>) -> bool {
    let mut dist: Vec<Option<i64>> = match start {
        Some(s) => (0..n).map(|v| (v == s).then_some(0)).collect(),
        None => vec![Some(0); n],
    };
    for _ in 0..=n {
        let mut relaxed = false;
        for &(u, v, c) in edges {
            if let Some(du) = dist[u] {
                if dist[v].is_none_or(|dv| du + c < dv) {
                    dist[v] = Some(du + c);
                    relaxed = true;
                }
            }
        }
        if !relaxed {
            return false;
        }
    }
    true
}

/// The positive-capacity arcs of `net` as `(from, to, cost)` edges.
fn forward_edges(net: &FlowNetwork) -> Vec<(usize, usize, i64)> {
    net.arcs()
        .filter(|(_, a)| a.capacity > 0)
        .map(|(_, a)| (a.from.index(), a.to.index(), a.cost))
        .collect()
}

/// Optimality certificate independent of either solver: a feasible flow is
/// minimum-cost iff its residual graph has no negative-cost cycle.
fn residual_is_optimal(net: &FlowNetwork, sol: &FlowSolution) -> bool {
    let mut edges = Vec::new();
    for (id, a) in net.arcs() {
        let f = sol.flows[id.index()];
        if f < a.capacity {
            edges.push((a.from.index(), a.to.index(), a.cost));
        }
        if f > a.lower_bound {
            edges.push((a.to.index(), a.from.index(), -a.cost));
        }
    }
    !negative_cycle_from(net.node_count(), &edges, None)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// SSP and the network simplex agree on feasibility and optimal cost,
    /// every output validates, and the shared optimum carries a residual
    /// optimality certificate, for every flow target.
    #[test]
    fn ssp_and_simplex_agree(dag in random_dag(false), target in 0i64..8) {
        let (net, s, t) = build(&dag);
        let ssp = min_cost_flow(&net, s, t, target);
        let nsx = min_cost_flow_network_simplex(&net, s, t, target);
        match (ssp, nsx) {
            (Ok(a), Ok(b)) => {
                validate(&net, s, t, &a).unwrap();
                validate(&net, s, t, &b).unwrap();
                prop_assert_eq!(a.cost, b.cost);
                prop_assert_eq!(a.value, target);
                prop_assert!(residual_is_optimal(&net, &a));
            }
            (Err(NetflowError::Infeasible { .. }), Err(NetflowError::Infeasible { .. })) => {}
            (a, b) => prop_assert!(false, "solver disagreement: {a:?} vs {b:?}"),
        }
    }

    /// On *cyclic* networks the simplex's flow is optimal by the residual
    /// certificate. SSP refuses a negative cycle the flow can reach with
    /// `NegativeCycle`; with no negative cycle at all it matches the
    /// simplex's optimum.
    #[test]
    fn simplex_is_optimal_and_ssp_refuses_negative_cycles(
        nodes in 3usize..7,
        raw in proptest::collection::vec(
            (0usize..6, 0usize..6, 1i64..4, -9i64..9),
            2..14,
        ),
        target in 0i64..4,
    ) {
        let mut net = FlowNetwork::new();
        let ids = net.add_nodes(nodes);
        for (f, t_, cap, cost) in raw {
            let (f, t_) = (f % nodes, t_ % nodes);
            if f != t_ {
                net.add_arc(ids[f], ids[t_], cap, cost).expect("valid");
            }
        }
        let s = ids[0];
        let t = ids[nodes - 1];
        let edges = forward_edges(&net);
        let any_negative = negative_cycle_from(nodes, &edges, None);
        let reachable_negative =
            target > 0 && negative_cycle_from(nodes, &edges, Some(s.index()));
        let nsx = min_cost_flow_network_simplex(&net, s, t, target);
        let ssp = min_cost_flow(&net, s, t, target);
        match &nsx {
            Ok(b) => {
                validate(&net, s, t, b).unwrap();
                prop_assert!(residual_is_optimal(&net, b), "simplex flow not optimal");
            }
            Err(e) => prop_assert!(
                matches!(e, NetflowError::Infeasible { .. }),
                "simplex failed: {e:?}"
            ),
        }
        match (&nsx, ssp) {
            (_, Err(NetflowError::NegativeCycle)) => prop_assert!(any_negative),
            (Ok(b), Ok(a)) => {
                prop_assert!(!reachable_negative, "ssp missed a reachable negative cycle");
                validate(&net, s, t, &a).unwrap();
                if any_negative {
                    // An unreachable cycle escapes SSP; its flow is still
                    // feasible, so never better than the optimum.
                    prop_assert!(a.cost >= b.cost);
                } else {
                    prop_assert_eq!(a.cost, b.cost);
                }
            }
            (Err(NetflowError::Infeasible { .. }), Err(NetflowError::Infeasible { .. })) => {}
            (b, a) => prop_assert!(false, "disagreement: ssp {a:?} vs simplex {b:?}"),
        }
    }

    /// With lower bounds the solvers still agree; any returned flow honours
    /// every bound.
    #[test]
    fn lower_bounds_agree(dag in random_dag(true), target in 0i64..8) {
        let (net, s, t) = build(&dag);
        let ssp = min_cost_flow(&net, s, t, target);
        let nsx = min_cost_flow_network_simplex(&net, s, t, target);
        match (ssp, nsx) {
            (Ok(a), Ok(b)) => {
                validate(&net, s, t, &a).unwrap();
                validate(&net, s, t, &b).unwrap();
                prop_assert_eq!(a.cost, b.cost);
                prop_assert!(residual_is_optimal(&net, &a));
            }
            (Err(NetflowError::Infeasible { .. }), Err(NetflowError::Infeasible { .. })) => {}
            (a, b) => prop_assert!(false, "solver disagreement: {a:?} vs {b:?}"),
        }
    }

    /// The optimal cost is a convex function of the flow target (a classical
    /// property of min-cost flows).
    #[test]
    fn cost_is_convex_in_target(dag in random_dag(false)) {
        let (net, s, t) = build(&dag);
        let cap = max_flow(&net, s, t).unwrap().value;
        let costs: Vec<i64> = (0..=cap)
            .map(|f| min_cost_flow(&net, s, t, f).unwrap().cost)
            .collect();
        for w in costs.windows(3) {
            prop_assert!(w[2] - w[1] >= w[1] - w[0], "non-convex costs: {costs:?}");
        }
    }

    /// Max-flow value bounds min-cost-flow feasibility exactly.
    #[test]
    fn feasible_iff_within_max_flow(dag in random_dag(false), target in 0i64..10) {
        let (net, s, t) = build(&dag);
        let cap = max_flow(&net, s, t).unwrap().value;
        let result = min_cost_flow(&net, s, t, target);
        if target <= cap {
            prop_assert!(result.is_ok());
        } else {
            let infeasible = matches!(result, Err(NetflowError::Infeasible { .. }));
            prop_assert!(infeasible);
        }
    }

    /// Warm-start reoptimisation over a randomized delta sequence: after
    /// every batch of cost/capacity/target deltas, the [`Reoptimizer`]'s
    /// objective and feasibility verdict must match an independent cold
    /// solve, and its flow must validate. Under the `validate` feature this
    /// also re-checks reduced-cost optimality after every delta batch
    /// (inside the warm solver's Dijkstra rounds and final audit).
    #[test]
    fn warm_start_matches_cold_over_delta_sequences(
        dag in random_dag(false),
        steps in proptest::collection::vec(
            // (arc selector, mutate cost?, new cost, mutate cap?, new cap, target)
            (0usize..1024, any::<bool>(), -12i64..12, any::<bool>(), 0i64..6, 0i64..8),
            1..16,
        ),
        first_target in 0i64..6,
    ) {
        let (mut net, s, t) = build(&dag);
        let arcs: Vec<ArcId> = net.arcs().map(|(id, _)| id).collect();
        let mut reopt = Reoptimizer::new();
        let check = |reopt: &mut Reoptimizer, net: &FlowNetwork, f: i64| {
            let warm = reopt.solve(net, s, t, f);
            let cold = min_cost_flow(net, s, t, f);
            match (warm, cold) {
                (Ok(w), Ok(c)) => {
                    validate(net, s, t, &w)?;
                    if w.cost != c.cost {
                        return Err(NetflowError::InvalidSolution {
                            reason: format!("warm cost {} != cold cost {}", w.cost, c.cost),
                        });
                    }
                    Ok(())
                }
                (Err(NetflowError::Infeasible { .. }), Err(NetflowError::Infeasible { .. })) => {
                    Ok(())
                }
                (w, c) => Err(NetflowError::InvalidSolution {
                    reason: format!("warm/cold verdicts diverged: {w:?} vs {c:?}"),
                }),
            }
        };
        prop_assert!(check(&mut reopt, &net, first_target).is_ok());
        for (sel, mutate_cost, cost, mutate_cap, cap, target) in steps {
            let arc = arcs[sel % arcs.len()];
            if mutate_cost {
                net.set_arc_cost(arc, cost);
            }
            if mutate_cap {
                net.set_arc_capacity(arc, cap).expect("lower bounds are zero");
            }
            if let Err(e) = check(&mut reopt, &net, target) {
                prop_assert!(false, "delta step diverged: {e}");
            }
        }
    }

    /// Every [`Backend`] and the warm [`Reoptimizer`] agree on feasibility
    /// and optimal objective, and every returned flow validates.
    #[test]
    fn every_backend_agrees_on_objective(dag in random_dag(false), target in 0i64..8) {
        let (net, s, t) = build(&dag);
        let mut reopt = Reoptimizer::new();
        let mut results: Vec<(&str, Result<_, NetflowError>)> = Backend::ALL
            .iter()
            .map(|b| (b.name(), b.solve(&net, s, t, target)))
            .collect();
        results.push(("reopt", reopt.solve(&net, s, t, target)));
        let (base_name, base) = &results[0];
        for (name, result) in &results[1..] {
            match (base, result) {
                (Ok(a), Ok(b)) => {
                    validate(&net, s, t, b).unwrap();
                    prop_assert_eq!(
                        a.cost, b.cost,
                        "{} cost {} != {} cost {}", base_name, a.cost, name, b.cost
                    );
                    prop_assert_eq!(b.value, target);
                }
                (Err(NetflowError::Infeasible { .. }), Err(NetflowError::Infeasible { .. })) => {}
                (a, b) => prop_assert!(
                    false,
                    "{base_name} and {name} disagree: {a:?} vs {b:?}"
                ),
            }
        }
    }

    /// On unit-capacity networks whose costs carry distinct power-of-two
    /// offsets the optimal flow is *unique* (the offset sum encodes the used
    /// arc set injectively, as in `lemra-core`'s deterministic tie-breaking)
    /// — so every backend must agree arc-by-arc on the placement, not just
    /// on the objective.
    #[test]
    fn backends_agree_on_placements_when_tie_broken(
        dag in random_dag(false),
        target in 1i64..5,
    ) {
        // Σ 2^i over ≤24 arcs < 2^25, so scaling base costs by 2^25 keeps
        // the base objective dominant and the offsets a pure tie-break.
        let mut net = FlowNetwork::new();
        let ids = net.add_nodes(dag.nodes);
        for (i, &(f, t_, _, _, cost)) in dag.arcs.iter().take(24).enumerate() {
            net.add_arc(ids[f], ids[t_], 1, cost * (1i64 << 25) + (1i64 << i))
                .expect("valid arc");
        }
        let (s, t) = (ids[0], ids[dag.nodes - 1]);
        let mut reopt = Reoptimizer::new();
        let base = Backend::Ssp.solve(&net, s, t, target);
        let mut others: Vec<(&str, Result<_, NetflowError>)> = Backend::ALL[1..]
            .iter()
            .map(|b| (b.name(), b.solve(&net, s, t, target)))
            .collect();
        others.push(("reopt", reopt.solve(&net, s, t, target)));
        for (name, result) in others {
            match (&base, result) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(
                        &a.flows, &b.flows,
                        "ssp and {} placed flow differently", name
                    );
                }
                (Err(NetflowError::Infeasible { .. }), Err(NetflowError::Infeasible { .. })) => {}
                (a, b) => prop_assert!(false, "ssp and {name} disagree: {a:?} vs {b:?}"),
            }
        }
    }

    /// Path decomposition covers the full value and every path runs s -> t.
    #[test]
    fn decomposition_covers_value(dag in random_dag(false), target in 1i64..6) {
        let (net, s, t) = build(&dag);
        if let Ok(sol) = min_cost_flow(&net, s, t, target) {
            let paths = sol.decompose_paths(&net, s, t).unwrap();
            prop_assert_eq!(paths.iter().map(|(_, u)| *u).sum::<i64>(), target);
            for (path, units) in &paths {
                prop_assert!(*units > 0);
                prop_assert_eq!(net.arc(path[0]).from, s);
                prop_assert_eq!(net.arc(*path.last().unwrap()).to, t);
                for pair in path.windows(2) {
                    prop_assert_eq!(net.arc(pair[0]).to, net.arc(pair[1]).from);
                }
            }
        }
    }
}
