//! Degenerate-input corpus: every backend must return `Ok` or a *typed*
//! error — never panic, never wrap (the test profile compiles with
//! `overflow-checks = true`, so a silent wrap would abort the test) — on
//! the pathological shapes allocation front-ends can produce: zero-capacity
//! arcs, zero flow targets, single-node and arc-less networks, all-equal
//! costs and near-`i64::MAX` cost/capacity combinations.

use lemra_netflow::{Backend, FlowNetwork, NetflowError, NodeId, ResilientSolver};
use proptest::prelude::*;

/// Every entry point under test: both backends and the resilient fallback
/// chain (SSP, then the simplex for what SSP refuses).
fn solve_everywhere(
    net: &FlowNetwork,
    s: NodeId,
    t: NodeId,
    target: i64,
) -> Vec<(
    &'static str,
    Result<lemra_netflow::FlowSolution, NetflowError>,
)> {
    let mut results: Vec<(&'static str, _)> = Backend::ALL
        .iter()
        .map(|b| (b.name(), b.solve(net, s, t, target)))
        .collect();
    let mut resilient = ResilientSolver::with_chain(vec![Backend::Ssp, Backend::Simplex]);
    results.push(("resilient", resilient.solve(net, s, t, target)));
    results
}

/// An error a degenerate input may legitimately produce. `InvalidSolution`
/// is deliberately absent: it signals a solver bug, not a bad input.
fn is_typed_input_error(e: &NetflowError) -> bool {
    matches!(
        e,
        NetflowError::Infeasible { .. }
            | NetflowError::InvalidArc { .. }
            | NetflowError::NegativeCycle
            | NetflowError::Overflow { .. }
    )
}

/// A random DAG (`from < to`, so cycle-free) with the given cost and
/// capacity ranges.
fn dag(
    caps: std::ops::Range<i64>,
    costs: std::ops::Range<i64>,
) -> impl Strategy<Value = (usize, Vec<(usize, usize, i64, i64)>)> {
    (2usize..8).prop_flat_map(move |nodes| {
        let caps = caps.clone();
        let costs = costs.clone();
        let arc = (0..nodes - 1)
            .prop_flat_map(move |from| (Just(from), from + 1..nodes, caps.clone(), costs.clone()));
        (Just(nodes), proptest::collection::vec(arc, 0..16))
    })
}

fn build(nodes: usize, arcs: &[(usize, usize, i64, i64)]) -> (FlowNetwork, NodeId, NodeId) {
    let mut net = FlowNetwork::new();
    let ids = net.add_nodes(nodes);
    for &(f, t, cap, cost) in arcs {
        net.add_arc(ids[f], ids[t], cap, cost).expect("valid arc");
    }
    (net, ids[0], ids[nodes - 1])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// All-zero capacities: a zero target is trivially satisfied at cost 0,
    /// any positive target is a typed `Infeasible`.
    #[test]
    fn zero_capacity_arcs(spec in dag(0i64..1, -9i64..9), target in 0i64..4) {
        let (net, s, t) = build(spec.0, &spec.1);
        for (name, result) in solve_everywhere(&net, s, t, target) {
            match result {
                Ok(sol) => {
                    prop_assert_eq!(target, 0, "{} routed flow over zero caps", name);
                    prop_assert_eq!(sol.cost, 0, "{} nonzero cost at zero flow", name);
                }
                Err(NetflowError::Infeasible { .. }) => prop_assert!(target > 0),
                Err(e) => prop_assert!(false, "{name}: unexpected error {e:?}"),
            }
        }
    }

    /// A zero flow target succeeds on every DAG at cost 0 (no negative
    /// cycles exist to saturate), whatever the arc costs.
    #[test]
    fn zero_target_costs_nothing(spec in dag(0i64..5, -12i64..12)) {
        let (net, s, t) = build(spec.0, &spec.1);
        for (name, result) in solve_everywhere(&net, s, t, 0) {
            let sol = result.unwrap_or_else(|e| panic!("{name} failed zero target: {e}"));
            prop_assert_eq!(sol.value, 0);
            prop_assert_eq!(sol.cost, 0, "{} found cost at zero flow on a DAG", name);
        }
    }

    /// All-equal costs leave the objective a pure multiple of the common
    /// cost; every backend agrees on it.
    #[test]
    fn all_equal_costs_agree(
        spec in dag(0i64..4, 0i64..1),
        cost in -7i64..8,
        target in 0i64..5,
    ) {
        let mut net = FlowNetwork::new();
        let ids = net.add_nodes(spec.0);
        for &(f, t, cap, _) in &spec.1 {
            net.add_arc(ids[f], ids[t], cap, cost).expect("valid arc");
        }
        let (s, t) = (ids[0], ids[spec.0 - 1]);
        let results = solve_everywhere(&net, s, t, target);
        let (base_name, base) = &results[0];
        for (name, result) in &results[1..] {
            match (base, result) {
                (Ok(a), Ok(b)) => prop_assert_eq!(
                    a.cost, b.cost, "{} vs {} objective", base_name, name
                ),
                (Err(NetflowError::Infeasible { .. }), Err(NetflowError::Infeasible { .. })) => {}
                (a, b) => prop_assert!(false, "{base_name} vs {name}: {a:?} vs {b:?}"),
            }
        }
    }

    /// Near-`i64::MAX` costs and capacities: the overflow pre-check either
    /// admits the instance (and all backends solve it exactly) or rejects it
    /// with a typed error — nothing panics, nothing wraps.
    #[test]
    fn extreme_magnitudes_never_panic(
        spec in dag(0i64..3, -4i64..5),
        cost_pick in 0usize..4,
        cap_pick in 0usize..3,
        target in 0i64..3,
    ) {
        let huge_cost = [i64::MAX, i64::MAX / 2, i64::MIN + 1, i64::MAX / 4 - 1][cost_pick];
        let huge_cap = [i64::MAX, i64::MAX / 2, 1i64][cap_pick];
        let mut net = FlowNetwork::new();
        let ids = net.add_nodes(spec.0);
        for &(f, t, cap, cost) in &spec.1 {
            net.add_arc(ids[f], ids[t], cap, cost).expect("valid arc");
        }
        // One extreme arc straight across the network.
        net.add_arc(ids[0], ids[spec.0 - 1], huge_cap, huge_cost)
            .expect("valid arc");
        let (s, t) = (ids[0], ids[spec.0 - 1]);
        for (name, result) in solve_everywhere(&net, s, t, target) {
            if let Err(e) = result {
                prop_assert!(
                    is_typed_input_error(&e),
                    "{name}: untyped/unexpected error {e:?}"
                );
            }
        }
    }
}

#[test]
fn single_node_and_foreign_endpoints_are_typed_errors() {
    let mut net = FlowNetwork::new();
    let only = net.add_node();
    for (name, result) in solve_everywhere(&net, only, only, 0) {
        match result {
            Err(NetflowError::InvalidArc { reason }) => {
                assert!(reason.contains("differ"), "{name}: {reason}")
            }
            other => panic!("{name}: expected InvalidArc for s == t, got {other:?}"),
        }
    }
    // A second network's node id is out of range for the first.
    let mut bigger = FlowNetwork::new();
    bigger.add_nodes(5);
    let foreign = bigger.add_node();
    for (name, result) in solve_everywhere(&net, only, foreign, 0) {
        assert!(
            matches!(result, Err(NetflowError::InvalidArc { .. })),
            "{name}: expected InvalidArc for out-of-range sink"
        );
    }
}

#[test]
fn empty_arc_list_feasible_only_at_zero() {
    let mut net = FlowNetwork::new();
    let ids = net.add_nodes(4);
    let (s, t) = (ids[0], ids[3]);
    for (name, result) in solve_everywhere(&net, s, t, 0) {
        let sol = result.unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!((sol.value, sol.cost), (0, 0), "{name}");
    }
    for (name, result) in solve_everywhere(&net, s, t, 1) {
        assert!(
            matches!(result, Err(NetflowError::Infeasible { .. })),
            "{name}: expected Infeasible with no arcs"
        );
    }
}

#[test]
fn negative_target_is_a_typed_error() {
    let mut net = FlowNetwork::new();
    let (s, t) = (net.add_node(), net.add_node());
    net.add_arc(s, t, 3, 1).expect("valid arc");
    for (name, result) in solve_everywhere(&net, s, t, -1) {
        assert!(
            matches!(result, Err(NetflowError::InvalidArc { .. })),
            "{name}: expected InvalidArc for negative target"
        );
    }
}
