//! Byte-driven fuzz harness for network construction and the resilient
//! solve path. `cargo-fuzz` needs a registry (and nightly) this build
//! environment does not have, so the same harness shape runs under
//! proptest instead: arbitrary byte strings decode into construction +
//! solve scripts, and the checked-in seed corpus under `fuzz/corpus/`
//! replays known-interesting shapes on every test run.
//!
//! The invariant fuzzed for: no input bytes may panic the construction
//! API or any backend, and every solver error must be a typed input error
//! — never `InvalidSolution` (a solver bug) and never a contained panic
//! surfacing through the resilience layer as `SolverPanicked`.

use lemra_netflow::{Backend, FlowNetwork, NetflowError, NodeId, ResilientSolver};
use proptest::prelude::*;

/// Decodes a byte string into a flow network plus a solve request.
///
/// Layout: byte 0 is the node count (2–17); the rest is consumed in 7-byte
/// arc records `[from, to, cap_lo, cap_hi, cost_lo, cost_hi, flags]` (a
/// short trailing record is dropped). Flag bits stress the guard rails:
/// bit 0 inflates the capacity to `i64::MAX`, bit 1 the cost, bit 2
/// negates the cost, bit 3 asks for a lower bound of half the capacity.
/// Node indices wrap, so self-loops and repeated arcs occur naturally.
/// The last byte picks the flow target (0–7).
fn decode(data: &[u8]) -> Option<(FlowNetwork, NodeId, NodeId, i64)> {
    let (&first, rest) = data.split_first()?;
    let nodes = 2 + (first as usize % 16);
    let mut net = FlowNetwork::new();
    let ids = net.add_nodes(nodes);
    for rec in rest.chunks_exact(7) {
        let from = ids[rec[0] as usize % nodes];
        let to = ids[rec[1] as usize % nodes];
        let mut cap = i64::from(u16::from_le_bytes([rec[2], rec[3]]));
        let mut cost = i64::from(u16::from_le_bytes([rec[4], rec[5]]));
        let flags = rec[6];
        if flags & 1 != 0 {
            cap = i64::MAX;
        }
        if flags & 2 != 0 {
            cost = i64::MAX / 2;
        }
        if flags & 4 != 0 {
            cost = -cost;
        }
        // Construction may reject (e.g. lower bound above capacity is
        // impossible here, but future guards may appear) — a typed Err from
        // the builder is as valid an outcome as an accepted arc.
        let _ = if flags & 8 != 0 {
            net.add_arc_bounded(from, to, cap / 2, cap, cost)
        } else {
            net.add_arc(from, to, cap, cost)
        };
    }
    let target = i64::from(*data.last()? % 8);
    Some((net, ids[0], ids[nodes - 1], target))
}

/// Runs one fuzz case end to end; panics (failing the test) on any
/// invariant violation.
fn run_case(data: &[u8]) {
    let Some((net, s, t, target)) = decode(data) else {
        return;
    };
    let mut solver = ResilientSolver::with_chain(vec![Backend::Ssp, Backend::Simplex]);
    match solver.solve(&net, s, t, target) {
        Ok(sol) => assert_eq!(sol.value, target),
        Err(
            NetflowError::Infeasible { .. }
            | NetflowError::InvalidArc { .. }
            | NetflowError::NegativeCycle
            | NetflowError::Overflow { .. },
        ) => {}
        Err(e) => panic!("untyped or buggy outcome for {data:?}: {e:?}"),
    }
    // The resilience layer absorbs backend panics into incidents; a fuzz
    // input must not be able to panic any backend at all.
    for incident in solver.incidents() {
        assert!(
            !incident.error.contains("panicked"),
            "input {data:?} panicked a backend: {}",
            incident.error
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes: construct, solve, and check nothing panics and no
    /// untyped error escapes.
    #[test]
    fn arbitrary_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        run_case(&data);
    }
}

/// Replays the checked-in seed corpus — shapes worth keeping permanently:
/// self-loops, extreme magnitudes, dense multigraphs, empty and truncated
/// records.
#[test]
fn corpus_seeds_never_panic() {
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fuzz/corpus");
    let mut seeds = 0;
    for entry in std::fs::read_dir(&corpus).expect("fuzz/corpus directory is checked in") {
        let path = entry.expect("readable dir entry").path();
        if path.is_file() {
            let data = std::fs::read(&path).expect("readable seed");
            run_case(&data);
            seeds += 1;
        }
    }
    assert!(seeds >= 5, "seed corpus went missing: only {seeds} files");
}
