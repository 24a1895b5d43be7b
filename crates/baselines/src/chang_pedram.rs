//! The Chang–Pedram DAC'95 baseline \[8\]: low-power **register allocation**
//! by network flow, *without* memory partitioning — followed by a separate
//! partition step, the "previous research" the paper's Figure 3 compares
//! against.
//!
//! Phase 1 allocates every variable to `k` symbolic registers (`k` = the
//! maximum lifetime density — the fewest that fit) so that total switching
//! activity is minimal, using a min-cost flow over the compatibility graph
//! of *all* non-overlapping lifetimes (ref \[8\]'s graph; the paper's §6 uses
//! it for Figure 4a/b as well).
//!
//! Phase 2 partitions the symbolic registers: the `R` chains with the
//! *highest* switching activity stay in the register file ("ideally place
//! the registers with highest switching activity in the register file
//! (since average switched capacitance is smaller)", §6) and the rest are
//! demoted to memory.

use crate::BaselineError;
use lemra_core::{Allocation, AllocationProblem};
use lemra_ir::{DensityProfile, VarId};
use lemra_netflow::{ArcId, FlowNetwork, LemraConfig};

/// Result of the two-phase baseline.
#[derive(Debug, Clone)]
pub struct TwoPhaseResult {
    /// Per-variable placement after partitioning (register index or memory).
    pub allocation: Allocation,
    /// Symbolic register chains of phase 1, each with its switching total,
    /// ordered as allocated (before partitioning).
    pub symbolic_chains: Vec<(Vec<VarId>, f64)>,
    /// Total switching activity of phase 1 (all variables in registers) —
    /// Figure 3a's "2.4".
    pub phase1_switching: f64,
}

/// Runs register allocation first (minimum total switching over `k` =
/// max-density symbolic registers), then partitions the chains into the
/// `problem.registers` real registers plus memory.
///
/// # Errors
///
/// Returns [`BaselineError`] if phase 1 is infeasible (cannot happen for
/// valid lifetime tables) or the resulting placement is structurally
/// invalid.
pub fn two_phase(problem: &AllocationProblem) -> Result<TwoPhaseResult, BaselineError> {
    let chains = min_switching_register_allocation(problem)?;

    // Chain switching totals (initial write + transitions).
    let mut scored: Vec<(usize, f64)> = chains
        .iter()
        .enumerate()
        .map(|(i, chain)| (i, chain_switching(problem, chain)))
        .collect();
    let phase1_switching: f64 = scored.iter().map(|(_, s)| s).sum();

    // Keep the highest-activity chains in the register file.
    scored.sort_by(|a, b| b.1.total_cmp(&a.1));
    let keep: Vec<usize> = scored
        .iter()
        .take(problem.registers as usize)
        .map(|&(i, _)| i)
        .collect();

    let mut placement_of_var: Vec<Option<u32>> = vec![None; problem.lifetimes.len()];
    for (new_reg, &chain_idx) in keep.iter().enumerate() {
        for &v in &chains[chain_idx] {
            placement_of_var[v.index()] = Some(new_reg as u32);
        }
    }
    let allocation =
        Allocation::from_var_placements(problem, &placement_of_var).map_err(BaselineError::Core)?;

    Ok(TwoPhaseResult {
        allocation,
        symbolic_chains: chains
            .iter()
            .map(|c| (c.clone(), chain_switching(problem, c)))
            .collect(),
        phase1_switching,
    })
}

/// Phase 1: assign all variables to the minimum number of registers with
/// minimum total switching activity (the \[8\] optimisation).
///
/// # Errors
///
/// Returns [`BaselineError::Infeasible`] if the flow problem cannot cover
/// every variable (impossible for a valid lifetime table).
pub fn min_switching_register_allocation(
    problem: &AllocationProblem,
) -> Result<Vec<Vec<VarId>>, BaselineError> {
    let table = &problem.lifetimes;
    let k = DensityProfile::new(table).max() as i64;
    if k == 0 {
        return Ok(Vec::new());
    }
    const SCALE: f64 = 1e6;
    let quant = |h: f64| (h * SCALE).round() as i64;

    let mut net = FlowNetwork::new();
    let s = net.add_node();
    let t = net.add_node();
    let n = table.len();
    let mut var_arc: Vec<ArcId> = Vec::with_capacity(n);
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        let w = net.add_node();
        let r = net.add_node();
        nodes.push((w, r));
    }
    for (i, lt) in table.iter().enumerate() {
        // Every variable must receive a register: lower bound 1.
        var_arc.push(net.add_arc_bounded(nodes[i].0, nodes[i].1, 1, 1, 0)?);
        net.add_arc(s, nodes[i].0, 1, quant(problem.activity.initial(lt.var)))?;
        net.add_arc(nodes[i].1, t, 1, 0)?;
    }
    let mut handoffs: Vec<(ArcId, usize, usize)> = Vec::new();
    for (i, l1) in table.iter().enumerate() {
        for (j, l2) in table.iter().enumerate() {
            if i == j || l1.end(table.block_len()) >= l2.start() {
                continue;
            }
            let arc = net.add_arc(
                nodes[i].1,
                nodes[j].0,
                1,
                quant(problem.activity.hamming(l1.var, l2.var)),
            )?;
            handoffs.push((arc, i, j));
        }
    }
    net.add_arc(s, t, k, 0)?;
    // Hand-offs only join a variable to one that starts after it ends.
    debug_assert!(
        net.is_positive_capacity_dag(),
        "hand-off network has a cycle"
    );

    let sol = LemraConfig::get()
        .backend
        .solve(&net, s, t, k)
        .map_err(|e| match e {
            lemra_netflow::NetflowError::Infeasible { required, achieved } => {
                BaselineError::Infeasible { required, achieved }
            }
            other => BaselineError::Flow(other),
        })?;

    // Chains via successor pointers.
    let mut successor: Vec<Option<usize>> = vec![None; n];
    let mut has_pred = vec![false; n];
    for &(arc, i, j) in &handoffs {
        if sol.flow(arc) == 1 {
            successor[i] = Some(j);
            has_pred[j] = true;
        }
    }
    let mut chains = Vec::new();
    #[allow(clippy::needless_range_loop)] // index drives parallel lookups
    for start in 0..n {
        if has_pred[start] {
            continue;
        }
        let mut chain = Vec::new();
        let mut cur = Some(start);
        while let Some(i) = cur {
            chain.push(VarId(i as u32));
            cur = successor[i];
        }
        chains.push(chain);
    }
    Ok(chains)
}

/// Switching activity of one chain: initial write plus transitions.
pub fn chain_switching(problem: &AllocationProblem, chain: &[VarId]) -> f64 {
    if chain.is_empty() {
        return 0.0;
    }
    let mut total = problem.activity.initial(chain[0]);
    for pair in chain.windows(2) {
        total += problem.activity.hamming(pair[0], pair[1]);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use lemra_ir::{ActivitySource, LifetimeTable};

    fn problem() -> AllocationProblem {
        // a=[1,2], b=[2,4]; c=[1,3], d=[3,4]. Density 2.
        let t = LifetimeTable::from_intervals(
            4,
            vec![
                (1, vec![2], false),
                (2, vec![4], false),
                (1, vec![3], false),
                (3, vec![4], false),
            ],
        )
        .unwrap();
        AllocationProblem::new(t, 1).with_activity(ActivitySource::from_pairs([
            (VarId(0), VarId(1), 0.1), // a->b cheap
            (VarId(0), VarId(3), 0.9),
            (VarId(2), VarId(3), 0.2), // c->d cheap
            (VarId(2), VarId(1), 0.9),
        ]))
    }

    #[test]
    fn phase1_picks_min_switching_chains() {
        let p = problem();
        let chains = min_switching_register_allocation(&p).unwrap();
        assert_eq!(chains.len(), 2);
        let mut sorted: Vec<Vec<VarId>> = chains;
        sorted.sort();
        assert_eq!(sorted[0], vec![VarId(0), VarId(1)]); // a -> b
        assert_eq!(sorted[1], vec![VarId(2), VarId(3)]); // c -> d
    }

    #[test]
    fn phase1_switching_totals() {
        let p = problem();
        let r = two_phase(&p).unwrap();
        // 0.5 + 0.1 + 0.5 + 0.2 = 1.3
        assert!((r.phase1_switching - 1.3).abs() < 1e-9);
    }

    #[test]
    fn phase2_keeps_highest_activity_chain() {
        let p = problem();
        let r = two_phase(&p).unwrap();
        // Chain c->d (0.7) has higher activity than a->b (0.6): kept.
        assert_eq!(r.allocation.registers_used(), 1);
        let report = lemra_core::AllocationReport::new(&p, &r.allocation);
        assert!((report.register_switching - 0.7).abs() < 1e-9);
        // a and b are in memory: 2 writes + 2 reads.
        assert_eq!(report.mem_writes, 2);
        assert_eq!(report.mem_reads, 2);
    }

    #[test]
    fn all_chains_kept_with_ample_registers() {
        let t = LifetimeTable::from_intervals(4, vec![(1, vec![2], false), (2, vec![4], false)])
            .unwrap();
        let p = AllocationProblem::new(t, 8);
        let r = two_phase(&p).unwrap();
        let report = lemra_core::AllocationReport::new(&p, &r.allocation);
        assert_eq!(report.mem_accesses(), 0);
    }

    #[test]
    fn empty_table_is_trivial() {
        let t = LifetimeTable::from_intervals(3, vec![]).unwrap();
        let p = AllocationProblem::new(t, 2);
        let r = two_phase(&p).unwrap();
        assert_eq!(r.symbolic_chains.len(), 0);
    }
}
