//! Beyond basic blocks (§7: "extending this problem to very large basic
//! blocks or beyond basic blocks should be a viable future research
//! direction").
//!
//! A [`BlockChain`] is a sequence of scheduled basic blocks executed back to
//! back; each block's live-out variables feed named variables of the next
//! block. [`allocate_chain`] allocates the blocks in order, threading the
//! boundary state through: a value the previous block left **in a register**
//! enters the next block's flow problem as register-carried (staying put is
//! free; spilling it pays the boundary store), and a value left **in
//! memory** enters as memory-carried (already stored; registering it costs a
//! fetch). Register indices may differ between blocks — register files
//! persist, and the code generator renames freely, so alignment carries no
//! energy cost.
//!
//! # The parallel block pipeline
//!
//! The boundary threading makes block `i + 1` depend on block `i`'s
//! committed placements, so the chain looks inherently serial. It is not:
//! with `LEMRA_THREADS > 1` (or [`allocate_chain_threads`]), every block's
//! Segment→Profile→Build→Solve pipeline runs concurrently on a worker pool
//! against a *predicted* boundary. The prediction comes from a pilot: the
//! first block's problem has no incoming links, so it is solved exactly up
//! front, and every later boundary is predicted by reading the linked
//! out-variables' placements off the pilot allocation (falling back to
//! register-carried for variables the pilot does not know). For the
//! workload this pipeline exists for — chains of structurally identical
//! loop tiles — the steady-state boundary repeats the pilot's, so the
//! prediction is exact. A sequential commit pass then walks the chain in
//! order,
//! derives each block's actual carried sets from its predecessor's
//! committed allocation, and adopts the speculative result iff the
//! prediction matched (the problems are then identical, and the tie-break
//! transform makes the optimum unique, so the speculative solve *is* the
//! serial solve); mispredicted blocks are re-solved inline. Each worker
//! holds one warm [`PipelineCx`] across all its blocks — structurally
//! identical blocks (loop tiles, unrolled kernels) re-price one retained
//! network and repair the previous optimum instead of solving cold. The
//! result is byte-identical to the serial walk at any worker count.

use crate::allocator::{Allocation, Placement};
use crate::pipeline::PipelineCx;
use crate::problem::AllocationProblem;
use crate::realloc::{reallocate_memory_with, MemoryReallocation};
use crate::report::AllocationReport;
use crate::CoreError;
use lemra_ir::VarId;
use lemra_netflow::LemraConfig;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// A pipeline of blocks with boundary links.
#[derive(Debug, Clone)]
pub struct BlockChain {
    /// The blocks, in execution order. Any `carried_in_*` markings on
    /// blocks after the first are overwritten by the boundary threading.
    pub blocks: Vec<AllocationProblem>,
    /// `links[i]` connects block `i` to block `i + 1`: `(out, in)` pairs
    /// where `out` is live-out in block `i` and `in` is the same value in
    /// block `i + 1`. Must have `blocks.len() - 1` entries.
    pub links: Vec<Vec<(VarId, VarId)>>,
}

/// The result of allocating a [`BlockChain`].
#[derive(Debug, Clone)]
pub struct ChainAllocation {
    /// Per-block allocations, in execution order.
    pub allocations: Vec<Allocation>,
    /// Per-block exact reports (with boundary-aware accounting).
    pub reports: Vec<AllocationReport>,
    /// The boundary-threaded problems actually solved (blocks after the
    /// first carry the `carried_in_*` markings derived from their
    /// predecessor).
    pub problems: Vec<AllocationProblem>,
}

impl ChainAllocation {
    /// Total static energy over the whole chain.
    pub fn total_static_energy(&self) -> f64 {
        self.reports.iter().map(|r| r.static_energy).sum()
    }

    /// Total activity-model energy over the whole chain.
    pub fn total_activity_energy(&self) -> f64 {
        self.reports.iter().map(|r| r.activity_energy).sum()
    }

    /// Total memory accesses over the whole chain.
    pub fn total_mem_accesses(&self) -> u32 {
        self.reports
            .iter()
            .map(AllocationReport::mem_accesses)
            .sum()
    }
}

/// # Examples
///
/// ```
/// use lemra_core::{allocate_chain, AllocationProblem, BlockChain};
/// use lemra_ir::{LifetimeTable, VarId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let b0 = LifetimeTable::from_intervals(3, vec![(1, vec![2], true)])?;
/// let b1 = LifetimeTable::from_intervals(3, vec![(1, vec![3], false)])?;
/// let chain = BlockChain {
///     blocks: vec![AllocationProblem::new(b0, 2), AllocationProblem::new(b1, 2)],
///     links: vec![vec![(VarId(0), VarId(0))]],
/// };
/// let result = allocate_chain(&chain)?;
/// // The linked value rides a register across the boundary: no memory.
/// assert_eq!(result.total_mem_accesses(), 0);
/// # Ok(())
/// # }
/// ```
///
/// Allocates every block of `chain`, threading boundary placements.
///
/// # Errors
///
/// * [`CoreError::BadChain`] if the link lists do not match the block count
///   or reference variables that are not live-out / out of range.
/// * Any error of [`allocate`](crate::allocate) on an individual block.
pub fn allocate_chain(chain: &BlockChain) -> Result<ChainAllocation, CoreError> {
    allocate_chain_with(&mut PipelineCx::new(), chain)
}

/// [`allocate_chain`] with an explicit worker count, bypassing the
/// process-wide `LEMRA_THREADS` snapshot — one process can compare serial
/// and parallel walks directly (the determinism tests and the
/// `wholeprogram` driver do). `workers <= 1` is the serial walk.
///
/// # Errors
///
/// Same as [`allocate_chain`].
pub fn allocate_chain_threads(
    chain: &BlockChain,
    workers: usize,
) -> Result<ChainAllocation, CoreError> {
    allocate_chain_on(&mut PipelineCx::new(), chain, workers.max(1))
}

/// [`allocate_chain`] composed onto an existing [`PipelineCx`] (shared
/// backend, cumulative per-stage counters across all blocks), with the
/// worker count from [`LemraConfig`].
pub(crate) fn allocate_chain_with(
    cx: &mut PipelineCx,
    chain: &BlockChain,
) -> Result<ChainAllocation, CoreError> {
    let workers = LemraConfig::get().worker_count(chain.blocks.len());
    allocate_chain_on(cx, chain, workers)
}

fn validate_chain(chain: &BlockChain) -> Result<(), CoreError> {
    if chain.blocks.is_empty() {
        return Err(CoreError::BadChain {
            reason: "chain has no blocks".to_owned(),
        });
    }
    if chain.links.len() + 1 != chain.blocks.len() {
        return Err(CoreError::BadChain {
            reason: format!(
                "{} blocks need {} link lists, got {}",
                chain.blocks.len(),
                chain.blocks.len() - 1,
                chain.links.len()
            ),
        });
    }
    for (i, links) in chain.links.iter().enumerate() {
        for &(out, inv) in links {
            if out.index() >= chain.blocks[i].lifetimes.len() {
                return Err(CoreError::BadChain {
                    reason: format!("block {i}: out-variable {out} out of range"),
                });
            }
            if !chain.blocks[i].lifetimes.lifetime(out).live_out {
                return Err(CoreError::BadChain {
                    reason: format!("block {i}: {out} is linked but not live-out"),
                });
            }
            if inv.index() >= chain.blocks[i + 1].lifetimes.len() {
                return Err(CoreError::BadChain {
                    reason: format!("block {}: in-variable {inv} out of range", i + 1),
                });
            }
        }
    }
    Ok(())
}

/// Block `i`'s problem under the pilot boundary prediction: each linked
/// out-variable is assumed placed where the pilot (block 0) allocation
/// placed the same variable id, register-carried when the pilot does not
/// know it. Exact whenever the predecessor's boundary repeats the pilot's —
/// the steady state of a chain of identical tiles.
fn predicted_problem(chain: &BlockChain, i: usize, pilot: &Allocation) -> AllocationProblem {
    let pilot_vars = chain.blocks[0].lifetimes.len();
    let mut problem = chain.blocks[i].clone();
    if i > 0 {
        problem.carried_in_memory.clear();
        problem.carried_in_register.clear();
        for &(out, inv) in &chain.links[i - 1] {
            let registered = out.index() >= pilot_vars
                || matches!(last_placement(pilot, out), Placement::Register(_));
            if registered {
                problem.carried_in_register.push(inv);
            } else {
                problem.carried_in_memory.push(inv);
            }
        }
    }
    problem
}

fn allocate_chain_on(
    cx: &mut PipelineCx,
    chain: &BlockChain,
    workers: usize,
) -> Result<ChainAllocation, CoreError> {
    validate_chain(chain)?;
    let n = chain.blocks.len();

    // Phase A — speculative parallel pipeline. Workers pull blocks off a
    // shared index and run the full pipeline against the predicted
    // boundary; results come home over a channel. A worker that fails on a
    // block (a prediction can even be infeasible when the real boundary is
    // not) simply yields no speculative result — the commit pass below
    // re-solves such blocks against the actual boundary, where a real
    // error surfaces with the serial walk's semantics.
    let mut speculative: Vec<Option<Allocation>> = (0..n).map(|_| None).collect();
    let predicted: Vec<AllocationProblem> = if workers > 1 && n > 1 {
        // The pilot: block 0 has no incoming links, so its problem is
        // exact and this solve is the serial walk's first solve verbatim.
        // Every later boundary is predicted off the pilot's placements.
        let pilot_problem = chain.blocks[0].clone();
        let pilot = cx.allocate(&pilot_problem)?;
        let predicted: Vec<AllocationProblem> = (0..n)
            .map(|i| {
                if i == 0 {
                    pilot_problem.clone()
                } else {
                    predicted_problem(chain, i, &pilot)
                }
            })
            .collect();
        speculative[0] = Some(pilot);
        let next = AtomicUsize::new(1);
        let (tx, rx) = mpsc::channel::<(usize, Allocation)>();
        std::thread::scope(|scope| {
            for _ in 0..workers.min(n) {
                let tx = tx.clone();
                let next = &next;
                let predicted = &predicted;
                let mut worker_cx = cx.fork();
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= predicted.len() {
                        break;
                    }
                    // Warm per worker: structurally identical blocks
                    // re-price one retained network and repair the previous
                    // optimum — byte-identical to a cold solve by the
                    // unique-optimum tie-break.
                    if let Ok(allocation) = worker_cx.allocate_warm(&predicted[i]) {
                        if tx.send((i, allocation)).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            for (i, allocation) in rx {
                speculative[i] = Some(allocation);
            }
        });
        predicted
    } else {
        Vec::new()
    };

    // Phase B — sequential commit. Thread the actual boundary through the
    // chain; adopt a speculative allocation only when its predicted problem
    // equals the actual one (then the unique optimum makes the bytes equal
    // too), otherwise re-solve inline on the joining context.
    let mut allocations: Vec<Allocation> = Vec::with_capacity(n);
    let mut reports = Vec::with_capacity(n);
    let mut problems = Vec::with_capacity(n);
    for (i, block) in chain.blocks.iter().enumerate() {
        let mut problem = block.clone();
        if i > 0 {
            problem.carried_in_memory.clear();
            problem.carried_in_register.clear();
            let prev: &Allocation = &allocations[i - 1];
            for &(out, inv) in &chain.links[i - 1] {
                match last_placement(prev, out) {
                    Placement::Register(_) => problem.carried_in_register.push(inv),
                    Placement::Memory => problem.carried_in_memory.push(inv),
                }
            }
        }
        let adopted = speculative.get_mut(i).and_then(Option::take).filter(|_| {
            let p = &predicted[i];
            p.carried_in_register == problem.carried_in_register
                && p.carried_in_memory == problem.carried_in_memory
        });
        let allocation = match adopted {
            Some(speculated) => speculated,
            None => cx.allocate(&problem)?,
        };
        reports.push(AllocationReport::new(&problem, &allocation));
        allocations.push(allocation);
        problems.push(problem);
    }
    Ok(ChainAllocation {
        allocations,
        reports,
        problems,
    })
}

/// A whole-program result: the boundary-threaded chain allocation plus the
/// second-stage memory re-allocation of every block — the deterministic
/// chain-flow join the parallel pipeline feeds into.
#[derive(Debug, Clone)]
pub struct ProgramAllocation {
    /// The per-block allocations with boundary threading.
    pub chain: ChainAllocation,
    /// Per-block second-stage memory re-allocations (address assignment
    /// minimising address-line switching), in execution order.
    pub realloc: Vec<MemoryReallocation>,
}

impl ProgramAllocation {
    /// Total post-reallocation address-line switching over the program.
    pub fn total_switching(&self) -> f64 {
        self.realloc.iter().map(|r| r.switching).sum()
    }
}

/// Allocates a whole program: [`allocate_chain`] over every block (parallel
/// when `LEMRA_THREADS > 1`), then the second-stage memory re-allocation
/// ([`reallocate_memory`](crate::reallocate_memory)) of each block on the
/// joining context — the serial chain-flow stage that commits the final,
/// thread-count-independent result.
///
/// # Errors
///
/// Same as [`allocate_chain`] and
/// [`reallocate_memory`](crate::reallocate_memory).
pub fn allocate_program(chain: &BlockChain) -> Result<ProgramAllocation, CoreError> {
    allocate_program_on(&mut PipelineCx::new(), chain, None)
}

/// [`allocate_program`] with an explicit Phase-A worker count (see
/// [`allocate_chain_threads`]).
///
/// # Errors
///
/// Same as [`allocate_program`].
pub fn allocate_program_threads(
    chain: &BlockChain,
    workers: usize,
) -> Result<ProgramAllocation, CoreError> {
    allocate_program_on(&mut PipelineCx::new(), chain, Some(workers.max(1)))
}

/// [`allocate_program`] composed onto an existing [`PipelineCx`]: the
/// allocation server runs each request on its worker's forked context so
/// per-request solve budgets and incident counters apply, and the
/// context's backend settings carry across requests.
///
/// # Errors
///
/// Same as [`allocate_program`].
pub fn allocate_program_with(
    cx: &mut PipelineCx,
    chain: &BlockChain,
    workers: usize,
) -> Result<ProgramAllocation, CoreError> {
    allocate_program_on(cx, chain, Some(workers.max(1)))
}

fn allocate_program_on(
    cx: &mut PipelineCx,
    chain: &BlockChain,
    workers: Option<usize>,
) -> Result<ProgramAllocation, CoreError> {
    let workers = workers.unwrap_or_else(|| LemraConfig::get().worker_count(chain.blocks.len()));
    let chain_allocation = allocate_chain_on(cx, chain, workers)?;
    let realloc = chain_allocation
        .problems
        .iter()
        .zip(&chain_allocation.allocations)
        .map(|(problem, allocation)| reallocate_memory_with(cx, problem, allocation))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ProgramAllocation {
        chain: chain_allocation,
        realloc,
    })
}

/// Placement of `var`'s last segment — where the value sits when the block
/// ends.
fn last_placement(allocation: &Allocation, var: VarId) -> Placement {
    let seg = allocation.segmentation();
    let count = seg.segments_of(var).len();
    allocation.placement(seg.id_of(var, count - 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lemra_ir::LifetimeTable;

    /// Block 0: two variables, `a` live-out. Block 1: consumes `a` (as its
    /// variable 0) plus one local.
    fn two_block_chain(registers: u32) -> BlockChain {
        let b0 = LifetimeTable::from_intervals(4, vec![(1, vec![3], true), (2, vec![4], false)])
            .unwrap();
        let b1 =
            LifetimeTable::from_intervals(4, vec![(1, vec![2, 4], false), (2, vec![3], false)])
                .unwrap();
        BlockChain {
            blocks: vec![
                AllocationProblem::new(b0, registers),
                AllocationProblem::new(b1, registers),
            ],
            links: vec![vec![(VarId(0), VarId(0))]],
        }
    }

    #[test]
    fn register_carry_is_free() {
        let chain = two_block_chain(4);
        let r = allocate_chain(&chain).unwrap();
        // Plenty of registers: `a` stays registered through the boundary.
        assert!(r.problems[1].carried_in_register.contains(&VarId(0)));
        // The carried value enters block 1's register file without a write.
        assert_eq!(r.total_mem_accesses(), 0);
        let block1 = &r.reports[1];
        // Block 1: only its local variable writes a register; `a` is free.
        assert_eq!(block1.reg_writes, 1);
    }

    #[test]
    fn memory_carry_costs_a_fetch_not_a_write() {
        let mut chain = two_block_chain(4);
        chain.blocks[0].registers = 0; // block 0 spills everything
        let r = allocate_chain(&chain).unwrap();
        assert!(r.problems[1].carried_in_memory.contains(&VarId(0)));
        // Block 0: 2 writes + 2 reads... `a` is live-out so its external
        // read belongs to block 1 now? No — the link replaces the external
        // read: block 0 still accounts the live-out read per its own table.
        let b1 = &r.reports[1];
        // Block 1 registers `a` (registers are free): one fetch, no write.
        assert!(b1.mem_reads >= 1);
        assert_eq!(b1.mem_writes, 0);
    }

    #[test]
    fn chain_totals_sum_blocks() {
        let chain = two_block_chain(1);
        let r = allocate_chain(&chain).unwrap();
        let total: f64 = r.reports.iter().map(|x| x.static_energy).sum();
        assert!((r.total_static_energy() - total).abs() < 1e-12);
        assert_eq!(r.allocations.len(), 2);
    }

    #[test]
    fn bad_chains_are_rejected() {
        let mut chain = two_block_chain(2);
        chain.links[0][0].0 = VarId(1); // not live-out
        assert!(matches!(
            allocate_chain(&chain),
            Err(CoreError::BadChain { .. })
        ));
        let mut chain = two_block_chain(2);
        chain.links.push(Vec::new());
        assert!(matches!(
            allocate_chain(&chain),
            Err(CoreError::BadChain { .. })
        ));
        let chain = BlockChain {
            blocks: Vec::new(),
            links: Vec::new(),
        };
        assert!(matches!(
            allocate_chain(&chain),
            Err(CoreError::BadChain { .. })
        ));
    }

    /// `n` blocks, each four variables over eight ticks, variable 3
    /// live-out and linked to variable 0 of the next block. Alternating
    /// register budgets so some boundaries carry in memory — the parallel
    /// walk's misprediction/re-solve path gets exercised, not just the
    /// all-registered fast path.
    fn long_chain(n: usize) -> BlockChain {
        let blocks: Vec<AllocationProblem> = (0..n)
            .map(|i| {
                let table = LifetimeTable::from_intervals(
                    8,
                    vec![
                        (1, vec![2, 7], false),
                        (2, vec![4], false),
                        (3, vec![5, 6], false),
                        (4, vec![7], true),
                    ],
                )
                .unwrap();
                let registers = if i % 3 == 2 { 1 } else { 3 };
                AllocationProblem::new(table, registers)
            })
            .collect();
        let links = (0..n - 1).map(|_| vec![(VarId(3), VarId(0))]).collect();
        BlockChain { blocks, links }
    }

    #[test]
    fn parallel_chain_is_byte_identical_to_serial() {
        let chain = long_chain(16);
        let serial = allocate_chain_threads(&chain, 1).unwrap();
        for workers in [2, 8] {
            let parallel = allocate_chain_threads(&chain, workers).unwrap();
            assert_eq!(serial.reports, parallel.reports, "workers={workers}");
            assert_eq!(
                format!("{:?}", serial.allocations),
                format!("{:?}", parallel.allocations),
                "workers={workers}"
            );
            assert_eq!(
                format!("{:?}", serial.problems),
                format!("{:?}", parallel.problems),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn chain_is_identical_across_backends_and_worker_counts() {
        use lemra_netflow::Backend;
        let chain = long_chain(16);
        let reference = allocate_chain_on(&mut PipelineCx::new(), &chain, 1).unwrap();
        for backend in Backend::ALL {
            for workers in [1usize, 2, 8] {
                let mut cx = PipelineCx::with_backend(backend);
                let got = allocate_chain_on(&mut cx, &chain, workers).unwrap();
                assert_eq!(
                    reference.reports, got.reports,
                    "{backend:?} workers={workers}"
                );
                assert_eq!(
                    format!("{:?}", reference.allocations),
                    format!("{:?}", got.allocations),
                    "{backend:?} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn program_allocation_reallocs_every_block() {
        let chain = long_chain(6);
        let serial = allocate_program_threads(&chain, 1).unwrap();
        let parallel = allocate_program_threads(&chain, 4).unwrap();
        assert_eq!(serial.realloc.len(), 6);
        assert_eq!(serial.chain.reports, parallel.chain.reports);
        assert_eq!(serial.realloc, parallel.realloc);
        assert!(serial.total_switching() >= 0.0);
    }

    #[test]
    fn boundary_coupling_saves_energy_vs_oblivious() {
        // Boundary-aware chain vs allocating block 1 as if `a` were locally
        // defined (which would wrongly credit a saved memory write).
        let chain = two_block_chain(2);
        let coupled = allocate_chain(&chain).unwrap();
        // With 2 registers everything fits; the coupled chain has zero
        // memory traffic.
        assert_eq!(coupled.total_mem_accesses(), 0);
    }
}
