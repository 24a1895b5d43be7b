//! The staged allocation pipeline.
//!
//! Every flow-backed computation in this crate is the same six steps:
//!
//! ```text
//! Segment → Profile → BuildNetwork → Solve → Bind → Validate
//! ```
//!
//! lifetimes are segmented (§5.2), the maximum-density regions are profiled
//! (§5.1/§7), the flow network is emitted, a min-cost flow of the target
//! value is solved, the flow is bound back to domain objects (register
//! chains, placements, addresses), and the result is structurally audited
//! (under the `validate` feature). [`PipelineCx`] runs those stages with one
//! owned context: the configured [`Backend`], the warm-start
//! [`Reoptimizer`] and its retained network for sweeps, and per-stage
//! timing/flow counters. The free functions ([`allocate`](crate::allocate),
//! [`assign_memory_tiers`](crate::assign_memory_tiers),
//! [`reallocate_memory`](crate::reallocate_memory),
//! [`allocate_chain`](crate::allocate_chain),
//! [`synthesize`](crate::synthesize)) are thin wrappers that run a fresh
//! context; [`SweepAllocator`](crate::SweepAllocator) is a context with a
//! retained Solve stage.
//!
//! Counters are collected only when [`LemraConfig::timings`] is set (the
//! `--timings` flag of the drivers): the default path takes zero `Instant`
//! reads per solve, keeping the hot benchmarks unperturbed. Timed contexts
//! flush into a process-wide registry on drop; [`pipeline_stats`] reads the
//! aggregate for reports.

use crate::allocator::{extract_allocation, flow_error, Allocation};
use crate::build::{build_with_regions, profile_regions, refresh, BuiltNetwork};
use crate::problem::{AllocationProblem, GraphStyle};
use crate::segment::{Segmentation, SplitOptions};
use crate::CoreError;
use lemra_energy::RegisterEnergyKind;
use lemra_ir::{Tick, TickRange, VarId};
use lemra_netflow::{
    thread_solver_stats, Backend, FlowNetwork, FlowSolution, LemraConfig, NetflowError, NodeId,
    Reoptimizer, ResilientSolver, SolveBudget, SolverIncident, SolverStats,
};
use std::sync::Mutex;
use std::time::Instant;

/// One stage of the allocation pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Lifetime segmentation (§5.2): split at multiple reads, restricted
    /// access times and manual cut points.
    Segment,
    /// Density profiling: the maximum-lifetime-density regions that gate
    /// hand-off arcs (§5.1/§7).
    Profile,
    /// Flow-network construction (§5.1), including re-pricing a retained
    /// network on warm sweep points.
    Build,
    /// Never recorded, so it always reads zero: no pipeline step computes a
    /// canonical form of the network. It exists only for the benchmark's
    /// per-layer `program.stage.canon_ms` column, which names every stage;
    /// drop it together with that column.
    Canon,
    /// The min-cost-flow solve itself.
    Solve,
    /// Binding the flow back to domain objects: path decomposition into
    /// chains, placements, left-edge addresses.
    Bind,
    /// Structural audit of the bound result (`validate` feature only;
    /// otherwise a no-op recorded at zero cost).
    Validate,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 7] = [
        Stage::Segment,
        Stage::Profile,
        Stage::Build,
        Stage::Canon,
        Stage::Solve,
        Stage::Bind,
        Stage::Validate,
    ];

    /// Stable lower-case stage name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Segment => "segment",
            Stage::Profile => "profile",
            Stage::Build => "build",
            Stage::Canon => "canon",
            Stage::Solve => "solve",
            Stage::Bind => "bind",
            Stage::Validate => "validate",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Accumulated wall time, run count and peak heap footprint of one stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTiming {
    /// Total nanoseconds spent in the stage.
    pub nanos: u64,
    /// Times the stage ran.
    pub runs: u64,
    /// Largest heap footprint (bytes, charged at buffer capacity) any one
    /// run of the stage retained — currently reported by the Build stage,
    /// whose counted two-pass construction makes capacity equal the exact
    /// result size. Zero for stages that don't report, and always zero when
    /// [`LemraConfig::timings`] is off.
    pub bytes: u64,
}

impl StageTiming {
    const ZERO: StageTiming = StageTiming {
        nanos: 0,
        runs: 0,
        bytes: 0,
    };
}

/// Per-stage timings plus solver counters of one pipeline context (or, via
/// [`pipeline_stats`], of every timed context the process has dropped).
///
/// Populated only when [`LemraConfig::timings`] is on; otherwise every field
/// stays zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    stages: [StageTiming; 7],
    /// Dijkstra rounds run and flow units pushed by the SSP-family solvers.
    pub solver: SolverStats,
    /// Solves answered from the reoptimizer's retained residual state.
    pub warm_solves: u64,
    /// Solves that (re)built solver state from scratch — cold pipeline
    /// solves and reoptimizer rebuilds alike.
    pub cold_solves: u64,
}

impl PipelineStats {
    const ZERO: PipelineStats = PipelineStats {
        stages: [StageTiming::ZERO; 7],
        solver: SolverStats {
            dijkstra_rounds: 0,
            pushed_units: 0,
            incidents: 0,
        },
        warm_solves: 0,
        cold_solves: 0,
    };

    /// Timing of one stage.
    pub fn stage(&self, stage: Stage) -> StageTiming {
        self.stages[stage.index()]
    }

    /// Total wall time across all stages, in nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.stages.iter().map(|s| s.nanos).sum()
    }

    fn merge(&mut self, other: &PipelineStats) {
        for (mine, theirs) in self.stages.iter_mut().zip(&other.stages) {
            mine.nanos += theirs.nanos;
            mine.runs += theirs.runs;
            // Peak, not sum: the merged figure answers "how big did any one
            // build get", the same question a single context's counter does.
            mine.bytes = mine.bytes.max(theirs.bytes);
        }
        self.solver = self.solver + other.solver;
        self.warm_solves += other.warm_solves;
        self.cold_solves += other.cold_solves;
    }
}

static GLOBAL_STATS: Mutex<PipelineStats> = Mutex::new(PipelineStats::ZERO);

/// The process-wide aggregate of every dropped timed [`PipelineCx`] — what
/// the drivers print behind their `--timings` flag. All zeros unless
/// [`LemraConfig::timings`] was set before the work ran.
pub fn pipeline_stats() -> PipelineStats {
    *GLOBAL_STATS.lock().expect("stats registry poisoned")
}

/// The retained network of a warm pipeline plus the problem fields it is
/// valid for. Only *topology-affecting* fields participate in the match:
/// lifetimes and split determine the segmentation, style and relief arcs
/// select the arc set, and register-carried variables gate their first
/// segments' hand-offs and source hooks. Registers, energies and activity
/// only move costs and the bypass capacity, which [`refresh`] re-prices.
#[derive(Debug)]
struct RetainedNetwork {
    lifetimes: lemra_ir::LifetimeTable,
    split: SplitOptions,
    style: GraphStyle,
    relief_arcs: bool,
    carried_in_register: Vec<VarId>,
    segmentation: Segmentation,
    built: BuiltNetwork,
}

impl RetainedNetwork {
    fn covers(&self, problem: &AllocationProblem) -> bool {
        self.lifetimes == problem.lifetimes
            && self.split == problem.split
            && self.style == problem.style
            && self.relief_arcs == problem.relief_arcs
            && self.carried_in_register == problem.carried_in_register
    }
}

/// One run of the staged allocation pipeline: owns the backend choice, the
/// warm-start state and the per-stage counters.
///
/// A fresh context is cheap (no allocation until a stage runs); the plain
/// entry points create one per call. Hold a context across calls to get
/// warm-start reuse ([`PipelineCx::allocate_warm`]) and cumulative stats.
///
/// # Examples
///
/// ```
/// use lemra_core::{AllocationProblem, PipelineCx};
/// use lemra_ir::LifetimeTable;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lifetimes =
///     LifetimeTable::from_intervals(5, vec![(1, vec![3], false), (3, vec![5], false)])?;
/// let mut cx = PipelineCx::new();
/// let allocation = cx.allocate(&AllocationProblem::new(lifetimes, 1))?;
/// assert_eq!(allocation.registers_used(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PipelineCx {
    backend: Backend,
    force_cold: bool,
    timings_on: bool,
    reopt: Reoptimizer,
    resilient: ResilientSolver,
    /// `(cost_scale, cost_unit, raw memory-read energy, raw register
    /// energy)` of the previous warm point: when the tie-break encoding or
    /// an operating point shifts between points, the reoptimizer's retained
    /// potentials are rescaled per arc class so they track the new costs'
    /// magnitudes instead of certifying last point's. Memory and register
    /// terms derate independently (distinct supply voltages), hence the two
    /// energy entries.
    prev_basis: Option<(i64, i64, i64, i64)>,
    /// The network [`Self::allocate_warm`] re-prices between sweep points.
    retained: Option<RetainedNetwork>,
    stats: PipelineStats,
}

impl Default for PipelineCx {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for PipelineCx {
    fn drop(&mut self) {
        if self.timings_on && self.stats != PipelineStats::ZERO {
            GLOBAL_STATS
                .lock()
                .expect("stats registry poisoned")
                .merge(&self.stats);
        }
    }
}

impl PipelineCx {
    /// A context configured from the process-wide [`LemraConfig`] snapshot
    /// (backend, cold-sweep override, timings).
    pub fn new() -> Self {
        let cfg = LemraConfig::get();
        Self::configured(cfg.backend, cfg.cold, cfg.timings)
    }

    /// A context with an explicit backend; everything else from
    /// [`LemraConfig`].
    pub fn with_backend(backend: Backend) -> Self {
        let cfg = LemraConfig::get();
        Self::configured(backend, cfg.cold, cfg.timings)
    }

    fn configured(backend: Backend, force_cold: bool, timings_on: bool) -> Self {
        Self {
            backend,
            force_cold,
            timings_on,
            reopt: Reoptimizer::new(),
            resilient: ResilientSolver::new(backend),
            prev_basis: None,
            retained: None,
            stats: PipelineStats::ZERO,
        }
    }

    /// The backend this context solves with.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// A fresh context with this one's configuration (backend, cold
    /// override, timings) but none of its state — what the
    /// parallel block pipeline hands each worker thread, so speculative
    /// per-block solves run under exactly the settings the joining context
    /// would have used. The worker's counters flush to the process-wide
    /// registry when it drops, like any other timed context. The
    /// allocation server forks one context per worker thread the same way
    /// (and re-forks after containing a panicked request).
    pub fn fork(&self) -> Self {
        Self::configured(self.backend, self.force_cold, self.timings_on)
    }

    /// This context's accumulated stage timings and solver counters (all
    /// zero unless [`LemraConfig::timings`] is on).
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// Warm-start solves answered from retained residual state.
    pub fn warm_solves(&self) -> u64 {
        self.reopt.warm_solves()
    }

    /// Warm-path solves that had to (re)build solver state from scratch.
    pub fn cold_solves(&self) -> u64 {
        self.reopt.cold_solves()
    }

    /// Cumulative effort counters of the warm-start engine's retained
    /// workspace (unlike [`Self::stats`], live even without
    /// [`LemraConfig::timings`]), with this context's absorbed-incident
    /// count folded into [`SolverStats::incidents`]. Diff snapshots to
    /// scope them: the `pushed_units` delta across a run of warm points is
    /// the flow the repairs actually moved — drained excess plus cancelled
    /// cycles.
    pub fn solver_stats(&self) -> SolverStats {
        let mut stats = self.reopt.stats();
        stats.incidents += self.resilient.incident_count();
        stats
    }

    /// Every solver failure this context absorbed via its fallback chain,
    /// oldest first (live even without [`LemraConfig::timings`]).
    pub fn incidents(&self) -> &[SolverIncident] {
        self.resilient.incidents()
    }

    /// Number of solver failures absorbed via the fallback chain.
    pub fn incident_count(&self) -> u64 {
        self.resilient.incident_count()
    }

    /// Installs a [`SolveBudget`] applied to every subsequent solve attempt
    /// (each link of the fallback chain gets the full budget), returning
    /// the previous one.
    pub fn set_solve_budget(&mut self, budget: SolveBudget) -> SolveBudget {
        self.resilient.set_budget(budget)
    }

    fn clock(&self) -> Option<Instant> {
        self.timings_on.then(Instant::now)
    }

    fn record(&mut self, stage: Stage, started: Option<Instant>) {
        if let Some(t0) = started {
            let slot = &mut self.stats.stages[stage.index()];
            slot.nanos += t0.elapsed().as_nanos() as u64;
            slot.runs += 1;
        }
    }

    /// Folds one run's retained heap footprint into the stage's peak-bytes
    /// counter. Free when timings are off: callers compute `bytes` from
    /// buffer capacities (no allocator interrogation), and the max-fold is
    /// skipped entirely.
    fn record_bytes(&mut self, stage: Stage, bytes: usize) {
        if self.timings_on {
            let slot = &mut self.stats.stages[stage.index()];
            slot.bytes = slot.bytes.max(bytes as u64);
        }
    }

    // ---- the individual stages -------------------------------------------

    /// Segment stage: lifetime segmentation per §5.2.
    pub(crate) fn segment(&mut self, problem: &AllocationProblem) -> Segmentation {
        let t0 = self.clock();
        let segmentation = Segmentation::new(&problem.lifetimes, &problem.split);
        self.record(Stage::Segment, t0);
        segmentation
    }

    /// Profile stage: maximum-density regions for the hand-off rule.
    pub(crate) fn profile(
        &mut self,
        problem: &AllocationProblem,
        segmentation: &Segmentation,
    ) -> Vec<TickRange> {
        let t0 = self.clock();
        let regions = profile_regions(problem, segmentation);
        self.record(Stage::Profile, t0);
        regions
    }

    /// BuildNetwork stage: emit the §5.1 network.
    pub(crate) fn build(
        &mut self,
        problem: &AllocationProblem,
        segmentation: &Segmentation,
        regions: &[TickRange],
    ) -> Result<BuiltNetwork, CoreError> {
        let t0 = self.clock();
        let built = build_with_regions(problem, segmentation, regions);
        self.record(Stage::Build, t0);
        if let Ok(b) = &built {
            self.record_bytes(Stage::Build, b.heap_bytes());
        }
        built
    }

    /// Solve stage, cold: route exactly `target` units `s → t` through the
    /// configured backend's fallback chain, on the calling thread's shared
    /// workspace.
    pub(crate) fn solve(
        &mut self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
    ) -> Result<FlowSolution, NetflowError> {
        let t0 = self.clock();
        let before = self
            .timings_on
            .then(|| (thread_solver_stats(), self.resilient.incident_count()));
        let solution = self.resilient.solve(net, s, t, target);
        if let Some((stats, incidents)) = before {
            self.stats.solver = self.stats.solver + (thread_solver_stats() - stats);
            self.stats.solver.incidents += self.resilient.incident_count() - incidents;
            self.stats.cold_solves += 1;
        }
        self.record(Stage::Solve, t0);
        solution
    }

    /// Validate stage: structural audit under the `validate` feature; a
    /// no-op otherwise.
    #[cfg_attr(not(feature = "validate"), allow(unused_variables))]
    pub(crate) fn validate(
        &mut self,
        problem: &AllocationProblem,
        allocation: &Allocation,
    ) -> Result<(), CoreError> {
        #[cfg(feature = "validate")]
        {
            let t0 = self.clock();
            crate::validate(problem, allocation)?;
            self.record(Stage::Validate, t0);
        }
        Ok(())
    }

    // ---- composed runs ---------------------------------------------------

    /// Runs the full cold pipeline for one problem — exactly what the free
    /// [`allocate`](crate::allocate) does, with this context's backend and
    /// counters.
    ///
    /// # Errors
    ///
    /// Same as [`allocate`](crate::allocate).
    pub fn allocate(&mut self, problem: &AllocationProblem) -> Result<Allocation, CoreError> {
        let segmentation = self.segment(problem);
        let regions = self.profile(problem, &segmentation);
        let built = self.build(problem, &segmentation, &regions)?;
        let solution = self
            .solve(&built.net, built.s, built.t, i64::from(problem.registers))
            .map_err(|e| flow_error(problem, e))?;
        let t0 = self.clock();
        let allocation = extract_allocation(problem, segmentation, &built, &solution)?;
        self.record(Stage::Bind, t0);
        self.validate(problem, &allocation)?;
        Ok(allocation)
    }

    /// Runs the pipeline with a **retained** Solve stage: successive calls
    /// over topology-identical problems re-price the retained network in
    /// place and repair the previous optimum instead of re-solving —
    /// [`SweepAllocator`](crate::SweepAllocator)'s engine. Points whose
    /// topology changes, and every point when [`LemraConfig::cold`] is set,
    /// silently fall back to the cold pipeline.
    ///
    /// # Errors
    ///
    /// Same as [`allocate`](crate::allocate).
    pub fn allocate_warm(&mut self, problem: &AllocationProblem) -> Result<Allocation, CoreError> {
        if self.force_cold {
            return self.allocate(problem);
        }
        // Re-price the retained network in place when the topology carries
        // over from the previous point; rebuild (and retain) otherwise.
        let covered = self.retained.as_ref().is_some_and(|r| r.covers(problem));
        if covered {
            let t0 = self.clock();
            let retained = self.retained.as_mut().expect("covered implies retained");
            refresh(problem, &retained.segmentation, &mut retained.built)?;
            let bytes = retained.built.heap_bytes();
            self.record(Stage::Build, t0);
            self.record_bytes(Stage::Build, bytes);
        } else {
            let segmentation = self.segment(problem);
            let regions = self.profile(problem, &segmentation);
            let built = self.build(problem, &segmentation, &regions)?;
            self.retained = Some(RetainedNetwork {
                lifetimes: problem.lifetimes.clone(),
                split: problem.split.clone(),
                style: problem.style,
                relief_arcs: problem.relief_arcs,
                carried_in_register: problem.carried_in_register.clone(),
                segmentation,
                built,
            });
        }

        let t0 = self.clock();
        let reopt_before = self.timings_on.then(|| {
            (
                self.reopt.stats(),
                self.reopt.warm_solves(),
                self.reopt.cold_solves(),
            )
        });
        let retained = self.retained.as_ref().expect("retained above");
        let built = &retained.built;
        let target = i64::from(problem.registers);
        // Solver-unit costs are raw energies times scale/unit. The raw
        // energies split by arc class: chain, sink, segment and bypass
        // costs are pure memory-access deltas that derate with the memory
        // voltage, while hand-off and source arcs also carry the register
        // (Hamming or static access) term, which follows the register
        // voltage instead. When any factor moves between points, hint the
        // reoptimizer with a per-class ratio so its retained potentials
        // jump with their local costs, keeping the repair incremental; the
        // repair absorbs whatever residue the class approximation leaves.
        let mem = problem.energy.e_mem_read().raw();
        let reg = match problem.register_energy {
            // Half the bits of the 16-bit word switch — the paper's own
            // time-zero assumption — as the representative overwrite.
            RegisterEnergyKind::Activity => problem.energy.e_reg_activity(8.0).raw(),
            RegisterEnergyKind::Static => {
                (problem.energy.e_reg_write() + problem.energy.e_reg_read()).raw()
            }
        };
        let basis = (built.cost_scale, built.cost_unit, mem, reg);
        if let Some((prev_scale, prev_unit, prev_mem, prev_reg)) = self.prev_basis.replace(basis) {
            if (prev_scale, prev_unit, prev_mem, prev_reg) != basis && prev_mem > 0 && mem > 0 {
                let base = (built.cost_scale as f64 * prev_unit as f64)
                    / (prev_scale as f64 * built.cost_unit as f64);
                let mem_ratio = base * mem as f64 / prev_mem as f64;
                let reg_ratio = if prev_reg > 0 && reg > 0 {
                    base * reg as f64 / prev_reg as f64
                } else {
                    mem_ratio
                };
                // Mixed-class arcs blend the two ratios by the energy
                // magnitudes behind each part: roughly two memory terms
                // (exit + enter) against one register term.
                let mixed = (2.0 * prev_mem as f64 * mem_ratio + prev_reg as f64 * reg_ratio)
                    / (2.0 * prev_mem as f64 + prev_reg as f64);
                let mut ratio = vec![mem_ratio; built.net.arc_count()];
                for &(arc, _, _) in &built.handoff_of {
                    ratio[arc.index()] = mixed;
                }
                for &(arc, _) in &built.source_of {
                    ratio[arc.index()] = mixed;
                }
                // The reoptimizer queries by *snapshot* arc index; after a
                // topology change its retained snapshot can be larger than
                // the current network (the solve below falls back cold),
                // so out-of-table arcs get an unusable entry rather than a
                // panic.
                self.reopt
                    .costs_rescaled_per_arc(|i| ratio.get(i).copied().unwrap_or(f64::NAN));
            }
        }
        let incidents_before = self.resilient.incident_count();
        let solution = self.resilient.solve_with_fallback(
            &mut self.reopt,
            &built.net,
            built.s,
            built.t,
            target,
        );
        if self.resilient.incident_count() > incidents_before {
            // The warm primary failed mid-solve (possibly mid-mutation
            // after a contained panic): drop its retained residual state
            // and the rescale basis so the next point rebuilds cleanly.
            // The returned solution, if any, came from a stateless fallback
            // backend and is unaffected.
            self.reopt.reset();
            self.prev_basis = None;
        }
        let solution = solution.map_err(|e| flow_error(problem, e))?;
        #[cfg(feature = "validate")]
        {
            let cold = self
                .backend
                .solve(&built.net, built.s, built.t, target)
                .map_err(|e| flow_error(problem, e))?;
            assert_eq!(
                solution.cost, cold.cost,
                "warm-start objective diverged from cold solve"
            );
            assert_eq!(solution.value, cold.value);
        }
        if let Some((stats, warm, cold)) = reopt_before {
            self.stats.solver = self.stats.solver + (self.reopt.stats() - stats);
            self.stats.solver.incidents += self.resilient.incident_count() - incidents_before;
            self.stats.warm_solves += self.reopt.warm_solves() - warm;
            self.stats.cold_solves += self.reopt.cold_solves() - cold;
        }
        self.record(Stage::Solve, t0);

        let t0 = self.clock();
        let retained = self.retained.as_ref().expect("retained above");
        let allocation = extract_allocation(
            problem,
            retained.segmentation.clone(),
            &retained.built,
            &solution,
        )?;
        self.record(Stage::Bind, t0);
        self.validate(problem, &allocation)?;
        Ok(allocation)
    }
}

// ---- the shared interval-chain flow --------------------------------------

/// A family of time-intervaled items to be chained through storage
/// locations by a min-cost flow — the shape shared by the off-chip tier
/// assignment ([`assign_memory_tiers`](crate::assign_memory_tiers)) and the
/// second-stage memory re-allocation
/// ([`reallocate_memory`](crate::reallocate_memory)): one `w → r` node pair
/// per item, hand-off arcs between temporally compatible items, a zero-cost
/// bypass, and a flow of exactly `capacity` units.
pub(crate) struct ChainFlowSpec<'a> {
    /// Residency interval per item; item `i` can hand its location to `j`
    /// iff `intervals[i].1 < intervals[j].0`.
    pub intervals: &'a [(Tick, Tick)],
    /// Cost on item `i`'s `w → r` arc (e.g. the negated on-chip saving).
    pub item_cost: &'a [i64],
    /// Cost of starting a chain at item `i` (the `s → w` hook-up).
    pub source_cost: &'a [i64],
    /// Cost of handing a location from item `i` to item `j`.
    pub handoff_cost: &'a dyn Fn(usize, usize) -> i64,
    /// When true, every item *must* be chained (unit lower bound on its
    /// arc); when false, the flow selects the profitable subset.
    pub required: bool,
    /// Locations available: the flow value and the bypass capacity.
    pub capacity: u32,
}

/// Chains extracted from a solved [`ChainFlowSpec`].
pub(crate) struct ChainFlowOutcome {
    /// Items per chain, in hand-off order; the chain index is the storage
    /// address. Items absent from every chain were left unselected.
    pub chains: Vec<Vec<usize>>,
}

/// Builds, solves and binds one interval-chain flow on `cx`.
pub(crate) fn solve_chain_flow(
    cx: &mut PipelineCx,
    spec: &ChainFlowSpec<'_>,
) -> Result<ChainFlowOutcome, CoreError> {
    let n = spec.intervals.len();
    debug_assert_eq!(spec.item_cost.len(), n);
    debug_assert_eq!(spec.source_cost.len(), n);

    let t0 = cx.clock();
    // Enumerate hand-off pairs up front: their count sets the tie-break
    // scale below.
    let mut pairs: Vec<(usize, usize, i64)> = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if i != j && spec.intervals[i].1 < spec.intervals[j].0 {
                pairs.push((i, j, (spec.handoff_cost)(i, j)));
            }
        }
    }
    // Equal-raw-cost optima must resolve the same way on every backend —
    // and toward maximal chaining (fewest storage locations), like the main
    // network's preferred-arc bias: scale raw costs by one more than the
    // total available hand-off bonus and discount each hand-off arc by one.
    // A one-quantum raw gap then still dominates any bonus sum. Skipped
    // (scale 1, no bias) if the scaled cost mass could overflow.
    let raw_mass = spec
        .item_cost
        .iter()
        .chain(spec.source_cost)
        .map(|c| c.abs())
        .chain(pairs.iter().map(|&(_, _, c)| c.abs()))
        .fold(0i64, i64::saturating_add);
    let candidate = pairs.len() as i64 + 1;
    let scale = match raw_mass.checked_mul(candidate) {
        Some(mass) if mass < i64::MAX / 8 => candidate,
        _ => 1,
    };
    let bias = i64::from(scale > 1);

    let mut net = FlowNetwork::new();
    let s = net.add_node();
    let t = net.add_node();
    let mut item_arc = Vec::with_capacity(n);
    let mut nodes = Vec::with_capacity(n);
    for i in 0..n {
        let w = net.add_node();
        let r = net.add_node();
        item_arc.push(net.add_arc_bounded(
            w,
            r,
            i64::from(spec.required),
            1,
            spec.item_cost[i] * scale,
        )?);
        net.add_arc(s, w, 1, spec.source_cost[i] * scale)?;
        net.add_arc(r, t, 1, 0)?;
        nodes.push((w, r));
    }
    let mut handoffs: Vec<(lemra_netflow::ArcId, usize, usize)> = Vec::new();
    for &(i, j, cost) in &pairs {
        let arc = net.add_arc(nodes[i].1, nodes[j].0, 1, cost * scale - bias)?;
        handoffs.push((arc, i, j));
    }
    net.add_arc(s, t, i64::from(spec.capacity), 0)?;
    // Hand-offs only join an interval to one that starts after it ends.
    debug_assert!(net.is_positive_capacity_dag(), "chain network has a cycle");
    cx.record(Stage::Build, t0);
    cx.record_bytes(Stage::Build, net.heap_bytes());

    let sol = cx
        .solve(&net, s, t, i64::from(spec.capacity))
        .map_err(|e| match e {
            NetflowError::Infeasible { required, achieved } => CoreError::TooFewRegisters {
                registers: spec.capacity,
                shortfall: required - achieved,
            },
            other => CoreError::Flow(other),
        })?;

    let t0 = cx.clock();
    let mut successor: Vec<Option<usize>> = vec![None; n];
    let mut has_pred = vec![false; n];
    for &(arc, i, j) in &handoffs {
        if sol.flow(arc) == 1 {
            successor[i] = Some(j);
            has_pred[j] = true;
        }
    }
    let selected: Vec<bool> = item_arc.iter().map(|&a| sol.flow(a) == 1).collect();
    let mut chains = Vec::new();
    for start in 0..n {
        if !selected[start] || has_pred[start] {
            continue;
        }
        let mut chain = Vec::new();
        let mut cur = Some(start);
        while let Some(i) = cur {
            debug_assert!(selected[i], "flow chains only visit selected items");
            chain.push(i);
            cur = successor[i];
        }
        chains.push(chain);
    }
    cx.record(Stage::Bind, t0);
    Ok(ChainFlowOutcome { chains })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lemra_ir::LifetimeTable;

    fn problem() -> AllocationProblem {
        let table =
            LifetimeTable::from_intervals(6, vec![(1, vec![3], false), (3, vec![6], false)])
                .unwrap();
        AllocationProblem::new(table, 1)
    }

    #[test]
    fn staged_run_matches_free_allocate() {
        let p = problem();
        let mut cx = PipelineCx::new();
        let staged = cx.allocate(&p).unwrap();
        let free = crate::allocate(&p).unwrap();
        assert_eq!(staged.placements(), free.placements());
        assert_eq!(staged.flow_cost(), free.flow_cost());
    }

    #[test]
    fn every_backend_allocates_identically() {
        // The tie-break transform makes the optimum unique, so both
        // algorithms must commit the same placements, not just the same
        // objective.
        let p = problem();
        let reference = crate::allocate(&p).unwrap();
        for backend in Backend::ALL {
            let mut cx = PipelineCx::with_backend(backend);
            assert_eq!(cx.backend(), backend);
            let a = cx.allocate(&p).unwrap();
            assert_eq!(a.placements(), reference.placements(), "{backend}");
            assert_eq!(a.chains(), reference.chains(), "{backend}");
            assert_eq!(a.flow_cost(), reference.flow_cost(), "{backend}");
        }
    }

    #[test]
    fn warm_context_matches_cold_across_points() {
        use lemra_energy::EnergyModel;
        let table =
            LifetimeTable::from_intervals(6, vec![(1, vec![3], false), (3, vec![6], false)])
                .unwrap();
        let mut cx = PipelineCx::new();
        for (volts, regs) in [(3.3, 1u32), (2.4, 1), (1.8, 2)] {
            let p = AllocationProblem::new(table.clone(), regs)
                .with_energy(EnergyModel::default_16bit().with_memory_voltage(volts));
            let warm = cx.allocate_warm(&p).unwrap();
            let cold = crate::allocate(&p).unwrap();
            assert_eq!(warm.placements(), cold.placements());
            assert_eq!(warm.flow_cost(), cold.flow_cost());
        }
        assert!(cx.warm_solves() >= 1);
    }

    #[test]
    fn stats_stay_zero_without_timings() {
        // The default config has timings off: no Instant reads, no counter
        // traffic, nothing flushed to the registry.
        let p = problem();
        let mut cx = PipelineCx::new();
        cx.allocate(&p).unwrap();
        assert_eq!(cx.stats(), PipelineStats::ZERO);
        assert_eq!(cx.stats().stage(Stage::Solve).runs, 0);
    }

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            ["segment", "profile", "build", "canon", "solve", "bind", "validate"]
        );
        assert_eq!(Stage::Solve.to_string(), "solve");
    }

    #[test]
    fn chain_flow_chains_compatible_items() {
        // Three items: 0 ends before 2 starts, 1 overlaps both ends.
        let intervals = [(Tick(1), Tick(3)), (Tick(2), Tick(6)), (Tick(4), Tick(7))];
        let zero = [0i64; 3];
        let outcome = solve_chain_flow(
            &mut PipelineCx::new(),
            &ChainFlowSpec {
                intervals: &intervals,
                item_cost: &[-10, -10, -10], // everything profitable
                source_cost: &zero,
                handoff_cost: &|_, _| 0,
                required: false,
                capacity: 2,
            },
        )
        .unwrap();
        assert_eq!(outcome.chains.len(), 2);
        let mut items: Vec<usize> = outcome.chains.iter().flatten().copied().collect();
        items.sort_unstable();
        assert_eq!(items, [0, 1, 2]);
        // 0 → 2 share a location; 1 rides alone.
        assert!(outcome.chains.iter().any(|c| c == &[0, 2]));
    }
}
