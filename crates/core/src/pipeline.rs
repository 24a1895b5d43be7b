//! The staged allocation pipeline.
//!
//! Every flow-backed computation in this crate is the same seven steps:
//!
//! ```text
//! Segment → Profile → BuildNetwork → Canon → Solve → Bind → Validate
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
    canonicalize, thread_solver_stats, Backend, CacheMode, CacheStamp, CanonicalInstance,
    FlowNetwork, FlowSolution, LemraConfig, NetflowError, NodeId, Reoptimizer, ResilientSolver,
    SolveBudget, SolverIncident, SolverStats,
};
use std::sync::{Arc, Mutex};
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
    /// Canonicalization of the built instance (content fingerprints +
    /// cross-request cache lookups); skipped (zero-cost) when
    /// [`LemraConfig::cache`] is off.
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
    cache: Option<RetainedNetwork>,
    stats: PipelineStats,
    /// Cross-request cache mode this context runs under (a snapshot of
    /// [`LemraConfig::cache`] unless a constructor overrode it).
    cache_mode: CacheMode,
    /// Structural class of the retained-network sweep state, set by
    /// [`Self::allocate_warm`]: the key under which [`Drop`] donates this
    /// context's reoptimizer back to the process-wide cache.
    warm_class: Option<lemra_netflow::Fingerprint>,
    /// Whether `reopt` holds state adopted from the cache that has not yet
    /// answered a solve (the first post-adoption warm solve is the one
    /// counted as a cross-request warm hit).
    adopted_pending: bool,
    /// Solves this context answered by exact-hit replay (live counter).
    exact_hits: u64,
    /// Solves this context answered by adopted warm state (live counter).
    warm_hits: u64,
}

impl Default for PipelineCx {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for PipelineCx {
    fn drop(&mut self) {
        // Sweep state outlives the context: donate the reoptimizer to its
        // structural class so the next sweep over the same topology starts
        // warm. The adopter's own snapshot diff re-verifies compatibility.
        if self.cache_mode == CacheMode::Warm && !self.force_cold && self.reopt.is_warm() {
            if let Some(class) = self.warm_class {
                crate::cache::donate_warm(class, std::mem::take(&mut self.reopt));
            }
        }
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
        Self::configured(cfg.backend, cfg.cold, cfg.timings, cfg.cache)
    }

    /// A context with an explicit backend; everything else from
    /// [`LemraConfig`].
    pub fn with_backend(backend: Backend) -> Self {
        let cfg = LemraConfig::get();
        Self::configured(backend, cfg.cold, cfg.timings, cfg.cache)
    }

    /// A context with an explicit cross-request cache mode; everything else
    /// from [`LemraConfig`]. Tests use this to exercise the cache without
    /// mutating the process-wide config snapshot.
    pub fn with_cache_mode(mode: CacheMode) -> Self {
        let cfg = LemraConfig::get();
        Self::configured(cfg.backend, cfg.cold, cfg.timings, mode)
    }

    /// A context with both an explicit backend and cache mode.
    pub fn with_backend_cache(backend: Backend, mode: CacheMode) -> Self {
        let cfg = LemraConfig::get();
        Self::configured(backend, cfg.cold, cfg.timings, mode)
    }

    fn configured(
        backend: Backend,
        force_cold: bool,
        timings_on: bool,
        cache_mode: CacheMode,
    ) -> Self {
        Self {
            backend,
            force_cold,
            timings_on,
            reopt: Reoptimizer::new(),
            resilient: ResilientSolver::new(backend),
            prev_basis: None,
            cache: None,
            stats: PipelineStats::ZERO,
            cache_mode,
            warm_class: None,
            adopted_pending: false,
            exact_hits: 0,
            warm_hits: 0,
        }
    }

    /// The backend this context solves with.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// A fresh context with this one's configuration (backend, cold
    /// override, timings, cache mode) but none of its state — what the
    /// parallel block pipeline hands each worker thread, so speculative
    /// per-block solves run under exactly the settings the joining context
    /// would have used. The worker's counters flush to the process-wide
    /// registry when it drops, like any other timed context. The
    /// allocation server forks one context per worker thread the same way
    /// (and re-forks after containing a panicked request).
    pub fn fork(&self) -> Self {
        Self::configured(
            self.backend,
            self.force_cold,
            self.timings_on,
            self.cache_mode,
        )
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

    /// Solves this context answered by replaying a cached solution from an
    /// exact fingerprint hit (live even without [`LemraConfig::timings`]).
    pub fn cache_exact_hits(&self) -> u64 {
        self.exact_hits
    }

    /// Solves this context answered by warm-repairing reoptimizer state
    /// adopted from the process-wide cache (live even without
    /// [`LemraConfig::timings`]).
    pub fn cache_warm_hits(&self) -> u64 {
        self.warm_hits
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
        s: lemra_netflow::NodeId,
        t: lemra_netflow::NodeId,
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

    /// Canon stage: canonicalize the built instance for the cross-request
    /// cache. `None` (and zero recorded cost) when caching is off or the
    /// cold override is set — the default path is byte-identical to the
    /// pre-cache pipeline by construction.
    ///
    /// The result is memoized under the network's identity [`CacheStamp`]:
    /// re-solving the same unmutated network object (repeated requests over
    /// a shared built instance, the redundant-traffic shape) skips the
    /// `O(E log E)` canonicalization entirely. Any mutation bumps the
    /// network's version, so a stale memo entry can never be returned.
    fn canon_stage(
        &mut self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
    ) -> Option<Arc<CanonicalInstance>> {
        if self.cache_mode == CacheMode::Off || self.force_cold {
            return None;
        }
        let t0 = self.clock();
        let stamp = CacheStamp::of(net, s, t);
        let canon = crate::cache::lookup_canon(stamp, target).unwrap_or_else(|| {
            let canon = Arc::new(canonicalize(net, s, t, target));
            crate::cache::insert_canon(stamp, target, Arc::clone(&canon));
            canon
        });
        self.record(Stage::Canon, t0);
        Some(canon)
    }

    /// Solve stage with the cross-request cache in front: exact hits replay
    /// the cached optimum, warm mode additionally adopts (and returns)
    /// per-class reoptimizer state, misses fall through to [`Self::solve`]
    /// and populate the cache. The context's own sweep reoptimizer is never
    /// touched — adoption here runs through a checked-out instance, so
    /// [`Self::allocate_warm`]'s intra-sweep state cannot be clobbered by
    /// an unrelated chain-flow or block solve.
    ///
    /// Public so callers holding a raw built network (the benches, external
    /// drivers composing their own Build stage) can route a solve through
    /// the same cache front the composed runs use.
    ///
    /// # Errors
    ///
    /// Same as a cold solve through the configured backend's fallback
    /// chain: infeasibility, invalid endpoints, budget exhaustion.
    pub fn cached_solve(
        &mut self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
    ) -> Result<FlowSolution, NetflowError> {
        let Some(canon) = self.canon_stage(net, s, t, target) else {
            return self.solve(net, s, t, target);
        };
        if let Some((flows, value)) = crate::cache::lookup_exact(canon.fingerprint) {
            if let Some(sol) = replay_exact(net, s, t, &canon, &flows, value) {
                self.exact_hits += 1;
                crate::cache::note_exact_hit();
                return Ok(sol);
            }
        }
        let solution = if self.cache_mode == CacheMode::Warm {
            let mut reopt = crate::cache::adopt_warm(canon.class).unwrap_or_default();
            let adopted = reopt.is_warm();
            let warm_before = reopt.warm_solves();
            let t0 = self.clock();
            let before = self
                .timings_on
                .then(|| (reopt.stats(), reopt.warm_solves(), reopt.cold_solves()));
            let incidents_before = self.resilient.incident_count();
            #[cfg(feature = "fault-inject")]
            let result = {
                let mut primary = InjectOnAdopted {
                    inner: &mut reopt,
                    armed: adopted,
                };
                self.resilient
                    .solve_with_fallback(&mut primary, net, s, t, target)
            };
            #[cfg(not(feature = "fault-inject"))]
            let result = self
                .resilient
                .solve_with_fallback(&mut reopt, net, s, t, target);
            if self.resilient.incident_count() > incidents_before {
                // The (possibly adopted) warm primary failed mid-solve:
                // its residual may be mid-mutation, so drop the state
                // rather than donate it. The returned solution, if any,
                // came from a stateless fallback backend.
                reopt.reset();
            }
            if let Some((stats, warm, cold)) = before {
                self.stats.solver = self.stats.solver + (reopt.stats() - stats);
                self.stats.solver.incidents += self.resilient.incident_count() - incidents_before;
                self.stats.warm_solves += reopt.warm_solves() - warm;
                self.stats.cold_solves += reopt.cold_solves() - cold;
            }
            if adopted && reopt.warm_solves() > warm_before {
                self.warm_hits += 1;
                crate::cache::note_warm_hit();
            } else {
                crate::cache::note_miss();
            }
            crate::cache::donate_warm(canon.class, reopt);
            self.record(Stage::Solve, t0);
            result?
        } else {
            crate::cache::note_miss();
            self.solve(net, s, t, target)?
        };
        crate::cache::insert_exact(
            canon.fingerprint,
            canon.to_canonical_order(&solution.flows),
            solution.value,
        );
        Ok(solution)
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
            .cached_solve(&built.net, built.s, built.t, i64::from(problem.registers))
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
        // over from the previous point; rebuild (and recache) otherwise.
        let covered = self.cache.as_ref().is_some_and(|c| c.covers(problem));
        if covered {
            let t0 = self.clock();
            let cache = self.cache.as_mut().expect("covered implies cached");
            refresh(problem, &cache.segmentation, &mut cache.built)?;
            let bytes = cache.built.heap_bytes();
            self.record(Stage::Build, t0);
            self.record_bytes(Stage::Build, bytes);
        } else {
            let segmentation = self.segment(problem);
            let regions = self.profile(problem, &segmentation);
            let built = self.build(problem, &segmentation, &regions)?;
            self.cache = Some(RetainedNetwork {
                lifetimes: problem.lifetimes.clone(),
                split: problem.split.clone(),
                style: problem.style,
                relief_arcs: problem.relief_arcs,
                carried_in_register: problem.carried_in_register.clone(),
                segmentation,
                built,
            });
        }

        let canon = {
            // Detach the retained network for the stage call: `canon_stage`
            // needs `&mut self` for its clock while borrowing the net.
            let retained = self.cache.take().expect("cache populated above");
            let built = &retained.built;
            let canon =
                self.canon_stage(&built.net, built.s, built.t, i64::from(problem.registers));
            self.cache = Some(retained);
            if let Some(c) = &canon {
                // The Drop donation key: this context's reoptimizer state
                // certifies (an instance of) this structural class.
                self.warm_class = Some(c.class);
            }
            canon
        };
        if let Some(c) = &canon {
            let mut replayed = None;
            if let Some((flows, value)) = crate::cache::lookup_exact(c.fingerprint) {
                let cache = self.cache.as_ref().expect("cache populated above");
                let built = &cache.built;
                replayed = replay_exact(&built.net, built.s, built.t, c, &flows, value);
            }
            if let Some(solution) = replayed {
                // Exact hit: skip the solve entirely. The reoptimizer and
                // the rescale basis still describe the point it last
                // solved, so the next miss repairs from there as usual.
                self.exact_hits += 1;
                crate::cache::note_exact_hit();
                let t0 = self.clock();
                let cache = self.cache.as_ref().expect("cache populated above");
                let allocation = extract_allocation(
                    problem,
                    cache.segmentation.clone(),
                    &cache.built,
                    &solution,
                )?;
                self.record(Stage::Bind, t0);
                self.validate(problem, &allocation)?;
                return Ok(allocation);
            }
            // Cross-request adoption: a context that has not yet built
            // sweep state of its own starts from the class's donated
            // reoptimizer (intra-sweep warmth always wins over adoption).
            if self.cache_mode == CacheMode::Warm && !self.reopt.is_warm() {
                if let Some(adopted) = crate::cache::adopt_warm(c.class) {
                    self.reopt = adopted;
                    self.adopted_pending = true;
                }
            }
        }

        let t0 = self.clock();
        let reopt_before = self.timings_on.then(|| {
            (
                self.reopt.stats(),
                self.reopt.warm_solves(),
                self.reopt.cold_solves(),
            )
        });
        let cache = self.cache.as_ref().expect("cache populated above");
        let built = &cache.built;
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
        let warm_solves_before = self.reopt.warm_solves();
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
        if let Some(c) = &canon {
            if self.adopted_pending && self.reopt.warm_solves() > warm_solves_before {
                self.warm_hits += 1;
                crate::cache::note_warm_hit();
            } else {
                crate::cache::note_miss();
            }
            crate::cache::insert_exact(
                c.fingerprint,
                c.to_canonical_order(&solution.flows),
                solution.value,
            );
        }
        self.adopted_pending = false;
        self.record(Stage::Solve, t0);

        let t0 = self.clock();
        let cache = self.cache.as_ref().expect("cache populated above");
        let allocation =
            extract_allocation(problem, cache.segmentation.clone(), &cache.built, &solution)?;
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
        .cached_solve(&net, s, t, i64::from(spec.capacity))
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

/// Fault-injection-only primary wrapper for the warm cache path: a planned
/// `cache`-qualified panic (`LEMRA_FAULT=panic@0:cache`) fires inside the
/// **adopted** (cache-hit) solve attempt, within the resilient chain's own
/// per-attempt containment — so the injected failure exercises the genuine
/// degradation path: incident recorded, stateless fallback re-solves cold,
/// and [`PipelineCx::cached_solve`] drops the poisoned adopted state
/// instead of donating it back. Non-adopted (miss) solves never consult
/// the plan, keeping the fault aimed at a real cache hit.
#[cfg(feature = "fault-inject")]
struct InjectOnAdopted<'a> {
    inner: &'a mut Reoptimizer,
    armed: bool,
}

#[cfg(feature = "fault-inject")]
impl lemra_netflow::McfSolver for InjectOnAdopted<'_> {
    fn name(&self) -> &'static str {
        lemra_netflow::McfSolver::name(self.inner)
    }

    fn solve(
        &mut self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
        ws: &mut lemra_netflow::SolverWorkspace,
    ) -> Result<FlowSolution, NetflowError> {
        if self.armed && lemra_netflow::maybe_inject_cache() {
            panic!("injected fault: panic in adopted cache-hit solve");
        }
        lemra_netflow::McfSolver::solve(self.inner, net, s, t, target, ws)
    }

    fn solve_budgeted(
        &mut self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
        ws: &mut lemra_netflow::SolverWorkspace,
        budget: SolveBudget,
    ) -> Result<FlowSolution, NetflowError> {
        if self.armed && lemra_netflow::maybe_inject_cache() {
            panic!("injected fault: panic in adopted cache-hit solve");
        }
        lemra_netflow::McfSolver::solve_budgeted(self.inner, net, s, t, target, ws, budget)
    }
}

/// Replays a cached canonical-order flow onto `net` through `canon`'s
/// permutation and re-validates the result against the live network, so a
/// fingerprint collision (or corrupted entry) degrades to a miss, never to
/// a wrong answer. Panics inside the replay — the fault-injection hook, or
/// a permutation/length bug — are contained here and also degrade to a
/// miss, which sends the caller down the ordinary cold path.
fn replay_exact(
    net: &FlowNetwork,
    s: NodeId,
    t: NodeId,
    canon: &CanonicalInstance,
    canonical_flows: &[i64],
    value: i64,
) -> Option<FlowSolution> {
    if canonical_flows.len() != canon.arc_count() {
        return None;
    }
    let replay = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        #[cfg(feature = "fault-inject")]
        if lemra_netflow::maybe_inject_cache() {
            panic!("injected fault: cache-hit replay");
        }
        let flows = canon.from_canonical_order(canonical_flows);
        let mut sol = FlowSolution {
            flows,
            value,
            cost: 0,
        };
        sol.cost = sol.recompute_cost(net);
        sol
    }));
    let sol = replay.ok()?;
    lemra_netflow::validate(net, s, t, &sol).ok()?;
    Some(sol)
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
    fn exact_hits_replay_byte_identical_reports_across_backends() {
        // A lifetime shape used by no other test, so the first solve below
        // is the process-wide cache's first sight of the instance.
        let table = LifetimeTable::from_intervals(
            11,
            vec![
                (1, vec![4], false),
                (2, vec![7, 9], false),
                (5, vec![11], false),
            ],
        )
        .unwrap();
        let p = AllocationProblem::new(table, 2);
        let cold = crate::allocate(&p).unwrap();
        for backend in Backend::ALL {
            let mut seed = PipelineCx::with_backend_cache(backend, CacheMode::Exact);
            let first = seed.allocate(&p).unwrap();
            assert_eq!(first.placements(), cold.placements(), "{backend}");
            let mut cx = PipelineCx::with_backend_cache(backend, CacheMode::Exact);
            let hit = cx.allocate(&p).unwrap();
            assert_eq!(cx.cache_exact_hits(), 1, "{backend} must replay, not solve");
            assert_eq!(hit.placements(), cold.placements(), "{backend}");
            assert_eq!(hit.chains(), cold.chains(), "{backend}");
            assert_eq!(hit.flow_cost(), cold.flow_cost(), "{backend}");
            for v in 0..3 {
                let v = lemra_ir::VarId(v);
                assert_eq!(hit.memory_address(v), cold.memory_address(v), "{backend}");
            }
        }
    }

    #[test]
    fn warm_hits_adopt_cross_request_state_and_match_cold_across_backends() {
        use lemra_energy::EnergyModel;
        let table = LifetimeTable::from_intervals(
            10,
            vec![
                (1, vec![3, 6], false),
                (2, vec![8], false),
                (4, vec![10], false),
            ],
        )
        .unwrap();
        for (i, backend) in Backend::ALL.into_iter().enumerate() {
            // Distinct voltages per backend keep every instance's *exact*
            // fingerprint fresh (forcing the solve) while the structural
            // class — and therefore the warm adoption path — is shared.
            let volts = 3.3 - 0.07 * i as f64;
            let base = AllocationProblem::new(table.clone(), 2)
                .with_energy(EnergyModel::default_16bit().with_memory_voltage(volts));
            let shifted = AllocationProblem::new(table.clone(), 2)
                .with_energy(EnergyModel::default_16bit().with_memory_voltage(volts - 0.5));
            {
                // The donor context solves and returns its reoptimizer to
                // the class slot via the immediate donate in cached_solve.
                let mut donor = PipelineCx::with_backend_cache(backend, CacheMode::Warm);
                donor.allocate(&base).unwrap();
            }
            let mut cx = PipelineCx::with_backend_cache(backend, CacheMode::Warm);
            let warm = cx.allocate(&shifted).unwrap();
            assert_eq!(
                cx.cache_warm_hits(),
                1,
                "{backend} must repair adopted state"
            );
            let cold = crate::allocate(&shifted).unwrap();
            assert_eq!(warm.placements(), cold.placements(), "{backend}");
            assert_eq!(warm.chains(), cold.chains(), "{backend}");
            assert_eq!(warm.flow_cost(), cold.flow_cost(), "{backend}");
        }
    }

    #[test]
    fn warm_sweep_second_pass_replays_exact_hits() {
        use lemra_energy::EnergyModel;
        let table = LifetimeTable::from_intervals(
            12,
            vec![
                (1, vec![5], false),
                (3, vec![9], false),
                (6, vec![12], false),
            ],
        )
        .unwrap();
        let points = [(3.2f64, 1u32), (2.6, 1), (2.0, 2)];
        let run = || {
            let mut cx = PipelineCx::with_cache_mode(CacheMode::Warm);
            let mut out = Vec::new();
            for (volts, regs) in points {
                let p = AllocationProblem::new(table.clone(), regs)
                    .with_energy(EnergyModel::default_16bit().with_memory_voltage(volts));
                out.push(cx.allocate_warm(&p).unwrap());
            }
            (cx.cache_exact_hits(), out)
        };
        let (_, first) = run();
        let (hits, second) = run();
        assert_eq!(hits, 3, "the repeat sweep must be answered from cache");
        for ((a, b), (volts, regs)) in first.iter().zip(&second).zip(points) {
            assert_eq!(a.placements(), b.placements());
            assert_eq!(a.flow_cost(), b.flow_cost());
            let p = AllocationProblem::new(table.clone(), regs)
                .with_energy(EnergyModel::default_16bit().with_memory_voltage(volts));
            let cold = crate::allocate(&p).unwrap();
            assert_eq!(b.placements(), cold.placements());
            assert_eq!(b.flow_cost(), cold.flow_cost());
        }
    }

    #[test]
    fn cache_off_contexts_never_touch_the_cache() {
        let p = problem();
        let mut cx = PipelineCx::with_cache_mode(CacheMode::Off);
        cx.allocate(&p).unwrap();
        cx.allocate_warm(&p).unwrap();
        assert_eq!(cx.cache_exact_hits(), 0);
        assert_eq!(cx.cache_warm_hits(), 0);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn replay_panic_degrades_to_a_byte_identical_cold_solve() {
        use lemra_netflow::FaultPlan;
        let table = LifetimeTable::from_intervals(
            13,
            vec![
                (2, vec![6], false),
                (4, vec![10], false),
                (7, vec![13], false),
            ],
        )
        .unwrap();
        let p = AllocationProblem::new(table, 2);
        let cold = crate::allocate(&p).unwrap();
        let mut seed = PipelineCx::with_cache_mode(CacheMode::Exact);
        seed.allocate(&p).unwrap();
        // Arm a panic inside the next cache-hit replay; the hit must
        // degrade to a miss and the cold path must commit the same bytes.
        let plan: FaultPlan = "panic@0:cache".parse().unwrap();
        plan.install();
        let mut cx = PipelineCx::with_cache_mode(CacheMode::Exact);
        let recovered = cx.allocate(&p).unwrap();
        FaultPlan::clear();
        assert_eq!(cx.cache_exact_hits(), 0, "the poisoned replay is not a hit");
        assert_eq!(recovered.placements(), cold.placements());
        assert_eq!(recovered.chains(), cold.chains());
        assert_eq!(recovered.flow_cost(), cold.flow_cost());
        // The fault fired once; a fresh context replays cleanly again.
        let mut cx = PipelineCx::with_cache_mode(CacheMode::Exact);
        let replayed = cx.allocate(&p).unwrap();
        assert_eq!(cx.cache_exact_hits(), 1);
        assert_eq!(replayed.placements(), cold.placements());
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn adopted_warm_solve_panic_falls_back_cold_byte_identically() {
        use lemra_energy::EnergyModel;
        use lemra_netflow::FaultPlan;
        let table = LifetimeTable::from_intervals(
            14,
            vec![
                (1, vec![4], false),
                (3, vec![9], false),
                (6, vec![12], false),
                (8, vec![14], false),
            ],
        )
        .unwrap();
        let base = AllocationProblem::new(table.clone(), 2)
            .with_energy(EnergyModel::default_16bit().with_memory_voltage(2.9));
        let shifted = AllocationProblem::new(table, 2)
            .with_energy(EnergyModel::default_16bit().with_memory_voltage(2.3));
        let cold = crate::allocate(&shifted).unwrap();
        {
            // Donor populates the class slot the next context will adopt.
            let mut donor = PipelineCx::with_cache_mode(CacheMode::Warm);
            donor.allocate(&base).unwrap();
        }
        // Arm a panic inside the next adopted (cache-hit) solve: the
        // resilient chain must contain it, re-solve cold via a stateless
        // fallback, drop the poisoned state, and commit the same bytes.
        let plan: FaultPlan = "panic@0:cache".parse().unwrap();
        plan.install();
        let mut cx = PipelineCx::with_cache_mode(CacheMode::Warm);
        let recovered = cx.allocate(&shifted).unwrap();
        FaultPlan::clear();
        assert_eq!(cx.cache_warm_hits(), 0, "the panicked adoption is a miss");
        assert_eq!(recovered.placements(), cold.placements());
        assert_eq!(recovered.chains(), cold.chains());
        assert_eq!(recovered.flow_cost(), cold.flow_cost());
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
