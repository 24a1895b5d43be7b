//! `alloc-static`: closed loop of `lemra_core::allocate` on 512-variable
//! random blocks under the static model (eq. 1), fresh seeds every
//! operation. One operation allocates two blocks at once, one per thread,
//! as a build running two compile jobs does.
//!
//! Two threads, not one: on a two-core shared host each core's speed for
//! this memory-bound work moves by up to 1.4x, independently and for tens
//! of seconds at a time, and a single thread's run reads whichever core it
//! happened to sit on. An operation that waits for both cores reads them
//! together, which repeats from run to run.

use crate::{secs, Args, Outcome, Pacer};
use lemra_core::{
    allocate, build_network, validate, Allocation, AllocationProblem, AllocationReport, CoreError,
    NetworkView, Segmentation,
};
use lemra_energy::RegisterEnergyKind;
use lemra_netflow::{min_cost_flow, thread_solver_stats, Backend, FlowSolution};
use lemra_perfbench::stats;
use lemra_workloads::random::{random_lifetimes, RandomConfig};
use std::hint::black_box;
use std::time::Instant;

const VARS: usize = 512;
const REGISTERS: u32 = 64;
/// Instances behind `energy_rel` and the deterministic counts: the same
/// for every `--seed`, so those figures repeat exactly between runs.
pub const FIXED_SEEDS: [u64; 3] = [101, 202, 303];
/// Warm-up operations, each timed as one set-up; `setup_s` is their median.
const SETUP_REPEATS: u64 = 9;
/// Offset of the warm-up instances' seeds from the run's seed, so they
/// never coincide with a timed instance.
const WARMUP_OFFSET: u64 = 1 << 40;

fn problem(seed: u64) -> AllocationProblem {
    AllocationProblem::new(
        random_lifetimes(&RandomConfig::scaled(VARS, seed)),
        REGISTERS,
    )
    .with_register_energy(RegisterEnergyKind::Static)
}

/// The two blocks of operation `i` from `seed`: consecutive seeds, so no
/// block repeats within a run.
fn blocks(seed: u64, i: u64) -> [AllocationProblem; 2] {
    [
        problem(seed.wrapping_add(2 * i)),
        problem(seed.wrapping_add(2 * i + 1)),
    ]
}

/// One operation: allocates the first block on this thread while a
/// scoped thread allocates the second. Returns both results and the
/// first call's own seconds.
fn allocate_both(
    [first, second]: &[AllocationProblem; 2],
) -> ([Result<Allocation, CoreError>; 2], f64) {
    std::thread::scope(|scope| {
        let other = scope.spawn(|| allocate(black_box(second)));
        let t = Instant::now();
        let mine = allocate(black_box(first));
        let mine_s = secs(t);
        let other = other.join().expect("allocation thread panicked");
        ([mine, other], mine_s)
    })
}

/// Checks one allocation independently of the solver that produced it:
/// structural validity, and energy no worse than the all-memory placement
/// or any baseline allocator's. Returns the energy and the all-memory
/// energy under the problem's model.
pub fn check_allocation(
    problem: &AllocationProblem,
    allocation: &Allocation,
) -> Result<(f64, f64), String> {
    validate(problem, allocation).map_err(|e| format!("invalid allocation: {e}"))?;
    let kind = problem.register_energy;
    let energy = AllocationReport::new(problem, allocation).energy(kind);
    let of = |a: &Allocation| AllocationReport::new(problem, a).energy(kind);
    let all_memory =
        lemra_baselines::all_memory(problem).map_err(|e| format!("all-memory baseline: {e}"))?;
    let all_memory = of(&all_memory);
    let mut baselines = vec![("all-memory", all_memory)];
    if let Ok(r) = lemra_baselines::left_edge(problem) {
        baselines.push(("left-edge", of(&r.allocation)));
    }
    if let Ok(r) = lemra_baselines::color_with_spills(problem) {
        baselines.push(("coloring", of(&r.allocation)));
    }
    if let Ok(r) = lemra_baselines::two_phase(problem) {
        baselines.push(("two-phase", of(&r.allocation)));
    }
    for (name, other) in baselines {
        if energy > other + 1e-9 * other.abs() {
            return Err(format!(
                "energy {energy} exceeds the {name} baseline's {other}"
            ));
        }
    }
    Ok((energy, all_memory))
}

/// Network shape and solver work of one instance: deterministic counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Work {
    pub nodes: u64,
    pub arcs: u64,
    pub handoff_arcs: u64,
    pub heap_bytes: u64,
    pub dijkstra_rounds: u64,
    pub pushed_units: u64,
}

impl std::ops::AddAssign for Work {
    fn add_assign(&mut self, o: Work) {
        self.nodes += o.nodes;
        self.arcs += o.arcs;
        self.handoff_arcs += o.handoff_arcs;
        self.heap_bytes += o.heap_bytes;
        self.dijkstra_rounds += o.dijkstra_rounds;
        self.pushed_units += o.pushed_units;
    }
}

/// Builds and solves `problem`'s network with the default solver.
pub fn network_work(
    problem: &AllocationProblem,
) -> Result<(Work, NetworkView, FlowSolution), String> {
    let view = build_network(problem).map_err(|e| format!("build_network: {e}"))?;
    let before = thread_solver_stats();
    let sol = min_cost_flow(&view.net, view.source, view.sink, problem.registers.into())
        .map_err(|e| format!("min_cost_flow: {e}"))?;
    let spent = thread_solver_stats() - before;
    let work = Work {
        nodes: view.net.node_count() as u64,
        arcs: view.net.arc_count() as u64,
        handoff_arcs: view.handoff_arcs.len() as u64,
        heap_bytes: view.net.heap_bytes() as u64,
        dijkstra_rounds: spent.dijkstra_rounds,
        pushed_units: spent.pushed_units,
    };
    Ok((work, view, sol))
}

/// Per-layer spans of one traced allocation, in milliseconds.
#[derive(Debug, Default)]
pub struct LayerTimes {
    pub segment: Vec<f64>,
    pub build: Vec<f64>,
    pub solve: Vec<f64>,
    pub bind: Vec<f64>,
    pub certify: Vec<f64>,
    pub audit: Vec<f64>,
    pub report: Vec<f64>,
}

impl LayerTimes {
    /// Times each layer's public entry point on `problem`, whose
    /// `allocate` call took `allocate_ms` and returned `allocation`. Build
    /// is reported as self time (`build_network` segments too), Bind as
    /// `allocate` minus build and solve.
    pub fn trace(
        &mut self,
        problem: &AllocationProblem,
        allocation: &Allocation,
        allocate_ms: f64,
    ) -> Result<(), String> {
        let ms = |t: Instant| secs(t) * 1e3;
        let t = Instant::now();
        black_box(Segmentation::new(&problem.lifetimes, &problem.split));
        let segment = ms(t);
        let t = Instant::now();
        let view = build_network(problem).map_err(|e| format!("build_network: {e}"))?;
        let build = ms(t);
        let target = problem.registers.into();
        let t = Instant::now();
        let sol = min_cost_flow(&view.net, view.source, view.sink, target)
            .map_err(|e| format!("min_cost_flow: {e}"))?;
        let solve = ms(t);
        let t = Instant::now();
        lemra_netflow::validate(&view.net, view.source, view.sink, &sol)
            .map_err(|e| format!("flow certificate: {e}"))?;
        self.certify.push(ms(t));
        let t = Instant::now();
        validate(problem, allocation).map_err(|e| format!("invalid allocation: {e}"))?;
        self.audit.push(ms(t));
        let t = Instant::now();
        black_box(AllocationReport::new(problem, allocation));
        self.report.push(ms(t));
        self.segment.push(segment);
        self.build.push(build - segment);
        self.solve.push(solve);
        self.bind.push(allocate_ms - build - solve);
        Ok(())
    }

    pub fn report(&self, out: &mut Outcome) {
        for (name, v) in [
            ("segment.ms", &self.segment),
            ("build.ms", &self.build),
            ("solve.ms", &self.solve),
            ("bind.ms", &self.bind),
            ("certify.ms", &self.certify),
            ("audit.ms", &self.audit),
            ("report.ms", &self.report),
        ] {
            out.metric(name, stats::median(v), "ms");
        }
    }
}

pub fn report_work(out: &mut Outcome, w: Work) {
    out.metric("build.nodes", w.nodes as f64, "count");
    out.metric("build.arcs", w.arcs as f64, "count");
    out.metric("build.handoff_arcs", w.handoff_arcs as f64, "count");
    out.metric("build.heap_kb", w.heap_bytes as f64 / 1024.0, "KiB");
    out.metric("solve.dijkstra_rounds", w.dijkstra_rounds as f64, "count");
    out.metric("solve.pushed_units", w.pushed_units as f64, "count");
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new(args.trace);
    out.info("vars", VARS);
    out.info("registers", REGISTERS);
    out.info("model", "Static");
    out.info("blocks_per_op", 2);
    out.info("fixed_seeds", format!("{FIXED_SEEDS:?}"));

    // Set-up: warm-up operations (thread workspaces, allocator arenas).
    let mut setups = Vec::new();
    for r in 0..SETUP_REPEATS {
        let pair = blocks(args.seed.wrapping_add(WARMUP_OFFSET), r);
        let t = Instant::now();
        let (results, _) = allocate_both(&pair);
        setups.push(secs(t));
        for e in results.into_iter().filter_map(Result::err) {
            out.error(format!("warm-up allocation: {e}"));
        }
    }

    let mut latencies = Vec::new();
    let mut layers = LayerTimes::default();
    let mut pacer = Pacer::new(args.seconds, out.min_ops(50));
    while pacer.more() {
        let pair = blocks(args.seed, pacer.ops as u64);
        let t = Instant::now();
        let (results, first_s) = allocate_both(&pair);
        let dt = secs(t);
        pacer.record(dt);
        out.attempted += 1;
        let traced = args.trace.then_some((&mut layers, first_s * 1e3));
        match check_pair(&pair, results, traced) {
            Ok(()) => latencies.push(dt * 1e3),
            Err(e) => {
                latencies.push(f64::INFINITY);
                out.fail_op(format!("op {}: {e}", pacer.ops));
            }
        }
    }

    // The fixed set: energy_rel, an independent exact backend on the same
    // network, and counts that must repeat exactly.
    let mut energy = 0.0;
    let mut all_memory = 0.0;
    let mut work = Work::default();
    for seed in FIXED_SEEDS {
        let p = problem(seed);
        if let Err(e) = fixed_instance(&p, &mut energy, &mut all_memory, &mut work) {
            out.error(format!("fixed instance {seed}: {e}"));
        }
    }

    let peak_kb = peak_kb(args, &mut out, PROBE);
    out.end_to_end(
        stats::median(&setups),
        pacer.ops as f64 / pacer.measured,
        &latencies,
        peak_kb,
        energy / all_memory,
    );
    if args.trace {
        layers.report(&mut out);
        report_work(&mut out, work);
    }
    out
}

/// Checks both allocations of one operation; a traced run also times the
/// layers on the first block, whose `allocate` call took the given
/// milliseconds.
fn check_pair(
    pair: &[AllocationProblem; 2],
    results: [Result<Allocation, CoreError>; 2],
    mut traced: Option<(&mut LayerTimes, f64)>,
) -> Result<(), String> {
    for (i, (p, result)) in pair.iter().zip(results).enumerate() {
        let a = result.map_err(|e| format!("allocate block {i}: {e}"))?;
        check_allocation(p, &a).map_err(|e| format!("block {i}: {e}"))?;
        if let (0, Some((layers, allocate_ms))) = (i, traced.as_mut()) {
            layers.trace(p, &a, *allocate_ms)?;
        }
    }
    Ok(())
}

/// Operations per memory probe and probes per run (see
/// [`crate::probe_peak_kb`]).
const PROBE: (usize, usize) = (15, 1);

/// `peak_rss_mb`'s figure in KiB from `probes` probes of `ops` operations
/// each; a traced run does not report it.
pub fn peak_kb(args: &Args, out: &mut Outcome, (ops, probes): (usize, usize)) -> f64 {
    if args.trace {
        return 0.0;
    }
    out.info("rss_probe", format!("{probes}x{ops}"));
    crate::probe_peak_kb(args, ops, probes).unwrap_or_else(|e| {
        out.error(e);
        0.0
    })
}

/// The memory probe: `ops` operations and nothing else.
pub fn probe(ops: usize) -> Result<f64, String> {
    crate::median_peak_kb(
        ops,
        |i| blocks(crate::MEMORY_SEEDS, i),
        |pair| {
            let (results, _) = allocate_both(pair);
            results
                .into_iter()
                .try_for_each(|r| r.map(drop).map_err(|e| e.to_string()))
        },
    )
}

fn fixed_instance(
    p: &AllocationProblem,
    energy: &mut f64,
    all_memory: &mut f64,
    work: &mut Work,
) -> Result<(), String> {
    let (w, view, sol) = network_work(p)?;
    let (again, _, _) = network_work(p)?;
    if w != again {
        return Err(format!("deterministic counts differ: {w:?} then {again:?}"));
    }
    lemra_netflow::validate(&view.net, view.source, view.sink, &sol)
        .map_err(|e| format!("flow certificate: {e}"))?;
    let simplex = Backend::Simplex
        .solve(&view.net, view.source, view.sink, p.registers.into())
        .map_err(|e| format!("simplex: {e}"))?;
    if simplex.cost != sol.cost {
        return Err(format!(
            "flow optimum {} differs from network simplex's {}",
            sol.cost, simplex.cost
        ));
    }
    let a = allocate(p).map_err(|e| format!("allocate: {e}"))?;
    let (e, m) = check_allocation(p, &a)?;
    *energy += e;
    *all_memory += m;
    *work += w;
    Ok(())
}
