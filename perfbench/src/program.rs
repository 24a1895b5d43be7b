//! `program`: each operation allocates a whole program — the 4k-variable
//! loop-nest tier, then the trace tier — on two Phase-A workers, which
//! exercises the multi-block pipeline's speculation and warm reuse.

use crate::alloc::{check_allocation, network_work, report_work, Work};
use crate::{secs, Args, Outcome, Pacer};
use lemra_core::{
    allocate_program_threads, pipeline_stats, AllocationReport, BlockChain, PipelineStats,
    ProgramAllocation, Stage,
};
use lemra_perfbench::stats;
use lemra_server::wire::format_program_digest;
use lemra_workloads::wholeprogram::{loop_nest, min_reg_trace, LoopNestConfig, MinRegTraceConfig};
use std::hint::black_box;
use std::time::Instant;

const WORKERS: usize = 2;
/// Programs behind `energy_rel` and the deterministic counts, the same for
/// every `--seed`.
const FIXED_SEEDS: [u64; 2] = [101, 202];
const SETUP_REPEATS: u64 = 9;
const CHECK_THREADS: usize = 2;
/// Operations per memory probe and probes per run: two workers allocate
/// concurrently, so one probe's peak varies with their overlap by several
/// percent; the median of three settles it.
const PROBE: (usize, usize) = (30, 3);
const WARMUP_OFFSET: u64 = 1 << 40;

fn programs(seed: u64) -> [BlockChain; 2] {
    [
        loop_nest(&LoopNestConfig::tier_4k(seed)),
        min_reg_trace(&MinRegTraceConfig::tier_2k(seed)),
    ]
}

fn stage_ms(after: &PipelineStats, before: &PipelineStats, stage: Stage) -> f64 {
    (after.stage(stage).nanos - before.stage(stage).nanos) as f64 / 1e6
}

/// The per-layer metric a pipeline stage's time is reported as: the stages
/// `alloc-static` also times from outside share its layer names.
fn stage_metric(stage: Stage) -> &'static str {
    match stage {
        Stage::Segment => "segment.ms",
        Stage::Profile => "program.stage.profile_ms",
        Stage::Build => "build.ms",
        Stage::Canon => "program.stage.canon_ms",
        Stage::Solve => "solve.ms",
        Stage::Bind => "bind.ms",
        Stage::Validate => "program.stage.validate_ms",
    }
}

fn solves(after: &PipelineStats, before: &PipelineStats) -> (u64, u64) {
    (
        after.warm_solves - before.warm_solves,
        after.cold_solves - before.cold_solves,
    )
}

/// Checks a 2-worker program allocation against the 1-worker one and
/// every block independently. Returns the optimal and all-memory energy.
fn check_program(
    chain: &BlockChain,
    parallel: &ProgramAllocation,
    serial: &ProgramAllocation,
) -> Result<(f64, f64), String> {
    if format_program_digest(parallel) != format_program_digest(serial) {
        return Err("2-worker digest differs from the 1-worker digest".into());
    }
    let c = &parallel.chain;
    if c.problems.len() != chain.blocks.len() || c.allocations.len() != c.problems.len() {
        return Err("program allocation has the wrong block count".into());
    }
    // Blocks are checked on CHECK_THREADS threads: the checks run between
    // timed operations, and the baseline allocators cost several times
    // what the 2-worker allocation does.
    let blocks: Vec<_> = c.problems.iter().zip(&c.allocations).enumerate().collect();
    let chunk = blocks.len().div_ceil(CHECK_THREADS).max(1);
    let sums = std::thread::scope(|scope| {
        let handles: Vec<_> = blocks
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter().try_fold((0.0, 0.0), |(e, m), &(i, (p, a))| {
                        let (pe, pm) =
                            check_allocation(p, a).map_err(|e| format!("block {i}: {e}"))?;
                        Ok::<_, String>((e + pe, m + pm))
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("check thread panicked"))
            .collect::<Result<Vec<_>, _>>()
    })?;
    Ok(sums
        .into_iter()
        .fold((0.0, 0.0), |(e, m), (pe, pm)| (e + pe, m + pm)))
}

#[derive(Default)]
struct Traced {
    nest: Vec<f64>,
    trace: Vec<f64>,
    nest_serial: Vec<f64>,
    trace_serial: Vec<f64>,
    stages: [Vec<f64>; 7],
    audit: Vec<f64>,
    report: Vec<f64>,
}

/// The memory probe: `ops` operations and nothing else.
pub fn probe(ops: usize) -> Result<f64, String> {
    crate::median_peak_kb(
        ops,
        |i| programs(crate::MEMORY_SEEDS + i),
        |chains| {
            for chain in chains {
                allocate_program_threads(black_box(chain), WORKERS).map_err(|e| e.to_string())?;
            }
            Ok(())
        },
    )
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new(args.trace);
    out.info("programs", "loop_nest(tier_4k)+min_reg_trace(tier_2k)");
    out.info("workers", WORKERS);
    out.info("fixed_seeds", format!("{FIXED_SEEDS:?}"));

    // Set-up: warm-up programs (thread pools, per-worker contexts, arenas).
    let mut setups = Vec::new();
    for r in 0..SETUP_REPEATS {
        let chains = programs(args.seed.wrapping_add(WARMUP_OFFSET + r));
        let t = Instant::now();
        for chain in &chains {
            if let Err(e) = allocate_program_threads(black_box(chain), WORKERS) {
                out.error(format!("warm-up program: {e}"));
            }
        }
        setups.push(secs(t));
    }

    let mut latencies = Vec::new();
    let mut traced = Traced::default();
    let mut pacer = Pacer::new(args.seconds, out.min_ops(50));
    while pacer.more() {
        let [nest, trace] = programs(args.seed.wrapping_add(pacer.ops as u64));
        let before = pipeline_stats();
        let t = Instant::now();
        let a = allocate_program_threads(black_box(&nest), WORKERS);
        let nest_s = secs(t);
        let t = Instant::now();
        let b = allocate_program_threads(black_box(&trace), WORKERS);
        let trace_s = secs(t);
        let after = pipeline_stats();
        let dt = nest_s + trace_s;
        pacer.record(dt);
        out.attempted += 1;

        let mut checked = || -> Result<(), String> {
            let (mut audit_ms, mut report_ms) = (0.0, 0.0);
            for (chain, par, ms, par_ms, serial_ms) in [
                (&nest, &a, nest_s, &mut traced.nest, &mut traced.nest_serial),
                (
                    &trace,
                    &b,
                    trace_s,
                    &mut traced.trace,
                    &mut traced.trace_serial,
                ),
            ] {
                let par = par.as_ref().map_err(|e| format!("allocate_program: {e}"))?;
                let t = Instant::now();
                let serial = allocate_program_threads(chain, 1)
                    .map_err(|e| format!("1-worker allocate_program: {e}"))?;
                if args.trace {
                    serial_ms.push(secs(t) * 1e3);
                }
                check_program(chain, par, &serial)?;
                if args.trace {
                    par_ms.push(ms * 1e3);
                    let c = &par.chain;
                    let t = Instant::now();
                    for (p, a) in c.problems.iter().zip(&c.allocations) {
                        lemra_core::validate(p, a).map_err(|e| e.to_string())?;
                    }
                    audit_ms += secs(t) * 1e3;
                    let t = Instant::now();
                    for (p, a) in c.problems.iter().zip(&c.allocations) {
                        black_box(AllocationReport::new(p, a));
                    }
                    report_ms += secs(t) * 1e3;
                }
            }
            if args.trace {
                traced.audit.push(audit_ms);
                traced.report.push(report_ms);
            }
            Ok(())
        };
        match checked() {
            Ok(()) => latencies.push(dt * 1e3),
            Err(e) => {
                latencies.push(f64::INFINITY);
                out.fail_op(format!("op {}: {e}", pacer.ops));
            }
        }
        if args.trace {
            for (slot, stage) in traced.stages.iter_mut().zip(Stage::ALL) {
                slot.push(stage_ms(&after, &before, stage));
            }
        }
    }

    let mut energy = 0.0;
    let mut all_memory = 0.0;
    let mut work = Work::default();
    let (mut par_solves, mut serial_solves) = ((0, 0), 0);
    for seed in FIXED_SEEDS {
        for chain in programs(seed) {
            let mut fixed = || -> Result<(), String> {
                let s0 = pipeline_stats();
                let par = allocate_program_threads(&chain, WORKERS).map_err(|e| e.to_string())?;
                let s1 = pipeline_stats();
                let serial = allocate_program_threads(&chain, 1).map_err(|e| e.to_string())?;
                let s2 = pipeline_stats();
                let (e, m) = check_program(&chain, &par, &serial)?;
                energy += e;
                all_memory += m;
                if args.trace {
                    allocate_program_threads(&chain, WORKERS).map_err(|e| e.to_string())?;
                    let s3 = pipeline_stats();
                    let (p, p_again) = (solves(&s1, &s0), solves(&s3, &s2));
                    if p != p_again {
                        return Err(format!("2-worker solves differ: {p:?} then {p_again:?}"));
                    }
                    let (sw, sc) = solves(&s2, &s1);
                    serial_solves += sw + sc;
                    par_solves.0 += p.0;
                    par_solves.1 += p.1;
                    for block in &par.chain.problems {
                        let (w, _, _) = network_work(block)?;
                        let (w_again, _, _) = network_work(block)?;
                        if w != w_again {
                            return Err(format!("counts differ: {w:?} then {w_again:?}"));
                        }
                        work += w;
                    }
                }
                Ok(())
            };
            if let Err(e) = fixed() {
                out.error(format!("fixed program {seed}: {e}"));
            }
        }
    }

    let peak_kb = crate::alloc::peak_kb(args, &mut out, PROBE);
    out.end_to_end(
        stats::median(&setups),
        pacer.ops as f64 / pacer.measured,
        &latencies,
        peak_kb,
        energy / all_memory,
    );
    if args.trace {
        let med = stats::median;
        out.metric("program.loopnest.ms", med(&traced.nest), "ms");
        out.metric("program.trace.ms", med(&traced.trace), "ms");
        out.metric("program.loopnest.serial_ms", med(&traced.nest_serial), "ms");
        out.metric("program.trace.serial_ms", med(&traced.trace_serial), "ms");
        out.metric("program.warm_solves", par_solves.0 as f64, "count");
        out.metric("program.cold_solves", par_solves.1 as f64, "count");
        out.metric(
            "program.spec_useful_ratio",
            serial_solves as f64 / (par_solves.0 + par_solves.1) as f64,
            "ratio",
        );
        for (stage, times) in Stage::ALL.into_iter().zip(&traced.stages) {
            out.metric(stage_metric(stage), med(times), "ms");
        }
        out.metric("audit.ms", med(&traced.audit), "ms");
        out.metric("report.ms", med(&traced.report), "ms");
        report_work(&mut out, work);
    }
    out
}
