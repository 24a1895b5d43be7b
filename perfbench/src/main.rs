//! The lemra benchmark binary. `perfbench/run.py` builds it and runs
//!
//! ```text
//! lemra-perfbench --workload NAME --seed N --seconds S --trace 0|1 \
//!     [--server-bin PATH]
//! ```
//!
//! Each run is one closed loop over one workload (see `README.md` for the
//! workloads and why each was chosen). Every operation's output is checked
//! outside the timed spans; the last stdout line is the JSON result with
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`).

mod alloc;
mod program;
mod server;

use lemra_netflow::LemraConfig;
use lemra_perfbench::{rss, stats};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Longest a run may keep measuring to collect its minimum sample count.
pub const MAX_WALL: Duration = Duration::from_secs(120);

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub server_bin: Option<PathBuf>,
    /// Internal: run this many operations with nothing else and print the
    /// median peak resident set (see [`probe_peak_kb`]).
    pub rss_probe: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        server_bin: None,
        rss_probe: None,
    };
    let mut seen_seed = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value.parse().map_err(|_| bad())?;
                seen_seed = true;
            }
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            "--server-bin" => args.server_bin = Some(PathBuf::from(value)),
            "--rss-probe" => args.rss_probe = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let timed = args.seconds.is_finite() && args.seconds > 0.0;
    if args.workload.is_empty() || !seen_seed || !(timed || args.rss_probe.is_some()) {
        return Err("--workload, --seed and a positive --seconds are required".into());
    }
    Ok(args)
}

/// What one run measured and checked.
pub struct Outcome {
    /// A traced run reports per-layer metrics instead of end-to-end ones.
    trace: bool,
    pub attempted: u64,
    failed: u64,
    /// Failure descriptions (operations and whole-run checks).
    errors: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    /// Input properties and sample counts, printed before the result.
    info: Vec<(String, String)>,
}

impl Outcome {
    pub fn new(trace: bool) -> Self {
        Self {
            trace,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            metrics: Vec::new(),
            info: Vec::new(),
        }
    }

    /// Fewest operations a run must measure so that every percentile it
    /// reports is backed by enough samples: p90 untraced, p50 traced (or
    /// `traced_pct` where a traced run reports a higher one).
    pub fn min_ops(&self, traced_pct: u32) -> usize {
        stats::samples_needed(if self.trace { traced_pct } else { 90 })
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_owned(), value.to_string()));
    }

    /// Records a failed operation (counted against those attempted).
    pub fn fail_op(&mut self, what: String) {
        self.failed += 1;
        self.error(what);
    }

    /// Records a failed whole-run check.
    pub fn error(&mut self, what: String) {
        if self.errors.len() < 20 {
            eprintln!("perfbench: {what}");
        }
        self.errors.push(what);
    }

    /// The `pct`-th percentile of ascending `sorted` as metric `name`. An
    /// unbacked percentile (too few samples beyond it) is still printed,
    /// so the metric set stays fixed, but fails the run.
    pub fn percentile(&mut self, name: &str, sorted: &[f64], pct: u32) {
        if stats::percentile(sorted, pct).is_none() {
            self.error(format!(
                "{name} needs {} samples, run had {}",
                stats::samples_needed(pct),
                sorted.len()
            ));
        }
        let value = if sorted.is_empty() {
            0.0
        } else {
            stats::nearest_rank(sorted, pct)
        };
        self.metric(name, value, "ms");
    }

    /// The end-to-end metrics shared by every workload (only the latency
    /// median in a traced run). `latencies_ms` holds one sample per
    /// attempted operation, failed ones as infinity.
    pub fn end_to_end(
        &mut self,
        setup_s: f64,
        ops_per_s: f64,
        latencies_ms: &[f64],
        peak_rss_kb: f64,
        energy_rel: f64,
    ) {
        let mut sorted = latencies_ms.to_vec();
        sorted.sort_by(f64::total_cmp);
        self.info("latency_samples", sorted.len());
        if self.trace {
            self.percentile("trace.traced_p50_ms", &sorted, 50);
            return;
        }
        self.metric("setup_s", setup_s, "s");
        self.metric("ops_per_s", ops_per_s, "1/s");
        self.percentile("latency_p50_ms", &sorted, 50);
        self.percentile("latency_p90_ms", &sorted, 90);
        self.metric("peak_rss_mb", peak_rss_kb / 1024.0, "MB");
        self.metric("energy_rel", energy_rel, "ratio");
    }

    fn print(&self) {
        let trace = self.trace;
        let mut info = String::from("# inputs");
        for (k, v) in &self.info {
            let _ = write!(info, " {k}={v}");
        }
        println!("{info}");
        let correct = self.errors.is_empty() && self.failed == 0 && self.attempted > 0;
        let mut metrics = String::new();
        let listed: Vec<(String, f64, &str)> = if trace {
            // Every traced run prints the whole per-layer set, in one order;
            // a layer the workload does not exercise reads 0.
            PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    let value = self
                        .metrics
                        .iter()
                        .find(|m| m.0 == name)
                        .map_or(0.0, |m| m.1);
                    (name.to_owned(), value, unit)
                })
                .collect()
        } else {
            self.metrics.clone()
        };
        for (name, _, _) in &self.metrics {
            assert!(
                !trace || PER_LAYER.iter().any(|l| l.0 == name),
                "per-layer metric {name} is not declared"
            );
        }
        for (i, (name, value, unit)) in listed.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_owned()
            };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted, self.failed
        );
    }
}

/// Closed-loop pacing: keeps a run going until `seconds` of wall time have
/// passed (operations and their checks) and it has collected `min_ops`
/// samples (a percentile needs enough samples beyond it), or until
/// [`MAX_WALL`] has passed. Bounding the wall time rather than the
/// operation time spreads every workload's samples over the same stretch
/// of the host's load, whatever its checks cost.
pub struct Pacer {
    start: Instant,
    seconds: f64,
    min_ops: usize,
    /// Operation time, behind `ops_per_s`.
    pub measured: f64,
    pub ops: usize,
}

impl Pacer {
    pub fn new(seconds: f64, min_ops: usize) -> Self {
        Self {
            start: Instant::now(),
            seconds,
            min_ops,
            measured: 0.0,
            ops: 0,
        }
    }

    pub fn more(&self) -> bool {
        let wall = self.start.elapsed();
        (wall.as_secs_f64() < self.seconds || self.ops < self.min_ops) && wall < MAX_WALL
    }

    pub fn record(&mut self, seconds: f64) {
        self.measured += seconds;
        self.ops += 1;
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // The program workload's traced run reads the pipeline's own stage
    // timings; they are switched on in that run only.
    let timings = args.trace && args.workload == "program";
    let base = LemraConfig::from_env().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    LemraConfig { timings, ..base }.install();

    if let Some(ops) = args.rss_probe {
        let peak = match args.workload.as_str() {
            "alloc-static" => alloc::probe(ops),
            "program" => program::probe(ops),
            other => Err(format!("no memory probe for `{other}`")),
        };
        match peak {
            Ok(kb) => println!("{kb}"),
            Err(e) => {
                eprintln!("perfbench: memory probe: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let outcome = match args.workload.as_str() {
        "alloc-static" => alloc::run(&args),
        "program" => program::run(&args),
        "server" => server::run(&args),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    outcome.print();
}

/// Seed of the memory probe's first input. The probe runs the same inputs
/// whatever `--seed` is: the heap's high-water mark follows the largest
/// instances drawn, so a seed-dependent sequence would move
/// `peak_rss_mb` by several percent with no change to the program.
pub const MEMORY_SEEDS: u64 = 1 << 41;

/// Peak resident memory of the work alone, in KiB: runs `ops` operations
/// on the inputs from [`MEMORY_SEEDS`] in a fresh process that does
/// nothing else (no checks, whose freed memory the allocator would keep
/// resident), takes the median over operations of that process's `VmHWM`
/// during the operation, and returns the median of `probes` such processes.
pub fn probe_peak_kb(args: &Args, ops: usize, probes: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut peaks = Vec::with_capacity(probes);
    for _ in 0..probes {
        let probe = Command::new(&exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
            ])
            .args(["--rss-probe", &ops.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("memory probe: {e}"))?;
        let text = String::from_utf8_lossy(&probe.stdout);
        match text.trim().parse() {
            Ok(kb) if probe.status.success() => peaks.push(kb),
            _ => return Err(format!("memory probe failed ({}): {text}", probe.status)),
        }
    }
    Ok(stats::median(&peaks))
}

/// Median over `ops` operations of this process's peak resident set (KiB)
/// while each runs; `op` runs on the input `input(i)` made beforehand.
pub fn median_peak_kb<T>(
    ops: usize,
    mut input: impl FnMut(u64) -> T,
    mut op: impl FnMut(&T) -> Result<(), String>,
) -> Result<f64, String> {
    let mut peaks = Vec::with_capacity(ops);
    for i in 0..ops as u64 {
        let input = input(i);
        if !rss::reset_peak() {
            return Err("the kernel refused to reset VmHWM".into());
        }
        op(&input)?;
        peaks.push(rss::peak_kb(None).ok_or("no VmHWM in /proc/self/status")? as f64);
    }
    Ok(stats::median(&peaks))
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Every per-layer metric a traced run prints, with its unit. Times are
/// per operation (medians over the traced operations); counts come from
/// the fixed instance set, so they repeat exactly between runs. The
/// `trace.untraced_p50_ms` and `trace.overhead_ratio` metrics are added by
/// `run.py` from an untraced reference run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("segment.ms", "ms"),
    ("build.ms", "ms"),
    ("build.nodes", "count"),
    ("build.arcs", "count"),
    ("build.handoff_arcs", "count"),
    ("build.heap_kb", "KiB"),
    ("solve.ms", "ms"),
    ("solve.dijkstra_rounds", "count"),
    ("solve.pushed_units", "count"),
    ("bind.ms", "ms"),
    ("certify.ms", "ms"),
    ("audit.ms", "ms"),
    ("report.ms", "ms"),
    ("program.loopnest.ms", "ms"),
    ("program.trace.ms", "ms"),
    ("program.loopnest.serial_ms", "ms"),
    ("program.trace.serial_ms", "ms"),
    ("program.warm_solves", "count"),
    ("program.cold_solves", "count"),
    ("program.spec_useful_ratio", "ratio"),
    ("program.stage.profile_ms", "ms"),
    ("program.stage.canon_ms", "ms"),
    ("program.stage.validate_ms", "ms"),
    ("server.connect_ms", "ms"),
    ("server.rtt_ms", "ms"),
    ("server.offline_ms", "ms"),
    ("server.transport_ms", "ms"),
    ("server.stat_p50_ms", "ms"),
    ("server.latency_p99_ms", "ms"),
    ("server.rss_per_conn_kb", "KiB"),
    ("server.repeat_share", "ratio"),
    ("server.shed", "count"),
    ("server.incidents", "count"),
    ("server.worker_respawns", "count"),
    ("server.conns_opened", "count"),
    ("server.cache_exact_hits", "count"),
    ("trace.traced_p50_ms", "ms"),
];
