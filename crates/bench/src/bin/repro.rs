//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```text
//! cargo run -p lemra-bench --bin repro            # everything
//! cargo run -p lemra-bench --bin repro -- figure3
//! cargo run -p lemra-bench --bin repro -- table1 --json
//! ```
//!
//! The requested sections are computed in parallel (they share nothing) and
//! printed in their fixed order afterwards, so the output is identical to
//! running them one by one; `LEMRA_THREADS=1` forces the serial path.
//!
//! `--timings` additionally prints per-stage pipeline timings and solver
//! counters to **stderr** (stdout — including `--json` — is byte-identical
//! with or without the flag). `--backend <ssp|simplex>` overrides the
//! solver backend (same values as `LEMRA_BACKEND`, which it takes
//! precedence over); both backends reach the same optimal objectives, and
//! tie-broken sections commit identical allocations.

use lemra_bench::experiments::{
    run_figure3, run_figure4, run_headline, run_offchip, run_sizing, run_table1, Figure3Result,
    Figure4Result, HeadlineRow, OffchipRow, Row, SizingRow, Table1Row,
};
use lemra_netflow::LemraConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let timings = args.iter().any(|a| a == "--timings");
    let base = LemraConfig::from_env().unwrap_or_else(|e| {
        eprintln!("repro: {e}");
        std::process::exit(2);
    });
    // `--backend x` or `--backend=x`, overriding LEMRA_BACKEND.
    let mut backend = base.backend;
    for (i, a) in args.iter().enumerate() {
        let value = if a == "--backend" {
            args.get(i + 1).cloned().unwrap_or_default()
        } else if let Some(v) = a.strip_prefix("--backend=") {
            v.to_string()
        } else {
            continue;
        };
        backend = value.parse().unwrap_or_else(|e| {
            eprintln!("repro: --backend: {e}");
            std::process::exit(2);
        });
    }
    LemraConfig {
        timings,
        backend,
        ..base
    }
    .install();
    let which: Vec<&str> = args
        .iter()
        .enumerate()
        // Skip flags and the value consumed by a space-separated
        // `--backend`.
        .filter(|&(i, a)| !a.starts_with("--") && (i == 0 || args[i - 1] != "--backend"))
        .map(|(_, a)| a.as_str())
        .collect();
    let all = which.is_empty() || which.contains(&"all");
    let want = |name: &str| all || which.contains(&name);

    // Compute every requested section concurrently, then print in the
    // fixed section order below.
    let mut figure3_result: Option<Figure3Result> = None;
    let mut figure4_result: Option<Figure4Result> = None;
    let mut table1_rows: Option<Vec<Table1Row>> = None;
    let mut headline_rows: Option<Vec<HeadlineRow>> = None;
    let mut offchip_rows: Option<Vec<OffchipRow>> = None;
    let mut sizing_rows: Option<Vec<SizingRow>> = None;
    std::thread::scope(|s| {
        if want("figure3") {
            s.spawn(|| figure3_result = Some(run_figure3()));
        }
        if want("figure4") {
            s.spawn(|| figure4_result = Some(run_figure4()));
        }
        if want("table1") {
            s.spawn(|| table1_rows = Some(run_table1()));
        }
        if want("headline") {
            s.spawn(|| headline_rows = Some(run_headline()));
        }
        if want("offchip") {
            s.spawn(|| offchip_rows = Some(run_offchip()));
        }
        if want("sizing") {
            s.spawn(|| sizing_rows = Some(run_sizing()));
        }
    });

    if let Some(r) = figure3_result {
        figure3(&r, json);
    }
    if let Some(r) = figure4_result {
        figure4(&r, json);
    }
    if let Some(rows) = table1_rows {
        table1(&rows, json);
    }
    if let Some(rows) = headline_rows {
        headline(&rows, json);
    }
    if let Some(rows) = offchip_rows {
        offchip(&rows, json);
    }
    if let Some(rows) = sizing_rows {
        sizing(&rows, json);
    }
    if timings {
        print_timings();
    }
}

/// Stage timings and solver counters of everything the run solved, on
/// stderr so `--json` consumers of stdout are unaffected.
fn print_timings() {
    // One shared snapshot (lemra_core::StatsSnapshot) renders this block;
    // its format is pinned by a regression test because CI greps these
    // lines.
    eprint!("{}", lemra_core::StatsSnapshot::collect().render_timings());
}

fn print_rows(rows: &[&Row]) {
    println!(
        "  {:<32} {:>7} {:>7} {:>6} {:>5} {:>8} {:>8} {:>9} {:>9}",
        "solution", "mem", "reg", "locs", "regs", "regSw", "memSw", "E", "aE"
    );
    for r in rows {
        println!(
            "  {:<32} {:>7} {:>7} {:>6} {:>5} {:>8.2} {:>8.2} {:>9.2} {:>9.2}",
            r.label,
            r.mem_accesses,
            r.reg_accesses,
            r.storage_locations,
            r.registers_used,
            r.register_switching,
            r.memory_switching,
            r.static_energy,
            r.activity_energy
        );
    }
}

fn figure3(r: &Figure3Result, json: bool) {
    if json {
        println!("{}", serde_json::to_string_pretty(&r).expect("serialises"));
        return;
    }
    println!("== Figure 3: partition-after-allocation vs simultaneous (R = 1) ==");
    println!(
        "  phase-1 total switching (paper: 2.4): {:.2}",
        r.phase1_switching
    );
    print_rows(&[&r.two_phase, &r.simultaneous]);
    println!(
        "  improvement: static {:.2}x (paper 1.4x)  activity {:.2}x (paper 1.3x)  memory switching {:.2}x (paper 1.5x)",
        r.static_improvement, r.activity_improvement, r.memory_switching_improvement
    );
    println!();
}

fn figure4(r: &Figure4Result, json: bool) {
    if json {
        println!("{}", serde_json::to_string_pretty(&r).expect("serialises"));
        return;
    }
    println!("== Figure 4: all-pairs graph vs region graph with split lifetimes (R = 1) ==");
    print_rows(&[&r.a, &r.b, &r.c]);
    println!(
        "  (c) vs (a) energy improvement: {:.2}x (paper 1.35x)",
        r.improvement_c_over_a
    );
    println!("  -- minimum-storage-locations property, isolated --");
    print_rows(&[&r.storage_all_pairs, &r.storage_regions]);
    println!();
}

fn table1(rows: &[Table1Row], json: bool) {
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).expect("serialises")
        );
        return;
    }
    println!("== Table 1: RSP application, memory frequency sweep (R = 16, density 26) ==");
    println!(
        "  {:<6} {:>6} {:>6} {:>8} {:>8} {:>7} {:>10} {:>10}",
        "freq", "c", "volts", "mem", "reg", "ports", "relE", "relAE"
    );
    for r in rows {
        println!(
            "  {:<6} {:>6} {:>6.1} {:>8} {:>8} {:>4}r{}w {:>10.2} {:>10.2}",
            r.frequency,
            r.period,
            r.volts,
            r.mem_accesses,
            r.reg_accesses,
            r.mem_ports.0,
            r.mem_ports.1,
            r.relative_e,
            r.relative_ae
        );
    }
    println!("  paper rows:      mem 6/7/8, reg 12/11/10, relE 4.9/2/1, relAE 2.8/1.6/1");
    println!();
}

fn offchip(rows: &[OffchipRow], json: bool) {
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).expect("serialises")
        );
        return;
    }
    println!("== Supplementary: off-chip tiering projection (RSP, R = 8) ==");
    println!(
        "  {:<9} {:>7} {:>8} {:>12} {:>9}",
        "capacity", "onchip", "offchip", "energy", "saving"
    );
    for r in rows {
        println!(
            "  {:<9} {:>7} {:>8} {:>12.1} {:>8.2}x",
            r.capacity, r.onchip_vars, r.offchip_vars, r.tiered_energy, r.saving_factor
        );
    }
    println!("  (§7: \"significantly larger savings … applied to offchip memory\")");
    println!();
}

fn sizing(rows: &[SizingRow], json: bool) {
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).expect("serialises")
        );
        return;
    }
    println!("== Supplementary: register-file sizing, geometry-derived energies (RSP) ==");
    println!(
        "  {:<5} {:>6} {:>9} {:>6} {:>10}",
        "R", "words", "regRead", "mem", "E"
    );
    for r in rows {
        println!(
            "  {:<5} {:>6} {:>9.2} {:>6} {:>10.1}",
            r.registers, r.array_words, r.reg_read_energy, r.mem_accesses, r.static_energy
        );
    }
    println!(
        "  (the knee sits at the max lifetime density, 26: extra registers past it buy nothing)"
    );
    println!();
}

fn headline(rows: &[HeadlineRow], json: bool) {
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).expect("serialises")
        );
        return;
    }
    println!("== Headline: simultaneous vs previous research (paper: 1.4x - 2.5x) ==");
    println!(
        "  {:<10} {:<20} {:>10} {:>10}",
        "workload", "baseline", "E ratio", "aE ratio"
    );
    for r in rows {
        println!(
            "  {:<10} {:<20} {:>10.2} {:>10.2}",
            r.workload, r.baseline, r.static_ratio, r.activity_ratio
        );
    }
    let min = rows
        .iter()
        .map(|r| r.static_ratio)
        .fold(f64::INFINITY, f64::min);
    let max = rows.iter().map(|r| r.static_ratio).fold(0.0, f64::max);
    println!("  static-energy improvement band: {min:.2}x - {max:.2}x");
    println!();
}
