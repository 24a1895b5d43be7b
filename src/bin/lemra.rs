//! Command-line front end: allocate a lifetime table written in the text
//! format of [`lemra::ir::parse_block_spec`].
//!
//! ```text
//! lemra <file.lt> [--registers N] [--period C] [--all-pairs]
//!                 [--activity-model] [--backend B] [--timings]
//!                 [--codegen] [--simulate] [--json]
//! ```
//!
//! With `-` as the file, the spec is read from standard input. `--backend`
//! selects the min-cost-flow solver (`ssp` or `simplex`; also settable via
//! `LEMRA_BACKEND`); `--timings` prints per-stage pipeline timings to
//! stderr.

use lemra::core::{
    allocate, render_allocation, storage_plan, AllocationProblem, AllocationReport, GraphStyle,
};
use lemra::energy::RegisterEnergyKind;
use lemra::ir::parse_block_spec;
use lemra::netflow::LemraConfig;
use lemra::simulator::simulate;
use std::io::Read;
use std::process::ExitCode;

const USAGE: &str = "usage: lemra <file.lt | -> [--registers N] [--period C] \
[--all-pairs] [--activity-model] [--backend ssp|simplex] \
[--timings] [--codegen] [--simulate]";

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("lemra: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut file: Option<String> = None;
    let mut registers = 2u32;
    let mut period = 1u32;
    let mut style = GraphStyle::Regions;
    let mut kind = RegisterEnergyKind::Static;
    let mut codegen = false;
    let mut run_sim = false;
    let mut config = LemraConfig::from_env().map_err(|e| e.to_string())?;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--registers" | "-r" => {
                registers = next_num(&mut it, arg)?;
            }
            "--period" | "-p" => {
                period = next_num(&mut it, arg)?;
            }
            "--all-pairs" => style = GraphStyle::AllPairs,
            "--activity-model" => kind = RegisterEnergyKind::Activity,
            "--backend" => {
                let name = it
                    .next()
                    .ok_or_else(|| "--backend needs a value".to_owned())?;
                config.backend = name
                    .parse()
                    .map_err(|_| format!("unknown backend `{name}`\n{USAGE}"))?;
            }
            "--timings" => config.timings = true,
            "--codegen" => codegen = true,
            "--simulate" => run_sim = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            other if (other == "-" || !other.starts_with('-')) && file.is_none() => {
                file = Some(other.to_owned());
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    let timings = config.timings;
    config.install();
    let file = file.ok_or_else(|| format!("no input file\n{USAGE}"))?;
    let input = if file == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("reading stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(&file).map_err(|e| format!("reading {file}: {e}"))?
    };

    let spec = parse_block_spec(&input).map_err(|e| format!("{file}: {e}"))?;
    let names: Vec<&str> = spec.names.iter().map(String::as_str).collect();
    let problem = AllocationProblem::new(spec.table, registers)
        .with_access_period(period)
        .with_style(style)
        .with_register_energy(kind);
    let allocation = allocate(&problem).map_err(|e| e.to_string())?;
    lemra::core::validate(&problem, &allocation).map_err(|e| e.to_string())?;

    print!("{}", render_allocation(&problem, &allocation, &names));
    let report = AllocationReport::new(&problem, &allocation);
    println!(
        "\nregisters {} / {}   memory accesses {}   storage locations {}",
        report.registers_used,
        registers,
        report.mem_accesses(),
        report.storage_locations
    );
    println!(
        "energy: {:.2} static, {:.2} activity (all-memory baseline {:.2})",
        report.static_energy,
        report.activity_energy,
        lemra::core::baseline_energy(&problem).as_units()
    );

    if codegen {
        let plan = storage_plan(&problem, &allocation);
        println!("\nstorage instructions:");
        if plan.instrs.is_empty() {
            println!("  (none)");
        }
        for instr in &plan.instrs {
            println!("  {instr}");
        }
    }
    if run_sim {
        let sim = simulate(&problem, &allocation).map_err(|e| e.to_string())?;
        println!(
            "\nsimulated: {} mem accesses, {} reg accesses, {} reads verified OK",
            sim.mem_reads + sim.mem_writes,
            sim.reg_reads + sim.reg_writes,
            sim.reads_verified
        );
    }
    if timings {
        let stats = lemra::core::pipeline_stats();
        eprintln!("-- pipeline stage timings --");
        for stage in lemra::core::Stage::ALL {
            let t = stats.stage(stage);
            eprintln!(
                "  {:<10} {:>4} runs {:>10.3} ms {:>10.1} peak KiB",
                stage.name(),
                t.runs,
                t.nanos as f64 / 1e6,
                t.bytes as f64 / 1024.0
            );
        }
        eprintln!(
            "  solves: {} warm, {} cold; {} dijkstra rounds, {} units pushed, {} incidents",
            stats.warm_solves,
            stats.cold_solves,
            stats.solver.dijkstra_rounds,
            stats.solver.pushed_units,
            stats.solver.incidents
        );
    }
    Ok(())
}

fn next_num<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<u32, String> {
    it.next()
        .ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|_| format!("{flag} needs a number"))
}
