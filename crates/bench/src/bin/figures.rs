//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! figures table1|table2|table3|storage|fig9|fig10|fig11|fig12|ablation
//!         |suite|golden|all [--scale test|small|medium|large|paper]
//! ```
//!
//! Output is printed as text tables shaped like the paper's figures;
//! `EXPERIMENTS.md` records a captured run against the paper's claims.
//!
//! The grid targets (`fig9`–`fig12`, `suite`, `golden`, `all`) run the
//! cells of the evaluation sweep they read once each, through an
//! in-process `hic-serve` server with one worker per host CPU, with the
//! `HIC_*` knobs folded into every request; `all` runs the 71 cells
//! once for all four figures. `suite` prints every cell's verdict,
//! cycles, host wall time and detail; `golden` prints the
//! `tests/golden_equivalence.rs` table, always at `--scale test`. A grid
//! target prints its output, then exits 1 if any cell it simulated
//! computed a wrong result or failed with a typed error.

use std::process::ExitCode;
use std::sync::Arc;

use hic_apps::{intra_apps, Scale};
use hic_bench::cli::{parse_scale, sweep_from_env};
use hic_bench::report::{failures, Table, FIG10, FIG11, FIG12, FIG9, GOLDEN, SUITE};
use hic_bench::{hop_latency_sweep, ieb_capacity_sweep, meb_capacity_sweep};
use hic_core::storage::{coherent_storage_bits, incoherent_storage_bits, savings_kb};
use hic_runtime::{InterConfig, IntraConfig};
use hic_serve::{batch_in_process, job::family};
use hic_sim::MachineConfig;

fn table1() {
    println!("Table I: communication patterns observed in our applications");
    println!("{:-14} | {:-28} | {:-28}", "Appl.", "Main", "Other");
    println!("{:-<14}-+-{:-<28}-+-{:-<28}", "", "", "");
    for app in intra_apps(Scale::Test) {
        let p = app.patterns();
        println!(
            "{:-14} | {:-28} | {}",
            app.name(),
            p.main_label(),
            p.other_label()
        );
    }
}

fn table2() {
    println!("Table II: configurations evaluated");
    println!("-- Intra-Block Experiments --");
    for c in IntraConfig::ALL {
        let desc = match c {
            IntraConfig::Base => "Baseline: WB ALL and INV ALL",
            IntraConfig::BM => "Base plus MEB",
            IntraConfig::BI => "Base plus IEB",
            IntraConfig::BMI => "Base plus MEB and IEB",
            IntraConfig::Hcc => "Hardware cache coherence",
            IntraConfig::Dragon => "Hardware cache coherence (update-based)",
        };
        println!("{:-8} {}", c.name(), desc);
    }
    println!("-- Inter-Block Experiments --");
    for c in InterConfig::ALL {
        let desc = match c {
            InterConfig::Base => "Baseline: WB ALL to L3; INV ALL from L2",
            InterConfig::Addr => "WB of addresses to L3; INV of addresses from L2",
            InterConfig::AddrL => "WB_CONS and INV_PROD",
            InterConfig::Hcc => "Hardware cache coherence",
            InterConfig::Dragon => "Hardware cache coherence (update-based)",
        };
        println!("{:-8} {}", c.name(), desc);
    }
}

fn table3() {
    println!("Table III: architecture modeled (RT = round trip)");
    for (name, cfg) in [
        ("Intra-Block", MachineConfig::intra_block()),
        ("Inter-Block", MachineConfig::inter_block()),
    ] {
        println!("-- {name} --");
        println!(
            "  cores: {} ({} block(s) x {})",
            cfg.num_cores(),
            cfg.num_blocks(),
            cfg.cores_per_block()
        );
        println!(
            "  L1: {}KB, {}-way, {}-cycle RT, {}B lines",
            cfg.l1.size_bytes / 1024,
            cfg.l1.ways,
            cfg.l1_rt,
            cfg.l1.line_bytes
        );
        println!(
            "  MEB: {} entries ({}b ID + 1b valid); IEB: {} entries (40b + 1b)",
            cfg.meb_entries,
            cfg.l1.line_id_bits(),
            cfg.ieb_entries
        );
        println!(
            "  L2: {} banks/block x {}KB, {}-way, {}-cycle RT",
            cfg.l2_banks_per_block(),
            cfg.l2.size_bytes / 1024,
            cfg.l2.ways,
            cfg.l2_rt
        );
        if let Some(l3) = cfg.l3() {
            println!(
                "  L3: {} banks x {}MB, {}-way, {}-cycle RT",
                l3.banks,
                l3.geometry.size_bytes / (1024 * 1024),
                l3.geometry.ways,
                l3.rt
            );
        }
        println!(
            "  mesh: {} cycles/hop, {}-bit links; memory {}-cycle RT at corners",
            cfg.hop_cycles, cfg.link_bits, cfg.mem_rt
        );
    }
}

fn storage() {
    let cfg = MachineConfig::inter_block();
    println!("Section VII-A: control and storage overhead (32-core, 4x8)");
    for (name, rep) in [
        (
            "coherent (hierarchical full-map MESI)",
            coherent_storage_bits(&cfg),
        ),
        (
            "incoherent (valid + per-word dirty, MEB/IEB/ThreadMap)",
            incoherent_storage_bits(&cfg),
        ),
    ] {
        println!("-- {name} --");
        for (item, bits) in &rep.items {
            println!(
                "  {:-44} {:>10} bits ({:>7.2} KB)",
                item,
                bits,
                *bits as f64 / 8192.0
            );
        }
        println!(
            "  {:-44} {:>10} bits ({:>7.2} KB)",
            "TOTAL",
            rep.total_bits(),
            rep.total_kb()
        );
    }
    println!(
        "incoherent saves {:.1} KB (paper: \"about 102KB\")",
        savings_kb(&cfg)
    );
}

fn ablation() {
    println!("Ablation: MEB capacity (B+M, 64 jobs, 8 lines written per CS)");
    println!(
        "{:>8} {:>10} {:>8} {:>10}",
        "entries", "cycles", "drains", "overflows"
    );
    for p in meb_capacity_sweep(8) {
        println!(
            "{:>8} {:>10} {:>8} {:>10}",
            p.parameter, p.cycles, p.meb_drains, p.meb_overflows
        );
    }
    println!("\nAblation: IEB capacity (B+I, 64 jobs, 8 lines per CS)");
    println!("{:>8} {:>10} {:>10}", "entries", "cycles", "refreshes");
    for p in ieb_capacity_sweep(8) {
        println!(
            "{:>8} {:>10} {:>10}",
            p.parameter, p.cycles, p.ieb_refreshes
        );
    }
    println!("\nAblation: mesh hop latency (Base vs HCC, task-queue kernel)");
    println!(
        "{:>8} {:>10} {:>10} {:>8}",
        "cyc/hop", "Base", "HCC", "ratio"
    );
    for (hop, base, hcc) in hop_latency_sweep() {
        println!(
            "{:>8} {:>10} {:>10} {:>8.2}",
            hop,
            base,
            hcc,
            base as f64 / hcc as f64
        );
    }
}

/// Simulate every sweep cell `tables` read, call `preamble`, print the
/// tables, then fail if any simulated cell was wrong or failed.
fn grid(scale: Scale, tables: &[&Table], preamble: fn()) -> ExitCode {
    let jobs = sweep_from_env(scale)
        .into_iter()
        .filter(|r| {
            let (fam, scheme) = (family(r.config.scheme()), r.config.name());
            tables.iter().any(|t| (t.reads)(fam, scheme))
        })
        .map(|r| (r, 0));
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let outcomes: Vec<Arc<_>> = match batch_in_process(jobs, workers) {
        Ok(done) => done.into_iter().map(|(o, _)| o).collect(),
        Err(e) => {
            eprintln!("figures: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("figures: simulated {} cells", outcomes.len());
    preamble();
    for (i, t) in tables.iter().enumerate() {
        if i > 0 {
            println!();
        }
        print!("{}", (t.render)(&outcomes));
    }
    match failures(&outcomes) {
        0 => ExitCode::SUCCESS,
        n => {
            eprintln!(
                "{n} of {} cells computed wrong results or failed",
                outcomes.len()
            );
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = parse_scale(&args, Scale::Small);
    let what = args.first().map(|s| s.as_str()).unwrap_or("all");
    match what {
        "table1" => table1(),
        "table2" => table2(),
        "table3" => table3(),
        "storage" => storage(),
        "ablation" => ablation(),
        "fig9" => return grid(scale, &[&FIG9], || {}),
        "fig10" => return grid(scale, &[&FIG10], || {}),
        "fig11" => return grid(scale, &[&FIG11], || {}),
        "fig12" => return grid(scale, &[&FIG12], || {}),
        "suite" => return grid(scale, &[&SUITE], || {}),
        "golden" => return grid(Scale::Test, &[&GOLDEN], || {}),
        "all" => {
            return grid(scale, &[&FIG9, &FIG10, &FIG11, &FIG12], || {
                table1();
                println!();
                table2();
                println!();
                table3();
                println!();
                storage();
                println!();
            })
        }
        other => {
            eprintln!(
                "unknown target {other:?}; use table1|table2|table3|storage|fig9|fig10|fig11|fig12|ablation|suite|golden|all"
            );
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}
