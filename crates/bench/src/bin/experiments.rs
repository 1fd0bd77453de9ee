//! CLI driver regenerating the paper's tables and figures.
//!
//! ```text
//! experiments list                 # catalogue
//! experiments all [--scale 0.2]    # everything (scaled)
//! experiments fig6-query-k         # one experiment
//! ```
//!
//! Each experiment prints aligned tables and writes TSVs under
//! `reports/` (override with `--out DIR`). `--scale` multiplies every
//! dataset length (defaults are already laptop-scaled).

use std::time::Instant;
use usi_bench::context::ExperimentContext;
use usi_bench::experiments;

fn usage() -> ! {
    eprintln!(
        "usage: experiments <list|all|EXPERIMENT-ID> [--scale FACTOR] [--seed SEED] [--out DIR]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let command = args[0].clone();
    let mut ctx = ExperimentContext::default();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                ctx.scale = args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--seed" => {
                i += 1;
                ctx.seed = args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--out" => {
                i += 1;
                ctx.out_dir = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
        i += 1;
    }

    if command == "list" {
        println!("{:<18}  paper artifact", "id");
        println!("{}", "-".repeat(60));
        for e in experiments::all() {
            println!("{:<18}  {}", e.id, e.artifact);
        }
        return;
    }

    let selected = experiments::select(&command);
    if selected.is_empty() {
        eprintln!("unknown experiment id '{command}' (try 'list')");
        std::process::exit(2);
    }
    println!(
        "# USI experiment harness — scale {}, seed {:#x}, reports in {}/",
        ctx.scale, ctx.seed, ctx.out_dir
    );
    let total = Instant::now();
    for e in selected {
        println!("\n### {} — {}\n", e.id, e.artifact);
        let start = Instant::now();
        for report in (e.run)(&ctx) {
            report.emit(&ctx.out_dir).expect("failed to write report");
        }
        println!("[{} finished in {:.2?}]", e.id, start.elapsed());
    }
    println!("\n# total wall time {:.2?}", total.elapsed());
}
