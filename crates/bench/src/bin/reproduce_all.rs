//! Runs every table/figure harness in sequence — the one-command
//! reproduction of the paper's evaluation section.
//!
//! ```sh
//! cargo run --release -p netmark-bench --bin reproduce_all
//! ```

use std::process::Command;

const TARGETS: &[&str] = &[
    "fig1_cost_scaling",
    "tbl1_assembly",
    "fig3_pipeline",
    "fig5_schema_less",
    "fig6_context_search",
    "fig7_xslt",
    "fig8_federation",
    "fig12_c10k",
    "fig13_shard_scaling",
    "fig14_ranked_search",
    "fig15_ranked_topk",
    "sec4_top_employees",
    "ablations",
];

fn main() {
    let exe = std::env::current_exe().expect("own path");
    let bin_dir = exe.parent().expect("bin dir");
    let mut failures = Vec::new();
    for target in TARGETS {
        let path = bin_dir.join(target);
        let status = if path.exists() {
            Command::new(&path).status()
        } else {
            // Fall back to cargo when siblings aren't built yet.
            Command::new("cargo")
                .args([
                    "run",
                    "--release",
                    "-q",
                    "-p",
                    "netmark-bench",
                    "--bin",
                    target,
                ])
                .status()
        };
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => failures.push(format!("{target}: exit {s}")),
            Err(e) => failures.push(format!("{target}: {e}")),
        }
    }
    println!("\n==================================================================");
    if failures.is_empty() {
        println!("reproduce_all: all {} harnesses completed", TARGETS.len());
    } else {
        println!("reproduce_all: {} failures:", failures.len());
        for f in &failures {
            println!("  {f}");
        }
        std::process::exit(1);
    }
}
