//! Runs every experiment binary in sequence — the one-shot reproduction
//! of the paper's whole Section V. Results land on stdout; the run exits
//! 1 naming every binary that failed.
//!
//! `cargo run -p scs-bench --release --bin all_experiments`

use std::process::Command;

const BINS: [&str; 11] = [
    "table1",
    "fig6_quality",
    "table2_case_study",
    "fig8_query_time",
    "fig9_vary_params",
    "fig10_index_time",
    "fig11_index_size",
    "fig12_scs_datasets",
    "fig13_scs_params",
    "table3_weight_dist",
    "workspace_reuse",
];

fn main() {
    let me = std::env::current_exe().expect("current exe path");
    let dir = me.parent().expect("exe dir");
    let mut failures = Vec::new();
    for bin in BINS {
        println!("\n{}", "=".repeat(72));
        println!("== {bin}");
        println!("{}", "=".repeat(72));
        let path = dir.join(bin);
        let status = Command::new(&path)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {}: {e}", path.display()));
        if !status.success() {
            failures.push(bin);
        }
    }
    println!("\n{}", "=".repeat(72));
    if failures.is_empty() {
        println!("all {} experiments completed", BINS.len());
    } else {
        println!("FAILED: {failures:?}");
        std::process::exit(1);
    }
}
