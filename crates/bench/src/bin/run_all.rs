//! Run the full experiment battery (every table and figure) by invoking
//! each experiment binary in sequence. Results land in `results/` and the
//! combined stdout is what EXPERIMENTS.md records.
//!
//! Run: `cargo run -p scope-steer-bench --release --bin run_all -- [--scale=1.0]`

use std::process::Command;

const EXPERIMENTS: [&str; 20] = [
    "exp_table1",
    "exp_table2",
    "exp_fig2",
    "exp_fig3",
    "exp_fig4",
    "exp_fig5",
    "exp_fig6",
    "exp_fig7",
    "exp_table3",
    "exp_table4",
    "exp_fig1",
    "exp_learning",
    "exp_ablation_search",
    "exp_ablation_learning",
    "exp_deployment",
    "exp_random_configs",
    "exp_fault_sweep",
    "exp_budget_sweep",
    "exp_flighting",
    "exp_cost_feedback",
];

fn main() {
    let scale = scope_steer_bench::reporting::scale_arg();
    let self_path = std::env::current_exe().expect("current exe path");
    let bin_dir = self_path.parent().expect("bin dir").to_path_buf();
    let mut failed = Vec::new();
    let started = std::time::Instant::now();
    for exp in EXPERIMENTS {
        println!("\n──────────────────────── {exp} ────────────────────────");
        let status = Command::new(bin_dir.join(exp))
            .arg(format!("--scale={scale}"))
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{exp} exited with {s}");
                failed.push(exp);
            }
            Err(e) => {
                eprintln!("{exp} failed to start: {e}");
                failed.push(exp);
            }
        }
    }
    println!(
        "\nran {} experiments in {:?}; failures: {:?}",
        EXPERIMENTS.len(),
        started.elapsed(),
        failed
    );
    if !failed.is_empty() {
        std::process::exit(1);
    }
}
