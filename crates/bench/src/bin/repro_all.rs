//! Runs every table/figure reproduction in sequence (the full
//! EXPERIMENTS.md regeneration). Respects `FAST=1` for a quick pass.
//!
//! With `--json [PATH]` (default `BENCH_repro.json`), the sink path is
//! exported as `TCAST_BENCH_JSON` to every child, so any binary using
//! `tcast_bench::json` (the micro-benches and any figure binary that
//! opts in) appends machine-readable rows to one shared JSON-lines file.

use std::process::Command;

use tcast_bench::json::JSON_ENV;

const BINS: [&str; 12] = [
    "table1_memory",
    "table2_models",
    "fig04_breakdown",
    "fig05_locality",
    "fig06_traffic",
    "fig09_timeline",
    "fig12_latency",
    "fig13_speedup",
    "fig14_energy",
    "fig15_utilization",
    "fig16_batch_sweep",
    "fig17_dim_sweep",
];

const EXTRA_BINS: [&str; 1] = ["sweep_link"];

fn parse_json_sink() -> Option<String> {
    let mut args = std::env::args().skip(1).peekable();
    while let Some(flag) = args.next() {
        if flag == "--json" {
            // Optional value: `--json custom.json` or bare `--json`.
            let path = match args.peek() {
                Some(v) if !v.starts_with("--") => args.next().expect("peeked"),
                _ => "BENCH_repro.json".to_string(),
            };
            return Some(path);
        }
    }
    // Inherit an externally exported sink unchanged.
    std::env::var(JSON_ENV).ok().filter(|v| !v.is_empty())
}

fn main() {
    let exe = std::env::current_exe().expect("current exe path");
    let dir = exe.parent().expect("bin directory").to_path_buf();
    let json_sink = parse_json_sink();
    if let Some(path) = &json_sink {
        println!("[repro_all] appending machine-readable rows to {path}");
    }
    let mut failures = Vec::new();
    for bin in BINS.iter().chain(EXTRA_BINS.iter()) {
        let path = dir.join(bin);
        if !path.exists() {
            eprintln!("[repro_all] skipping {bin}: not built (run `cargo build -p tcast-bench --release --bins`)");
            continue;
        }
        let mut command = Command::new(&path);
        if let Some(sink) = &json_sink {
            command.env(JSON_ENV, sink);
        }
        let status = command.status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("[repro_all] {bin} exited with {s}");
                failures.push(*bin);
            }
            Err(e) => {
                eprintln!("[repro_all] failed to launch {bin}: {e}");
                failures.push(*bin);
            }
        }
        println!();
    }
    if failures.is_empty() {
        println!("[repro_all] all reproductions completed");
    } else {
        eprintln!("[repro_all] failures: {failures:?}");
        std::process::exit(1);
    }
}
