//! The repo benchmark. One command runs every workload, checks that the
//! outputs are correct and prints every metric by name:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --workload all --seed 1
//! ```
//!
//! `--trace` makes the separate traced run that yields the per-layer
//! metrics; `compare <dirA> <dirB>` applies the bounds; `selfcheck`
//! shows that two sets of runs of the same code agree. `README.md` in
//! this directory defines every metric.

mod alloc;
mod compare;
mod host;
mod json;
mod layers;
mod report;
mod serve;
mod serve_driver;
mod spec;
mod stats;
mod trace;
mod train;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

use json::Value;
use report::Header;
use workloads::{RunOptions, RunResult, RUN_SECONDS};

#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;

const USAGE: &str = "usage:
  tcast-benchmark [--workload <name>|all] [--seed <n>] [--seconds <s>] [--trace [0|1]] [--quick] [--out <subdir>]
  tcast-benchmark compare <dirA> <dirB>
  tcast-benchmark selfcheck [--seconds <s>]
workloads: train_embed train_dense serve_hot serve_online_cold
results are written below benchmark/out/ (--out names a subdirectory of it)";

#[derive(Debug, PartialEq)]
struct RunArgs {
    workloads: Vec<&'static str>,
    options: RunOptions,
    out: Option<String>,
}

#[derive(Debug, PartialEq)]
enum Cli {
    Run(RunArgs),
    Compare(String, String),
    Selfcheck { seconds: f64 },
}

fn number<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse()
        .map_err(|_| format!("{flag}: {v:?} is not a valid value"))
}

fn seconds(flag: &str, value: Option<&String>) -> Result<f64, String> {
    let s: f64 = number(flag, value)?;
    if s.is_finite() && (0.1..=600.0).contains(&s) {
        Ok(s)
    } else {
        Err(format!("{flag}: {s} is outside 0.1..=600"))
    }
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    match args.first().map(String::as_str) {
        Some("compare") => match args {
            [_, a, b] => Ok(Cli::Compare(a.clone(), b.clone())),
            _ => Err("compare takes exactly two directories".to_string()),
        },
        Some("selfcheck") => {
            let mut secs = RUN_SECONDS as f64;
            let mut it = args[1..].iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--seconds" => secs = seconds(flag, it.next())?,
                    other => return Err(format!("unknown selfcheck flag {other:?}")),
                }
            }
            Ok(Cli::Selfcheck { seconds: secs })
        }
        _ => parse_run(args).map(Cli::Run),
    }
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workloads: spec::WORKLOADS.to_vec(),
        options: RunOptions {
            seed: 1,
            seconds: RUN_SECONDS as f64,
            trace: false,
            quick: false,
        },
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = it.next().ok_or("--workload needs a value")?;
                run.workloads = if name == "all" {
                    spec::WORKLOADS.to_vec()
                } else {
                    let known = spec::WORKLOADS.iter().find(|w| *w == name);
                    vec![*known.ok_or_else(|| format!("unknown workload {name:?}"))?]
                };
            }
            "--seed" => run.options.seed = number(flag, it.next())?,
            "--seconds" => run.options.seconds = seconds(flag, it.next())?,
            // `--trace` alone is the traced run; the driver spells it `--trace 0|1`.
            "--trace" => {
                run.options.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => run.options.quick = true,
            "--out" => run.out = Some(it.next().ok_or("--out needs a value")?.clone()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(run)
}

fn run_workload(name: &str, options: &RunOptions) -> Result<RunResult, String> {
    match name {
        "train_embed" => train::run(&train::TRAIN_EMBED, options),
        "train_dense" => train::run(&train::TRAIN_DENSE, options),
        "serve_hot" => serve::run(&serve::SERVE_HOT, options),
        "serve_online_cold" => serve::run(&serve::SERVE_ONLINE_COLD, options),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn run_command(args: &RunArgs) -> Result<i32, String> {
    let dir = report::out_dir(args.out.as_deref())?;
    let header = Header::capture();
    let options = args.options;
    if options.quick {
        println!("--quick: smoke shapes and 4 short rounds; the numbers below are not comparable and no bound applies");
    }
    alloc::track_this_thread();
    let mut all_correct = true;
    let mut last_lines = Vec::new();
    for name in &args.workloads {
        workloads::reset_peak_rss();
        let result = run_workload(name, &options)?;
        report::print_run(&header, &result);
        report::write_run(&dir, &header, &result)?;
        all_correct &= result.correct();
        last_lines.push((result.workload, report::result_json(&result)));
    }
    // The last line of standard output is the result object: one
    // workload's own, or (for `all`) one object per workload.
    let last = if last_lines.len() == 1 {
        last_lines.remove(0).1
    } else {
        Value::Obj(
            last_lines
                .into_iter()
                .map(|(w, v)| (w.to_string(), v))
                .collect(),
        )
    };
    println!("{}", last.encode());
    Ok(i32::from(!all_correct))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_cli(&args) {
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
        Ok(Cli::Run(run)) => run_command(&run),
        Ok(Cli::Compare(a, b)) => compare::compare_command(Path::new(&a), Path::new(&b)),
        Ok(Cli::Selfcheck { seconds }) => compare::selfcheck_command(seconds),
    };
    match outcome {
        Ok(code) => ExitCode::from(code as u8),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn run(args: &[&str]) -> RunArgs {
        match cli(args) {
            Ok(Cli::Run(r)) => r,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let r = run(&[
            "--workload",
            "serve_hot",
            "--seed",
            "7",
            "--seconds",
            "14",
            "--trace",
            "0",
        ]);
        assert_eq!(r.workloads, ["serve_hot"]);
        assert_eq!(
            (r.options.seed, r.options.seconds, r.options.trace),
            (7, 14.0, false)
        );
        assert!(
            run(&["--workload", "serve_hot", "--trace", "1", "--seed", "2"])
                .options
                .trace
        );
    }

    #[test]
    fn bare_trace_and_defaults() {
        let r = run(&["--trace", "--quick"]);
        assert!(r.options.trace && r.options.quick);
        assert_eq!(r.workloads, spec::WORKLOADS);
        assert_eq!(run(&["--workload", "all"]).options.seed, 1);
        assert_eq!(run(&["--trace", "--seed", "3"]).options.seed, 3);
    }

    #[test]
    fn unknown_workloads_seeds_and_flags_are_errors() {
        assert!(cli(&["--workload", "train_sparse"]).is_err());
        assert!(cli(&["--seed", "one"]).is_err());
        assert!(cli(&["--seed", "-1"]).is_err());
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--frobnicate"]).is_err());
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--seconds", "nan"]).is_err());
        assert!(cli(&["compare", "only-one"]).is_err());
        assert!(cli(&["selfcheck", "--pairs", "3"]).is_err());
        assert!(cli(&["selfcheck", "--workload", "all"]).is_err());
    }

    #[test]
    fn subcommands_parse() {
        assert_eq!(
            cli(&["compare", "a", "b"]),
            Ok(Cli::Compare("a".into(), "b".into()))
        );
        assert_eq!(
            cli(&["selfcheck", "--seconds", "42"]),
            Ok(Cli::Selfcheck { seconds: 42.0 })
        );
    }
}
