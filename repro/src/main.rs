//! `repro`: regenerates the paper's tables and figures from its hardware
//! model (`tcast-dram`, `tcast-nmp`, `tcast-system`), one subcommand per
//! report; `repro all` runs every report in order, in this process.
//! `FAST=1` shrinks the sampled sweeps for a smoke pass.
//!
//! ```text
//! repro <report | all>
//! ```

mod ablations;
mod calibration;
mod fig04;
mod fig05;
mod fig06;
mod fig09;
mod fig12;
mod fig13;
mod fig14;
mod fig15;
mod fig16;
mod fig17;
mod pool_scaling;
mod sweep_link;
mod table1;
mod table2;

/// Every report, by subcommand name, in the order `repro all` runs them.
const REPORTS: [(&str, fn()); 16] = [
    ("table1", table1::run),
    ("table2", table2::run),
    ("fig04", fig04::run),
    ("fig05", fig05::run),
    ("fig06", fig06::run),
    ("fig09", fig09::run),
    ("fig12", fig12::run),
    ("fig13", fig13::run),
    ("fig14", fig14::run),
    ("fig15", fig15::run),
    ("fig16", fig16::run),
    ("fig17", fig17::run),
    ("ablations", ablations::run),
    ("calibration", calibration::run),
    ("sweep_link", sweep_link::run),
    ("pool_scaling", pool_scaling::run),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [all] if all == "all" => {
            for (_, run) in REPORTS {
                run();
                println!();
            }
            println!("[repro] all {} reports completed", REPORTS.len());
        }
        [name] => match REPORTS.iter().find(|(report, _)| report == name) {
            Some((_, run)) => run(),
            None => usage(&format!("unknown report `{name}`")),
        },
        _ => usage("expected one report name"),
    }
}

/// Prints `problem` and the valid report names to stderr, then exits 2.
fn usage(problem: &str) -> ! {
    let names: Vec<&str> = REPORTS.iter().map(|(name, _)| *name).collect();
    eprintln!("repro: {problem}");
    eprintln!("usage: repro <report | all>");
    eprintln!("reports: {}", names.join(" "));
    std::process::exit(2);
}
