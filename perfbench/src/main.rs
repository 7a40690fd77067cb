//! Command line of the repository benchmark.
//!
//! ```text
//! laf-perfbench --workload <cluster|serve|serve-mutable|all> --seed <n>
//!               --seconds <n> --trace <0|1>
//! ```
//!
//! Prints each workload's metrics by name with units, then, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`). Exits 1 when any check failed and 2 on a bad
//! command line.

use laf_perfbench::common::Scale;
use laf_perfbench::report::{result_line, Report};
use laf_perfbench::Workload;
use std::process::ExitCode;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workloads = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 25u64, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => {
                let w = Workload::parse(&value).ok_or(format!("unknown workload {value}"))?;
                workloads = Some(vec![w]);
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("laf-perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let scale = Scale::full(args.seconds);
    println!(
        "host: {} hardware threads; seed {}, {} s of work, tracing {}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        args.seed,
        args.seconds,
        if args.trace { "on" } else { "off" },
    );
    let reports: Vec<Report> = args
        .workloads
        .iter()
        .map(|w| {
            let report = w.run(&scale, args.seed, args.trace);
            print!("{}", report.human());
            report
        })
        .collect();
    println!("{}", result_line(&reports, args.trace));
    if reports.iter().all(Report::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
