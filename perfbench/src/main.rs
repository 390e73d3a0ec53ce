//! Command-line entry point:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <replan|durable_ingest|paper_sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Prints the human report on standard
//! error and the JSON result as the last line of standard output. Exits
//! 0 on a correct run, 1 on a failed check (the result then carries
//! `"correct": false` and no metrics), and 2 when the run cannot be set
//! up (no result line).

use std::path::Path;
use std::process::ExitCode;

use perfbench::{host, ordered, result_json, run, Failure, Size, Workload};

/// Where span files and WAL directories go, relative to the repository
/// root the benchmark runs from.
const OUT_DIR: &str = "perfbench/results";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <replan|durable_ingest|paper_sweep> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let host = host::Host::detect();
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} | nproc={} cpu=\"{}\" kernel={} \
         profile={} commit={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.nproc,
        host.cpu_model,
        host.kernel,
        host.profile,
        host.commit
    );
    let outcome = run(
        args.workload,
        Size::Full,
        args.seed,
        args.seconds as f64,
        args.trace,
        Path::new(OUT_DIR),
    );
    match outcome {
        Ok(outcome) => {
            for note in &outcome.notes {
                eprintln!("perfbench: {note}");
            }
            let metrics = ordered(args.trace, &outcome.metrics);
            for (metric, value) in &metrics {
                eprintln!(
                    "perfbench: {:<32} {value:>16.6} {}",
                    metric.name, metric.unit
                );
            }
            println!(
                "{}",
                result_json(true, outcome.attempted, outcome.failed, &metrics)
            );
            ExitCode::SUCCESS
        }
        Err(Failure::Incorrect {
            attempted,
            failed,
            reason,
        }) => {
            eprintln!("perfbench: correctness check failed: {reason}");
            println!("{}", result_json(false, attempted, failed, &[]));
            ExitCode::from(1)
        }
        Err(Failure::Setup(reason)) => {
            eprintln!("perfbench: {reason}");
            ExitCode::from(2)
        }
    }
}
