//! `qbench`: a closed-loop benchmark of the Q keyword-search server.
//!
//! ```text
//! qbench --workload <cold_miss_100x|warm_hit_10x>
//!        --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Starts `QServe` in-process on loopback over a snapshot the run builds,
//! persists and restores, drives it with blocking HTTP clients that wait
//! for each answer before sending the next request, checks the answers, and
//! prints one JSON line as the last line of standard output:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reruns the workload, then times each
//! layer's public functions on the same snapshot and reports per-layer
//! metrics, writing every span to `.qbench_out/`. See `qbench/README.md`.

mod check;
mod corpus;
mod gen;
mod layers;
mod probe;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use workload::{Metric, Workload};

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: qbench --workload <cold_miss_100x|warm_hit_10x> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| "--seed must be an integer")?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or("--seconds must be an integer in 1..=600")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload_name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::parse(&workload_name)
            .ok_or_else(|| format!("unknown workload {workload_name}"))?,
        workload_name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn json_metrics(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push('}');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir =
        PathBuf::from(".qbench_out").join(format!("{}-{}", args.workload_name, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("creating {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = workload::run(args.workload, args.seed, args.seconds, args.trace, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let report = match outcome {
        Ok(report) => report,
        Err(message) => {
            eprintln!("{}: {message}", args.workload_name);
            return ExitCode::FAILURE;
        }
    };
    for problem in &report.problems {
        eprintln!("check failed: {problem}");
    }
    for failure in &report.failures {
        eprintln!("operation failed: {failure}");
    }
    // The end-to-end figures of a traced run show the tracing overhead.
    for m in &report.end_to_end {
        eprintln!("{} {} {}", m.name, m.value, m.unit);
    }
    if let Some(trace) = &report.trace {
        let path = PathBuf::from(".qbench_out")
            .join(format!("trace-{}-{}.tsv", args.workload_name, args.seed));
        if let Err(e) = std::fs::write(&path, trace) {
            eprintln!("writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("spans written to {}", path.display());
    }
    let metrics = if args.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.problems.is_empty(),
        report.attempted,
        report.failed,
        json_metrics(metrics)
    );
    ExitCode::SUCCESS
}
