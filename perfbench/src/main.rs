//! `perfbench` — run one benchmark workload and print its metrics.
//!
//! ```text
//! perfbench --workload paper_suite|fleet_loaded|geo_chaos
//!           [--seed <u64>] [--seconds <s>] [--trace 0|1]
//! ```
//!
//! Run from the repository root (the paper suite reads `results/`).
//! Progress and failed checks go to stderr; the last line of stdout is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`, the
//! end-to-end metrics untraced and the per-layer metrics traced.

use perfbench::bench::{self, Workload};
use std::process::ExitCode;

/// The repository's default seed (the `repro` binary's).
const DEFAULT_SEED: u64 = 20120910;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 40.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let names: Vec<&str> = Workload::ALL.iter().map(|(n, _)| *n).collect();
                workload = Some(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload {name:?} (one of {})", names.join(", ")))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("bad seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("bad seconds: {e}"))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be a finite non-negative number".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match bench::run(args.workload, args.seed, args.seconds, args.trace) {
        Ok(report) => {
            println!("{}", report.to_json(args.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
