//! Host-time benchmark of the BBB simulator.
//!
//! ```text
//! bbb-perfbench --workload <kv-zipf-1m|wal-commit|crash-verify|explore-grid>
//!               [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Repeats whole passes over the workload for about `--seconds` host
//! seconds (at least one pass) and reports the median pass, host times
//! scaled to a quiet host. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` prints the per-layer split.
//! The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! A failed output check shows as `"correct": false`; the exit status is
//! non-zero only for bad arguments.

#![forbid(unsafe_code)]

mod exec;
mod metrics;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;

use bbb_runner::PAPER_SEED;

use crate::workloads::Workload;

const USAGE: &str = "usage: bbb-perfbench --workload <kv-zipf-1m|wal-commit|crash-verify|explore-grid> [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: (&'static str, Workload),
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = PAPER_SEED;
    let mut seconds = 10.0;
    let mut traced = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *Workload::ALL
                        .iter()
                        .find(|(name, _)| *name == value)
                        .ok_or_else(bad)?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        traced,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bbb-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (name, workload) = args.workload;
    let budget = Duration::from_secs_f64(args.seconds);
    let start = exec::now();
    let mut passes = Vec::new();
    loop {
        let pass = workload.pass(args.seed, args.traced);
        eprintln!(
            "pass {}: {:.4} s scaled from host speed {:.3}",
            passes.len() + 1,
            pass.wall_s,
            pass.speed.speed()
        );
        passes.push(pass);
        // Stop before a pass of the mean length would overrun the budget.
        let elapsed = start.elapsed();
        if elapsed + elapsed / passes.len() as u32 > budget {
            break;
        }
    }
    metrics::report(name, args.seed, &passes, args.traced);
    ExitCode::SUCCESS
}
