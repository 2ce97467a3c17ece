//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-nsfnet --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Runs one workload (see [`workloads`]) for about `--seconds` seconds,
//! checks its outputs, and prints one JSON object as the last line of
//! standard output: whether every check passed, the operations attempted
//! and failed, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of a traced run (`--trace 1`). A failed check exits with code 1.
//! Scratch files (WALs, span logs, the per-layer report) go under
//! `.perfbench_out/` in the working directory.

mod client;
mod nets;
mod script;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// Where WALs, span logs and reports are written (relative to the
/// working directory).
pub const OUT_DIR: &str = ".perfbench_out";

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
}

impl Metric {
    /// A metric from `samples` samples.
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Self {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests sent, or demands planned).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Every metric, in report order.
    pub metrics: Vec<Metric>,
    /// Failed correctness checks.
    pub check_failures: Vec<String>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 30.0_f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
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

fn json_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.check_failures.is_empty() && o.failed == 0,
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(workload) = workloads::Workload::parse(&args.workload) else {
        eprintln!(
            "error: unknown workload {:?} (expected one of {})",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let out = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("error: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(1);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} on {cores} core(s)",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let result = if args.trace {
        trace::run(workload, args.seed, &out)
    } else {
        workloads::run(workload, args.seed, args.seconds, &out)
    };
    match result {
        Ok(o) => {
            for m in &o.metrics {
                eprintln!(
                    "  {:<36} {:>16.6} {:<8} ({} samples)",
                    m.name, m.value, m.unit, m.samples
                );
            }
            for c in &o.check_failures {
                eprintln!("check failed: {c}");
            }
            println!("{}", json_line(&o));
            if o.check_failures.is_empty() && o.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// Process high-water resident set size, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
