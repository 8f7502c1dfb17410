//! Layered serving benchmark for the UCAD reproduction.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fresh-stream --seed 1 --seconds 6 --trace 0
//! ```
//!
//! One single-threaded generator drives the serving system through its
//! public entry points: set-up (train the Scenario-I model, build the
//! deployment), a closed-loop phase (submit rounds as fast as accepted,
//! close, drain), an open-loop phase at the workload's fixed rate, then the
//! output checks. The last stdout line is the result JSON; the line before
//! it is the full row with the host fingerprint. The exit code is non-zero
//! when a check fails. See `perfbench/README.md`.

mod check;
mod probes;
mod report;
mod run;
mod stats;
mod target;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use report::{BenchResult, Host, END_TO_END, PER_LAYER};
use run::{Args, OUT_DIR};
use workload::Workload;

const USAGE: &str =
    "usage: perfbench --workload <fresh-stream|recurring-stream|routed-durable|tenant-fleet> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w =
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?;
                workload = Some(w);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One result row: every value, with where and how it was measured.
#[derive(serde::Serialize)]
struct Row {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    open_loop_rps: f64,
    latency_limit_ms: f64,
    host: Host,
    correct: bool,
    failures: Vec<String>,
    samples: BTreeMap<String, f64>,
    values: BTreeMap<String, f64>,
}

fn main() -> ExitCode {
    // One compute-pool thread: the engine's parallelism is its two shards
    // (or two daemons), as many as the 2-vCPU host has. A two-thread
    // kernel pool puts up to four busy threads on two vCPUs; with it,
    // `routed-durable` throughput spread 0.24 of its median over ten
    // seeds, against 0.13 over ten seeds with one thread. Set before the
    // first pool use, while the process is single-threaded.
    std::env::set_var("UCAD_THREADS", "1");
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let measured = match run::run(&args) {
        Ok(m) => m,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(1);
        }
    };
    let correct = measured.failures.is_empty();
    for f in &measured.failures {
        eprintln!("perfbench: CHECK FAILED: {f}");
    }
    for spec in END_TO_END.iter().chain(PER_LAYER) {
        if let Some(v) = measured.values.get(spec.name) {
            println!("{:<28} {:>14.4} {}", spec.name, v, spec.unit);
        }
    }
    let row = serde_json::to_string(&Row {
        workload: args.workload.name().to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        open_loop_rps: args.workload.open_loop_rps(),
        latency_limit_ms: args.workload.latency_limit_ms(),
        host: Host::detect(),
        correct,
        failures: measured.failures.clone(),
        samples: measured.samples.clone(),
        values: measured.values.clone(),
    })
    .expect("rows serialize");
    let log = PathBuf::from(OUT_DIR).join("rows.jsonl");
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&log)
    {
        let _ = writeln!(f, "{row}");
    }
    println!("{row}");
    let catalog = if args.trace { PER_LAYER } else { END_TO_END };
    let result = BenchResult::new(
        correct,
        measured.attempted,
        measured.failed,
        catalog,
        &measured.values,
    );
    println!("{}", result.to_json());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "routed-durable",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::RoutedDurable);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        assert!(args(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "fresh-stream", "--seconds", "1"]).is_err());
        assert!(args(&[
            "--workload",
            "fresh-stream",
            "--seed",
            "1",
            "--seconds",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "fresh-stream",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }
}
