//! `hc2l-sysbench` — the system benchmark of the HC2L serving stack.
//!
//! ```text
//! cargo run --release --manifest-path sysbench/Cargo.toml -- \
//!     --workload embedded|live --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds the road network and its HC2L index, serves it, drives the chosen
//! workload's seeded traffic for `--seconds`, checks every answer against
//! Dijkstra,
//! and prints one JSON object as the last line of stdout:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` repeats the
//! traffic with spans on, probes each layer, reports the per-layer metrics
//! and writes every span to `traces/<workload>-<seed>.jsonl` beside the
//! binary. See README.md for the workloads and metrics.

mod hist;
mod inputs;
mod trace;
mod workloads;

use std::process::ExitCode;

use workloads::{RunArgs, Workload};

fn parse_args() -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value:?} (embedded|live)"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hc2l-sysbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!(
        "hc2l-sysbench: workload {:?}, seed {}, {} s, {cores} cores",
        args.workload, args.seed, args.seconds
    );
    let outcome = workloads::run(args);
    for problem in &outcome.problems {
        eprintln!("hc2l-sysbench: {problem}");
    }
    if let Some(tracer) = &outcome.tracer {
        if args.trace {
            let path = std::env::current_exe()
                .ok()
                .and_then(|exe| exe.parent().map(|dir| dir.to_path_buf()))
                .unwrap_or_default()
                .join("traces")
                .join(format!("{:?}-{}.jsonl", args.workload, args.seed).to_lowercase());
            match tracer.write(&path) {
                Ok(()) => eprintln!(
                    "hc2l-sysbench: {} spans written to {}",
                    tracer.len(),
                    path.display()
                ),
                Err(e) => eprintln!("hc2l-sysbench: writing spans failed: {e}"),
            }
        }
    }
    let correct = outcome.failed == 0 && outcome.problems.is_empty() && outcome.attempted > 0;
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
