//! Runtime benchmark entry point.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path runbench/Cargo.toml -- \
//!     --workload <theta_static|theta_static_t2|gossip_hostile> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A traced run
//! also writes its spans to `.bench_traces/<workload>-<seed>.jsonl`.

use runbench::metrics::{END_TO_END, PER_LAYER};
use runbench::{bench, to_json, Options, Scale, Workload};
use std::process::ExitCode;
use std::time::Duration;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; pick one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        budget: Duration::from_secs(seconds.ok_or("--seconds is required")?),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("runbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = bench(&opts, &Scale::FULL);
    if opts.trace {
        let dir = std::path::Path::new(".bench_traces");
        let path = dir.join(format!("{}-{}.jsonl", opts.workload.name(), opts.seed));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &report.spans))
        {
            eprintln!("runbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("runbench: spans written to {}", path.display());
    }
    let table: &[_] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", to_json(&report, table));
    ExitCode::SUCCESS
}
