//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints its metrics by name and unit with the host
//! facts, and ends with one JSON result line. `perfbench/run.sh` builds
//! and runs it from the root of a checkout.

use inpg_campaign::ServeOptions;
use inpg_perfbench::{host, run, Params, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <campaign_cold|serve_warm> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or(format!("bad --seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}`")),
                })
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// `perfbench serve <cache-dir> <addr-file>`: the daemon serve_warm and
/// the traced runs start. It runs the campaign service exactly as
/// `inpg serve --workers 1 --no-journal` does.
fn serve(cache_dir: &str, addr_file: &str) -> ExitCode {
    let opts = ServeOptions {
        addr: "127.0.0.1:0".into(),
        addr_file: Some(PathBuf::from(addr_file)),
        cache: Some(PathBuf::from(cache_dir)),
        workers: 1,
        journal: None,
        ..ServeOptions::default()
    };
    match inpg_campaign::serve::serve(opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if let [_, mode, cache_dir, addr_file] = argv.as_slice() {
        if mode == "serve" {
            return serve(cache_dir, addr_file);
        }
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let params = Params {
        workload: args.workload,
        cells: args.workload.cells(args.seed),
        seconds: args.seconds,
        trace: args.trace,
        work_dir: PathBuf::from(".bench_work").join(format!(
            "{}-{}",
            args.workload.name(),
            std::process::id()
        )),
        server: std::env::current_exe().expect("the running executable has a path"),
        workers: std::thread::available_parallelism().map_or(1, usize::from),
        fault: None,
    };
    let outcome = run(&params);
    let _ = std::fs::remove_dir_all(&params.work_dir);
    // Succeeds only once no other run is using the directory.
    let _ = std::fs::remove_dir(".bench_work");
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };

    println!(
        "workload {} seed {} ({} cells), trace {}",
        args.workload.name(),
        args.seed,
        params.cells.len(),
        u8::from(args.trace)
    );
    for (key, value) in host::facts() {
        println!("host {key}: {value}");
    }
    for note in &report.notes {
        println!("{note}");
    }
    for why in &report.failures {
        println!("FAILED {why}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name} = {value} {unit}");
    }
    println!("{}", report.json_line());
    ExitCode::SUCCESS
}
